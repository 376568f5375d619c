// Package events implements deterministic between-round event schedules
// for live scenarios: population churn (player arrivals and departures at
// configurable rates), time-varying latency ("rush hour" amplification of
// a link's latency function), and topology mutation (adding links with new
// strategies over them, removing links by retiring the strategies that use
// them — Braess's paradox as an event rather than a separate instance).
//
// A Schedule is a validated list of Events. Each event fires either once
// (at its Round) or periodically (every Every rounds from Round on), and
// application order within a round is slice order. Schedules are applied
// between rounds — before the decide phase — through the engine's
// pre-round hook (core.WithPreRound), so a scheduled run stays
// bit-identical for every worker count: the mutations happen sequentially
// on the engine goroutine and the round then proceeds from the mutated
// state exactly as if the instance had been constructed that way (the
// differential tests in internal/game pin this against from-scratch
// rebuilds; see DESIGN.md §10).
//
// A Schedule carries no mutable state — ApplyRound is a pure function of
// (round, state) — so one Schedule is safely shared by concurrent
// replications, each driving its own State.
package events

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"

	"congame/internal/game"
	"congame/internal/latency"
)

// ErrInvalid reports an invalid event schedule. Every error returned by
// this package wraps it.
var ErrInvalid = errors.New("events: invalid schedule")

// Kind names an event type.
type Kind string

// The event kinds.
const (
	// Arrive adds Count players to strategy Strategy.
	Arrive Kind = "arrive"
	// Depart removes up to Count players from strategy Strategy (clamped
	// to the players actually on it, and to leaving at least one player in
	// the game).
	Depart Kind = "depart"
	// LatencyScale multiplies resource Resource's latency function by
	// Factor (output scaling; compounds when the event recurs).
	LatencyScale Kind = "latency-scale"
	// AddLink appends a new resource with the Latency function and
	// registers the Strategies over it. One-shot only. The new link's
	// index is the resource count at fire time (the initial m plus the
	// number of earlier add-link events).
	AddLink Kind = "add-link"
	// RemoveLink retires every strategy using resource Resource, first
	// migrating their players to the Fallback strategy. One-shot only.
	RemoveLink Kind = "remove-link"
)

// LatencySpec describes the latency function of an added link.
type LatencySpec struct {
	// Kind is "constant", "linear", "affine", or "monomial".
	Kind string `json:"kind"`
	// A is the constant (constant), slope (linear, affine), or
	// coefficient (monomial).
	A float64 `json:"a"`
	// B is the offset (affine) or degree (monomial); unused otherwise.
	B float64 `json:"b,omitempty"`
}

// Build constructs the latency function the spec describes.
func (ls LatencySpec) Build() (latency.Function, error) {
	switch ls.Kind {
	case "constant":
		return latency.NewConstant(ls.A)
	case "linear":
		return latency.NewLinear(ls.A)
	case "affine":
		return latency.NewAffine(ls.A, ls.B)
	case "monomial":
		return latency.NewMonomial(ls.A, ls.B)
	default:
		return nil, fmt.Errorf("%w: unknown latency kind %q (want constant, linear, affine, or monomial)", ErrInvalid, ls.Kind)
	}
}

// Event is one scheduled mutation. Which fields apply depends on Kind (see
// the Kind constants); fields a kind does not use must be left zero.
type Event struct {
	// Round is the first round the event fires before (0-based).
	Round int `json:"round"`
	// Every, if positive, re-fires the event every Every rounds from Round
	// on — the rate knob for churn. Zero means one-shot. Topology events
	// (add-link, remove-link) must be one-shot.
	Every int `json:"every,omitempty"`
	// Kind selects the event type.
	Kind Kind `json:"kind"`
	// Count is the number of players arriving or departing.
	Count int `json:"count,omitempty"`
	// Strategy is the strategy players arrive on or depart from.
	Strategy int `json:"strategy,omitempty"`
	// Resource is the link being rescaled or removed.
	Resource int `json:"resource,omitempty"`
	// Factor is the latency amplification factor (> 0; < 1 relieves).
	Factor float64 `json:"factor,omitempty"`
	// Latency describes the added link's latency function.
	Latency *LatencySpec `json:"latency,omitempty"`
	// Strategies are the resource sets to register when the link is added
	// (each may reference the new link by its fire-time index).
	Strategies [][]int `json:"strategies,omitempty"`
	// Fallback is the strategy that absorbs players of retired strategies.
	Fallback int `json:"fallback,omitempty"`
}

// activeAt reports whether the event fires before the given round.
func (ev *Event) activeAt(round int) bool {
	if round < ev.Round {
		return false
	}
	if ev.Every <= 0 {
		return round == ev.Round
	}
	return (round-ev.Round)%ev.Every == 0
}

// validate checks the structural (game-independent) invariants of one
// event. Instance-dependent checks (index ranges, retirement interactions)
// live in Schedule.ValidateFor.
func (ev *Event) validate(i int) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%w: event %d (%s): %s", ErrInvalid, i, ev.Kind, fmt.Sprintf(format, args...))
	}
	if ev.Round < 0 {
		return fail("round %d must be non-negative", ev.Round)
	}
	if ev.Every < 0 {
		return fail("every %d must be non-negative", ev.Every)
	}
	// Fields a kind does not use must be zero, so a misplaced knob is a
	// loud error instead of a silently ignored one.
	unused := func(name string, ok bool) error {
		if !ok {
			return fail("field %q is not used by this kind and must be left zero", name)
		}
		return nil
	}
	switch ev.Kind {
	case Arrive, Depart:
		if ev.Count < 1 {
			return fail("count %d must be at least 1", ev.Count)
		}
		if ev.Strategy < 0 {
			return fail("strategy %d must be non-negative", ev.Strategy)
		}
		return errors.Join(
			unused("resource", ev.Resource == 0),
			unused("factor", ev.Factor == 0),
			unused("latency", ev.Latency == nil),
			unused("strategies", len(ev.Strategies) == 0),
			unused("fallback", ev.Fallback == 0),
		)
	case LatencyScale:
		if !(ev.Factor > 0) || math.IsInf(ev.Factor, 0) || math.IsNaN(ev.Factor) {
			return fail("factor %v must be positive and finite", ev.Factor)
		}
		if ev.Resource < 0 {
			return fail("resource %d must be non-negative", ev.Resource)
		}
		return errors.Join(
			unused("count", ev.Count == 0),
			unused("strategy", ev.Strategy == 0),
			unused("latency", ev.Latency == nil),
			unused("strategies", len(ev.Strategies) == 0),
			unused("fallback", ev.Fallback == 0),
		)
	case AddLink:
		if ev.Every != 0 {
			return fail("topology events must be one-shot (every = %d)", ev.Every)
		}
		if ev.Latency == nil {
			return fail("missing latency spec for the new link")
		}
		if _, err := ev.Latency.Build(); err != nil {
			return fmt.Errorf("%w: event %d (%s): %w", ErrInvalid, i, ev.Kind, err)
		}
		for j, s := range ev.Strategies {
			if len(s) == 0 {
				return fail("strategy %d is empty", j)
			}
			for _, r := range s {
				if r < 0 {
					return fail("strategy %d references negative resource %d", j, r)
				}
			}
		}
		return errors.Join(
			unused("count", ev.Count == 0),
			unused("strategy", ev.Strategy == 0),
			unused("resource", ev.Resource == 0),
			unused("factor", ev.Factor == 0),
			unused("fallback", ev.Fallback == 0),
		)
	case RemoveLink:
		if ev.Every != 0 {
			return fail("topology events must be one-shot (every = %d)", ev.Every)
		}
		if ev.Resource < 0 {
			return fail("resource %d must be non-negative", ev.Resource)
		}
		if ev.Fallback < 0 {
			return fail("fallback %d must be non-negative", ev.Fallback)
		}
		return errors.Join(
			unused("count", ev.Count == 0),
			unused("strategy", ev.Strategy == 0),
			unused("factor", ev.Factor == 0),
			unused("latency", ev.Latency == nil),
			unused("strategies", len(ev.Strategies) == 0),
		)
	case "":
		return fail("missing kind")
	default:
		return fail("unknown kind (want arrive, depart, latency-scale, add-link, or remove-link)")
	}
}

// Schedule is a validated, immutable event schedule.
type Schedule struct {
	events []Event
	fns    []latency.Function // pre-built add-link latency functions, by event index
}

// NewSchedule validates the structural invariants of the given events and
// returns a schedule over a copy of them. Events must be sorted by Round
// (non-decreasing) — application order within a round is slice order, and
// the static topology simulation of ValidateFor relies on slice order
// matching fire order. Instance-dependent validation is ValidateFor's job.
func NewSchedule(evts []Event) (*Schedule, error) {
	if len(evts) == 0 {
		return nil, fmt.Errorf("%w: no events", ErrInvalid)
	}
	s := &Schedule{
		events: append([]Event(nil), evts...),
		fns:    make([]latency.Function, len(evts)),
	}
	for i := range s.events {
		ev := &s.events[i]
		if err := ev.validate(i); err != nil {
			return nil, err
		}
		if i > 0 && ev.Round < s.events[i-1].Round {
			return nil, fmt.Errorf("%w: event %d fires at round %d, before event %d (round %d); sort events by round", ErrInvalid, i, ev.Round, i-1, s.events[i-1].Round)
		}
		if ev.Kind == AddLink {
			fn, err := ev.Latency.Build()
			if err != nil {
				return nil, err // unreachable: validate built it already
			}
			s.fns[i] = fn
		}
	}
	return s, nil
}

// Parse decodes a JSON array of events and validates it into a Schedule.
// Unknown fields are rejected.
func Parse(data []byte) (*Schedule, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var evts []Event
	if err := dec.Decode(&evts); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	return NewSchedule(evts)
}

// Len returns the number of events.
func (s *Schedule) Len() int { return len(s.events) }

// Events returns a copy of the schedule's events.
func (s *Schedule) Events() []Event {
	return append([]Event(nil), s.events...)
}

// ActiveAt reports whether any event fires before the given round.
func (s *Schedule) ActiveAt(round int) bool {
	for i := range s.events {
		if s.events[i].activeAt(round) {
			return true
		}
	}
	return false
}

// EachActive calls fn for every event firing before the given round, in
// slice order, stopping at the first error.
func (s *Schedule) EachActive(round int, fn func(Event) error) error {
	return s.EachActiveIndexed(round, func(_ int, ev Event) error { return fn(ev) })
}

// EachActiveIndexed is EachActive with the event's schedule index, for
// callers that report which event fired (journaling, adapters).
func (s *Schedule) EachActiveIndexed(round int, fn func(i int, ev Event) error) error {
	for i := range s.events {
		if s.events[i].activeAt(round) {
			if err := fn(i, s.events[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// ValidateFor checks the schedule against a concrete game by statically
// simulating the topology evolution: resource count, registered strategy
// sets, and retirements are tracked through the events in order, so index
// ranges, fallback eligibility, and churn targeting a later-retired
// strategy are all caught before the run starts. A schedule that passes
// ValidateFor applies without error (ApplyRound's clamping covers the
// remaining state-dependent cases), which is what lets the engine hook
// treat an apply failure as a programming bug.
func (s *Schedule) ValidateFor(g *game.Game) error {
	fail := func(i int, format string, args ...any) error {
		return fmt.Errorf("%w: event %d (%s): %s", ErrInvalid, i, s.events[i].Kind, fmt.Sprintf(format, args...))
	}
	if g.NumClasses() != 1 {
		for i := range s.events {
			if s.events[i].Kind == Arrive || s.events[i].Kind == Depart {
				return fail(i, "population churn requires a single player class, game has %d", g.NumClasses())
			}
		}
	}
	// Simulated topology: strategy resource sets and retirement flags, plus
	// the live resource count.
	numStrats := g.NumStrategies()
	strats := make([][]int, numStrats)
	retired := make([]bool, numStrats)
	for i := range strats {
		strats[i] = g.Strategy(i)
		retired[i] = g.StrategyRetired(i)
	}
	lookup := func(set []int) int {
		// Linear probe over the small simulated registry; canonical order
		// does not matter for set equality here because registered sets are
		// already sorted and event sets are sorted before comparison.
		for id, have := range strats {
			if equalSets(have, set) {
				return id
			}
		}
		return -1
	}
	curM := g.NumResources()
	for i := range s.events {
		ev := &s.events[i]
		switch ev.Kind {
		case Arrive:
			if ev.Strategy >= len(strats) {
				return fail(i, "strategy %d out of range [0,%d)", ev.Strategy, len(strats))
			}
			if retired[ev.Strategy] {
				return fail(i, "strategy %d is retired by an earlier remove-link event", ev.Strategy)
			}
		case Depart:
			if ev.Strategy >= len(strats) {
				return fail(i, "strategy %d out of range [0,%d)", ev.Strategy, len(strats))
			}
		case LatencyScale:
			if ev.Resource >= curM {
				return fail(i, "resource %d out of range [0,%d)", ev.Resource, curM)
			}
		case AddLink:
			curM++
			for j, set := range ev.Strategies {
				sorted := append([]int(nil), set...)
				sortInts(sorted)
				for k := 1; k < len(sorted); k++ {
					if sorted[k] == sorted[k-1] {
						return fail(i, "strategy %d contains resource %d twice", j, sorted[k])
					}
				}
				if sorted[len(sorted)-1] >= curM {
					return fail(i, "strategy %d references resource %d, have %d after this event", j, sorted[len(sorted)-1], curM)
				}
				if id := lookup(sorted); id >= 0 {
					retired[id] = false // re-registration revives
				} else {
					strats = append(strats, sorted)
					retired = append(retired, false)
				}
			}
		case RemoveLink:
			if ev.Resource >= curM {
				return fail(i, "resource %d out of range [0,%d)", ev.Resource, curM)
			}
			if ev.Fallback >= len(strats) {
				return fail(i, "fallback strategy %d out of range [0,%d)", ev.Fallback, len(strats))
			}
			if retired[ev.Fallback] {
				return fail(i, "fallback strategy %d is retired by an earlier remove-link event", ev.Fallback)
			}
			for _, r := range strats[ev.Fallback] {
				if r == ev.Resource {
					return fail(i, "fallback strategy %d uses the removed resource %d", ev.Fallback, ev.Resource)
				}
			}
			for id, set := range strats {
				for _, r := range set {
					if r == ev.Resource {
						retired[id] = true
						break
					}
				}
			}
		}
	}
	// Recurring churn keeps firing after later topology events; arrivals
	// onto a strategy retired by any of them would fail mid-run.
	for i := range s.events {
		ev := &s.events[i]
		if ev.Kind == Arrive && ev.Every > 0 && retired[ev.Strategy] {
			return fail(i, "recurring arrival targets strategy %d, which a later remove-link event retires", ev.Strategy)
		}
	}
	return nil
}

// maxScaleWork bounds the work CheckScaling does — one unit per firing
// round plus two per started periodic event it scans there — so the
// check costs milliseconds for any schedule and round budget.
const maxScaleWork = 1 << 24

// CheckScaling multiplies each link's latency-scale factors in firing
// order over rounds [0, rounds) — the product game.ScaleLatency and
// fluid.Sim.ScaleLatency store for the link — and fails at the first
// product outside (0, +Inf), naming the event, link and round.
//
// Between two start rounds of latency-scale events, the firings repeat
// with a period of the lcm of the started events' Every values. When the
// products at the start of two consecutive periods agree bit for bit,
// every later period up to the next start repeats that one, so the walk
// skips ahead to it. A schedule that needs more than maxScaleWork to check
// is refused.
func (s *Schedule) CheckScaling(rounds int) error {
	var scales []int                   // the latency-scale events that fire within budget, in start order
	slot := make([]int, len(s.events)) // event -> its link's index in prod
	links := map[int]int{}
	for i := range s.events {
		if ev := &s.events[i]; ev.Kind == LatencyScale && ev.Round < rounds {
			scales = append(scales, i)
			if _, ok := links[ev.Resource]; !ok {
				links[ev.Resource] = len(links)
			}
			slot[i] = links[ev.Resource]
		}
	}
	prod := make([]float64, len(links)) // each link's product so far
	for k := range prod {
		prod[k] = 1
	}
	mark := make([]float64, len(links)) // the products at the start of the current period
	fire := func(i, r int) error {
		ev := &s.events[i]
		c := prod[slot[i]]
		p := c * ev.Factor
		if !(p > 0) || math.IsInf(p, 1) {
			return fmt.Errorf("%w: event %d (%s) at round %d: link %d's latency factor compounds to %v × %v = %v, outside (0, +Inf)", ErrInvalid, i, ev.Kind, r, ev.Resource, c, ev.Factor, p)
		}
		prod[slot[i]] = p
		return nil
	}
	var (
		started []int // the periodic events started so far
		next    = 0   // scales[next:] have not started
		start   = -1  // the latest start round
		period  = 1   // lcm of the started Every values, 0 past the budget
		window  = -1  // index of the current period since start
		work    = 0
	)
	for r := 0; r < rounds; r++ {
		end := rounds // the next start round
		if next < len(scales) {
			end = s.events[scales[next]].Round
		}
		nr := end // the next firing round
		for _, i := range started {
			if n, ok := s.events[i].nextFiring(r); ok && n < nr {
				nr = n
			}
		}
		if r = nr; r >= rounds {
			return nil
		}
		if start >= 0 && r < end && period > 0 {
			if w := (r - start - 1) / period; w != window {
				if window >= 0 && w == window+1 && slices.Equal(mark, prod) {
					if end == rounds {
						return nil
					}
					// Skip to the last period that begins before end.
					if last := (end - start - 2) / period; last > w {
						window = last
						r = start + last*period // the loop's r++ makes it that period's first round
						continue
					}
				}
				copy(mark, prod)
				window = w
			}
		}
		for _, i := range started {
			if s.events[i].activeAt(r) {
				if err := fire(i, r); err != nil {
					return err
				}
			}
		}
		for ; next < len(scales) && s.events[scales[next]].Round == r; next++ {
			i := scales[next]
			if err := fire(i, r); err != nil {
				return err
			}
			if every := s.events[i].Every; every > 0 {
				started = append(started, i)
				if period > 0 {
					period = lcmUpTo(period, every, rounds)
				}
			}
			start, window = r, -1
		}
		if work += 1 + 2*len(started); work > maxScaleWork {
			return fmt.Errorf("%w: latency-scale events within the %d-round budget take more than %d steps to check", ErrInvalid, rounds, maxScaleWork)
		}
	}
	return nil
}

// nextFiring returns the first round ≥ r the event fires before, and
// false if there is none.
func (ev *Event) nextFiring(r int) (int, bool) {
	if r <= ev.Round {
		return ev.Round, true
	}
	if ev.Every <= 0 {
		return 0, false
	}
	gap := (ev.Every - (r-ev.Round)%ev.Every) % ev.Every
	if gap > math.MaxInt-r {
		return 0, false
	}
	return r + gap, true
}

// lcmUpTo returns the least common multiple of a and b, or 0 when it
// exceeds limit.
func lcmUpTo(a, b, limit int) int {
	x, y := a, b
	for y != 0 {
		x, y = y, x%y
	}
	if a/x > limit/b {
		return 0
	}
	return a / x * b
}

// FiringObserver receives each successfully applied event firing: the
// round it fired before, the event's index in the schedule, and its kind.
// Observers run synchronously after the mutation, in schedule order, so a
// journal of firings reads in exactly the order the state saw them. They
// must not mutate the state.
type FiringObserver func(round, index int, kind Kind)

// ApplyRound applies every event firing before the given round, in slice
// order, and returns the number of events applied plus the exact
// accumulated potential change ΔΦ. Departures clamp to the players
// available (and to leaving at least one player); all other failures
// indicate a schedule that was not validated against this instance.
func (s *Schedule) ApplyRound(round int, st *game.State) (applied int, dphi float64, err error) {
	return s.applyRound(round, st, nil)
}

func (s *Schedule) applyRound(round int, st *game.State, obs []FiringObserver) (applied int, dphi float64, err error) {
	for i := range s.events {
		ev := &s.events[i]
		if !ev.activeAt(round) {
			continue
		}
		d, err := s.apply(i, ev, st)
		if err != nil {
			return applied, dphi, fmt.Errorf("%w: event %d (%s) at round %d: %w", ErrInvalid, i, ev.Kind, round, err)
		}
		applied++
		dphi += d
		for _, o := range obs {
			o(round, i, ev.Kind)
		}
	}
	return applied, dphi, nil
}

func (s *Schedule) apply(i int, ev *Event, st *game.State) (float64, error) {
	switch ev.Kind {
	case Arrive:
		return st.AddPlayers(ev.Strategy, ev.Count)
	case Depart:
		count := ev.Count
		if have := st.Count(ev.Strategy); int64(count) > have {
			count = int(have)
		}
		if n := st.Game().NumPlayers(); count >= n {
			count = n - 1
		}
		if count <= 0 {
			return 0, nil
		}
		return st.RemovePlayers(ev.Strategy, count)
	case LatencyScale:
		return st.ScaleLatency(ev.Resource, ev.Factor)
	case AddLink:
		if _, err := st.AddResource(game.Resource{
			Name:    fmt.Sprintf("link%d", st.Game().NumResources()),
			Latency: s.fns[i],
		}); err != nil {
			return 0, err
		}
		g := st.Game()
		for _, set := range ev.Strategies {
			sid, isNew, err := g.RegisterStrategy(set)
			if err != nil {
				return 0, err
			}
			if !isNew {
				if err := g.ReviveStrategy(sid); err != nil {
					return 0, err
				}
			}
		}
		st.EnsureStrategies()
		return 0, nil
	case RemoveLink:
		dphi, _, err := st.RetireStrategiesUsing(ev.Resource, ev.Fallback)
		return dphi, err
	default:
		return 0, fmt.Errorf("unknown kind %q", ev.Kind)
	}
}

// Hook adapts the schedule to the engine's pre-round hook signature
// (core.PreRoundHook). The schedule must have been checked with
// ValidateFor against the engine's instance: an application error at this
// point is a programming bug (an unvalidated schedule) and panics, since
// the hook signature has no error channel and silently skipping a
// scheduled mutation would corrupt the experiment. Optional firing
// observers are notified after each applied event; passing none keeps the
// hook identical to the unobserved one.
func (s *Schedule) Hook(obs ...FiringObserver) func(round int, st *game.State) (float64, bool) {
	return func(round int, st *game.State) (float64, bool) {
		if !s.ActiveAt(round) {
			return 0, false
		}
		applied, dphi, err := s.applyRound(round, st, obs)
		if err != nil {
			panic(fmt.Sprintf("events: unvalidated schedule failed at round %d: %v", round, err))
		}
		return dphi, applied > 0
	}
}

// KindInfo describes one event kind for CLI listings.
type KindInfo struct {
	Name string
	Desc string
}

// Kinds lists the event kinds with one-line descriptions, in the order
// cmd/sweep -list prints them.
func Kinds() []KindInfo {
	return []KindInfo{
		{string(AddLink), "append a new link and register strategies over it (one-shot)"},
		{string(Arrive), "add count players to a strategy (churn source; rate via every)"},
		{string(Depart), "remove up to count players from a strategy (churn sink; clamped)"},
		{string(LatencyScale), "multiply a link's latency function by factor (rush hour)"},
		{string(RemoveLink), "retire strategies using a link; players move to fallback (one-shot)"},
	}
}

// equalSets reports whether two sorted resource lists are identical.
func equalSets(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sortInts sorts a small resource list in place (insertion sort — event
// strategies are tiny).
func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}
