package game

// Dynamic-instance operations: population churn (player arrivals and
// departures), latency rescaling ("rush hour"), and topology mutation
// (adding links, removing links by retiring the strategies that use them).
// These are the primitives the event schedule of internal/events drives
// between rounds; DESIGN.md §10 gives the architecture and the
// bit-identity argument.
//
// All operations mutate the game in place, between rounds, on the engine
// goroutine — the same serialization contract as strategy registration.
// Because the game is shared by every State cloned from it, dynamic
// operations must only be applied when the acting State is the game's sole
// live state (engine-owned); clones taken for replay or inspection become
// stale the moment the population or topology changes.
//
// Two protocol parameters are deliberately frozen at construction:
//
//   - the elasticity bound d: latency amplification (ScaleLatency) provably
//     preserves elasticity — (c·ℓ)'·x/(c·ℓ) = ℓ'·x/ℓ — and new links
//     (AddResource) are the caller's responsibility to keep within the
//     existing bound. A from-scratch rebuild must pass Config.Elasticity
//     explicitly to reproduce the same damping.
//   - the ν load range ⌈d⌉ (SlopeLoad): it only clamps against n at
//     construction, so churn that shrinks n below ⌈d⌉ would make a rebuilt
//     game disagree; the event layer keeps populations far above that.
//
// Per-strategy ν values, by contrast, are NOT frozen: ScaleLatency
// recomputes ν_P for every strategy containing the rescaled link, summing
// in CSR order so the values match a from-scratch construction bit for bit.

import (
	"fmt"

	"congame/internal/latency"
)

// StrategyRetired reports whether the given strategy has been retired by a
// topology event. Retired strategies keep their ID, interned resource list
// and CSR slot (so historical assignments and the reverse index stay
// valid), but are excluded from ν, from uniform strategy sampling, and
// carry no players.
func (g *Game) StrategyRetired(s int) bool { return g.retired[s] }

// NumRetired returns the number of retired strategies.
func (g *Game) NumRetired() int { return g.numRetired }

// RetireStrategy marks a strategy as retired. Retiring an already-retired
// strategy is a no-op; retiring the last enabled strategy is an error, as
// the game would have no strategy left to play.
func (g *Game) RetireStrategy(s int) error {
	if s < 0 || s >= g.NumStrategies() {
		return fmt.Errorf("%w: retire strategy %d out of range [0,%d)", ErrInvalid, s, g.NumStrategies())
	}
	if g.retired[s] {
		return nil
	}
	if g.numRetired == g.NumStrategies()-1 {
		return fmt.Errorf("%w: cannot retire strategy %d, it is the last enabled strategy", ErrInvalid, s)
	}
	g.retired[s] = true
	g.numRetired++
	return nil
}

// ReviveStrategy clears a strategy's retired mark. Reviving an enabled
// strategy is a no-op.
func (g *Game) ReviveStrategy(s int) error {
	if s < 0 || s >= g.NumStrategies() {
		return fmt.Errorf("%w: revive strategy %d out of range [0,%d)", ErrInvalid, s, g.NumStrategies())
	}
	if g.retired[s] {
		g.retired[s] = false
		g.numRetired--
	}
	return nil
}

// ScaleLatency multiplies resource e's latency function by c and
// recomputes ν_P for every strategy containing e. Firings compound into
// one stored factor: the resource's function becomes a single
// latency.Amplified around its unscaled function, carrying the product of
// every factor in firing order (DESIGN.md §10), so a later evaluation
// costs the same however many firings came before. A product outside
// (0, +Inf) is refused with ErrInvalid and leaves the game untouched.
// The ν recomputation sums per-resource slope bounds in CSR order —
// exactly the order registerCanonical uses — so the updated ν values are
// bit-identical to those of a game constructed from scratch with the
// amplified function.
func (g *Game) ScaleLatency(e int, c float64) error {
	if e < 0 || e >= len(g.resources) {
		return fmt.Errorf("%w: scale resource %d out of range [0,%d)", ErrInvalid, e, len(g.resources))
	}
	amp, err := latency.NewAmplified(g.resources[e].Latency, g.scale[e]*c)
	if err != nil {
		return fmt.Errorf("%w: scaling resource %d by %v compounds its latency factor %v: %w", ErrInvalid, e, c, g.scale[e], err)
	}
	g.scale[e] = amp.C
	g.fns[e] = amp
	for _, sid := range g.resStrats[e] {
		s := int(sid)
		nu := 0.0
		for _, r := range g.strat(s) {
			nu += latency.SlopeBound(g.fns[r], g.slopeLoad)
		}
		g.stratNu[s] = nu
	}
	return nil
}

// AddResource appends a new resource (a new link) and returns its index.
// The new resource starts with no registered strategies using it; callers
// register strategies over it afterwards. The elasticity bound d is NOT
// re-derived — the caller must keep the new function's elasticity within
// the existing bound for the protocol guarantees to carry over.
func (g *Game) AddResource(r Resource) (int, error) {
	if r.Latency == nil {
		return 0, fmt.Errorf("%w: added resource has nil latency function", ErrInvalid)
	}
	id := len(g.resources)
	g.resources = append(g.resources, r)
	g.fns = append(g.fns, r.Latency)
	g.scale = append(g.scale, 1)
	g.resStrats = append(g.resStrats, nil)
	return id, nil
}

// AddPlayers adds count new players to strategy s (a population arrival)
// and returns the exact potential change ΔΦ = Σ over the arrivals of the
// join latency at the moment each lands. New players take the highest
// indices n, n+1, …; only single-class (symmetric) games support churn.
func (st *State) AddPlayers(s, count int) (float64, error) {
	g := st.g
	switch {
	case count <= 0:
		return 0, fmt.Errorf("%w: arrival count %d, need > 0", ErrInvalid, count)
	case g.numClasses != 1:
		return 0, fmt.Errorf("%w: population churn requires a single player class, have %d", ErrInvalid, g.numClasses)
	case s < 0 || s >= g.NumStrategies():
		return 0, fmt.Errorf("%w: arrival strategy %d out of range [0,%d)", ErrInvalid, s, g.NumStrategies())
	case g.retired[s]:
		return 0, fmt.Errorf("%w: arrival strategy %d is retired", ErrInvalid, s)
	}
	st.EnsureStrategies()
	res := g.strat(s)
	dphi := 0.0
	for i := 0; i < count; i++ {
		dphi += st.JoinLatency(s)
		st.assign = append(st.assign, int32(s))
		for _, e := range res {
			st.load[e]++
		}
	}
	st.counts[s] += int64(count)
	base := g.n
	g.n += count
	for p := base; p < g.n; p++ {
		g.classOf = append(g.classOf, 0)
		g.classMembers[0] = append(g.classMembers[0], int32(p))
	}
	st.mutEpoch++
	for _, e := range res {
		st.resEpoch[e] = st.mutEpoch
	}
	return dphi, nil
}

// RemovePlayers removes count players from strategy s (a population
// departure) and returns the exact potential change ΔΦ = −Σ over the
// departures of the strategy latency at the moment each leaves.
//
// The departing players are, deterministically, the count highest-indexed
// players assigned to s; each vacated slot is filled by the then-last
// player (swap-remove), so surviving players keep dense indices and the
// reindexing is a pure function of the assignment vector. At least one
// player must remain in the game.
func (st *State) RemovePlayers(s, count int) (float64, error) {
	g := st.g
	switch {
	case count <= 0:
		return 0, fmt.Errorf("%w: departure count %d, need > 0", ErrInvalid, count)
	case g.numClasses != 1:
		return 0, fmt.Errorf("%w: population churn requires a single player class, have %d", ErrInvalid, g.numClasses)
	case s < 0 || s >= g.NumStrategies():
		return 0, fmt.Errorf("%w: departure strategy %d out of range [0,%d)", ErrInvalid, s, g.NumStrategies())
	}
	st.EnsureStrategies()
	if int64(count) > st.counts[s] {
		return 0, fmt.Errorf("%w: departure of %d players from strategy %d, which has %d", ErrInvalid, count, s, st.counts[s])
	}
	if count >= g.n {
		return 0, fmt.Errorf("%w: departure of %d players would empty the %d-player game", ErrInvalid, count, g.n)
	}
	res := g.strat(s)
	dphi := 0.0
	for i := 0; i < count; i++ {
		dphi -= st.StrategyLatency(s)
		for _, e := range res {
			st.load[e]--
		}
	}
	scan := len(st.assign) - 1
	for removed := 0; removed < count; removed++ {
		for st.assign[scan] != int32(s) {
			scan--
		}
		last := len(st.assign) - 1
		st.assign[scan] = st.assign[last]
		st.assign = st.assign[:last]
		if scan > last-1 {
			scan = last - 1
		}
	}
	st.counts[s] -= int64(count)
	g.n -= count
	g.classOf = g.classOf[:g.n]
	g.classMembers[0] = g.classMembers[0][:g.n]
	st.mutEpoch++
	for _, e := range res {
		st.resEpoch[e] = st.mutEpoch
	}
	return dphi, nil
}

// ScaleLatency amplifies resource e's latency function by the factor c on
// the underlying game (Game.ScaleLatency), stamps e's mutation epoch so
// incremental views refresh it, and returns the exact potential change
// ΔΦ = (c−1)·Σ_{i=1..x_e} ℓ_e(i): x_e evaluations of the link's one-layer
// function.
func (st *State) ScaleLatency(e int, c float64) (float64, error) {
	g := st.g
	if e < 0 || e >= len(g.resources) {
		return 0, fmt.Errorf("%w: scale resource %d out of range [0,%d)", ErrInvalid, e, len(g.resources))
	}
	sum := 0.0
	fn := g.fns[e]
	for i := int64(1); i <= st.load[e]; i++ {
		sum += fn.Value(float64(i))
	}
	if err := g.ScaleLatency(e, c); err != nil {
		return 0, err
	}
	st.mutEpoch++
	st.resEpoch[e] = st.mutEpoch
	return (c - 1) * sum, nil
}

// AddResource appends a new link to the underlying game and grows the
// state's load and epoch vectors. The new link starts empty (load 0, ΔΦ =
// 0); its epoch is stamped so incremental views notice the topology change
// and rebuild.
func (st *State) AddResource(r Resource) (int, error) {
	id, err := st.g.AddResource(r)
	if err != nil {
		return 0, err
	}
	st.load = append(st.load, 0)
	st.resEpoch = append(st.resEpoch, 0)
	st.mutEpoch++
	st.resEpoch[id] = st.mutEpoch
	return id, nil
}

// RetireStrategiesUsing removes link e from play: every enabled strategy
// containing e has its players migrated (in ascending player order, via
// Move) to the fallback strategy, then is retired. The link itself keeps
// its index and latency function but ends with zero load. The fallback
// must be enabled and must not contain e. It returns the exact accumulated
// ΔΦ of the migrations and the number of players moved.
func (st *State) RetireStrategiesUsing(e, fallback int) (float64, int, error) {
	g := st.g
	switch {
	case e < 0 || e >= len(g.resources):
		return 0, 0, fmt.Errorf("%w: remove resource %d out of range [0,%d)", ErrInvalid, e, len(g.resources))
	case fallback < 0 || fallback >= g.NumStrategies():
		return 0, 0, fmt.Errorf("%w: fallback strategy %d out of range [0,%d)", ErrInvalid, fallback, g.NumStrategies())
	case g.retired[fallback]:
		return 0, 0, fmt.Errorf("%w: fallback strategy %d is retired", ErrInvalid, fallback)
	}
	for _, r := range g.strat(fallback) {
		if int(r) == e {
			return 0, 0, fmt.Errorf("%w: fallback strategy %d uses the removed resource %d", ErrInvalid, fallback, e)
		}
	}
	st.EnsureStrategies()
	dphi := 0.0
	moved := 0
	for _, sid := range g.resStrats[e] {
		s := int(sid)
		if g.retired[s] {
			continue
		}
		for p := 0; p < len(st.assign) && st.counts[s] > 0; p++ {
			if int(st.assign[p]) == s {
				dphi += st.Move(p, fallback)
				moved++
			}
		}
		if err := g.RetireStrategy(s); err != nil {
			return dphi, moved, err
		}
	}
	return dphi, moved, nil
}
