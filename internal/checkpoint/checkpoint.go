// Package checkpoint serializes the state of the two checkpointable
// backends, the exact engine and the fluid sim, into versioned binary
// snapshots and restores it so a resumed run is bit-identical to an
// uninterrupted one — the determinism contract of DESIGN.md §4 extended
// across process restarts (§13 documents the format and the resume
// argument).
//
// A snapshot captures exactly the trajectory state a fresh engine cannot
// re-derive from the scenario spec:
//
//   - exact engine: the assignment vector, the FULL interned strategy
//     table in ID order (exploration and add-link events register
//     strategies at runtime; IDs encode registration order, which the
//     coordinate-derived PRNG draws depend on), the retirement flags, the
//     engine's round counter, its incrementally maintained potential
//     (raw bits — a recomputation can differ in the last ulp), and the
//     lifetime move count;
//   - fluid sim: the mass vector, round counter, incremental potential,
//     last-round migration mass, and each link's latency wrappers — its
//     population target and its one compounded scale factor (see
//     fluid.WrapChains — churn retargets and rush-hour scaling are
//     in-place mutations that cannot be replayed structurally).
//
// NOT captured: PRNG state (decision draws derive statelessly from
// (seed, round, player), so the round counter is sufficient), RoundView /
// epoch caches (a fresh full Sync is value-identical), integrator
// workspaces (overwritten every step), and the game's static topology
// (rebuilt from the spec; latency-structural event effects are replayed
// by RestoreEngine/RestoreFluid).
//
// QuietStreak carries the trailing count of executed rounds with zero
// movers, so a resumed run can prime a fresh "quiet" stop condition to
// fire at exactly the round the uninterrupted run would have stopped.
package checkpoint

import (
	"errors"
	"fmt"

	"congame/internal/core"
	"congame/internal/events"
	"congame/internal/fluid"
	"congame/internal/game"
)

// ErrInvalid reports a snapshot that cannot be decoded or does not match
// the instance it is being restored onto.
var ErrInvalid = errors.New("checkpoint: invalid")

// Kind identifies the backend a snapshot belongs to.
type Kind uint8

// The backend kinds. Kind 2 was the weighted-engine snapshot; decoders
// reject it as unknown, and a new kind must not reuse it, or an old
// kind-2 snapshot left in a manifest would decode as the new payload.
const (
	Exact Kind = 1 // core.Engine over game.State
	Fluid Kind = 3 // fluid.Sim
)

func (k Kind) String() string {
	switch k {
	case Exact:
		return "exact"
	case Fluid:
		return "fluid"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Snapshot is one backend's checkpointed trajectory state. Which fields
// are populated depends on Kind; Encode writes only the populated ones.
type Snapshot struct {
	Kind Kind
	// Round is the number of completed rounds.
	Round int64
	// QuietStreak is the trailing count of executed rounds with zero
	// movers at capture time (stop-condition priming; see scenario).
	QuietStreak int64

	// Exact fields.
	Moves      int64     // lifetime TotalMoves
	Phi        float64   // incrementally maintained potential (raw bits)
	Assign     []int32   // player -> strategy
	Strategies [][]int32 // full interned strategy table in ID order
	Retired    []bool    // strategy -> retired flag

	// Fluid fields.
	Mass     []float64        // strategy-mass vector (raw bits)
	MoveMass float64          // last-round migration mass
	Wraps    []fluid.LinkWrap // per-link population target and scale factor
}

// CaptureEngine snapshots an exact engine between rounds. quietStreak is
// the trailing count of executed rounds with Movers == 0 (pass 0 when the
// run's stop condition is stateless). The engine must be quiescent (no
// Step in flight).
func CaptureEngine(e *core.Engine, quietStreak int) *Snapshot {
	st := e.State()
	g := st.Game()
	s := &Snapshot{
		Kind:        Exact,
		Round:       int64(e.Round()),
		QuietStreak: int64(quietStreak),
		Moves:       int64(e.TotalMoves()),
		Phi:         e.Potential(),
		Assign:      append([]int32(nil), st.AssignmentView()...),
	}
	n := g.NumStrategies()
	s.Strategies = make([][]int32, n)
	s.Retired = make([]bool, n)
	for i := 0; i < n; i++ {
		s.Strategies[i] = append([]int32(nil), g.StrategyView(i)...)
		s.Retired[i] = g.StrategyRetired(i)
	}
	return s
}

// CaptureFluid snapshots a fluid simulator between rounds.
func CaptureFluid(sim *fluid.Sim, quietStreak int) *Snapshot {
	return &Snapshot{
		Kind:        Fluid,
		Round:       int64(sim.Round()),
		QuietStreak: int64(quietStreak),
		Phi:         sim.Potential(),
		MoveMass:    sim.MigrationMass(),
		Mass:        append([]float64(nil), sim.Mass()...),
		Wraps:       sim.WrapChains(),
	}
}

// RestoreEngine overlays an exact snapshot onto a freshly built engine
// (the same spec, cell, and replication seeds that produced the
// checkpointed run). The restore pipeline:
//
//  1. Replay the schedule's latency-structural effects for every round the
//     checkpointed run executed: latency-scale events compound the same
//     factors in the same order (game.ScaleLatency recomputes ν
//     bit-identical to from-scratch construction) and add-link events
//     append the same resources. Churn and remove-link events are NOT replayed — their
//     effects live entirely in the assignment and retirement flags, which
//     the snapshot overlays wholesale.
//  2. Register the snapshot's runtime-discovered strategies in ID order
//     (the spec-built prefix is verified entry by entry), so interning,
//     CSR storage, and ν values are rebuilt deterministically.
//  3. Retire the flagged strategies.
//  4. Overwrite the assignment (game.State.Reassign — fresh integer
//     summation of counts and loads, bit-identical to an uninterrupted
//     run's bookkeeping).
//  5. Restore the engine's round counter, potential bits, and move count.
//
// A snapshot from a different spec or seed fails the prefix verification
// or the Reassign validation rather than silently forking the trajectory.
func RestoreEngine(e *core.Engine, s *Snapshot, sched *events.Schedule) error {
	if s.Kind != Exact {
		return fmt.Errorf("%w: restoring %s snapshot onto an exact engine", ErrInvalid, s.Kind)
	}
	st := e.State()
	g := st.Game()
	if err := replayStructural(g, sched, int(s.Round)); err != nil {
		return err
	}
	built := g.NumStrategies()
	if built > len(s.Strategies) {
		return fmt.Errorf("%w: instance has %d strategies, snapshot has %d — spec mismatch", ErrInvalid, built, len(s.Strategies))
	}
	for i := 0; i < built; i++ {
		if !equalInt32(g.StrategyView(i), s.Strategies[i]) {
			return fmt.Errorf("%w: strategy %d differs between instance and snapshot — spec mismatch", ErrInvalid, i)
		}
	}
	for i := built; i < len(s.Strategies); i++ {
		set := make([]int, len(s.Strategies[i]))
		for j, r := range s.Strategies[i] {
			set[j] = int(r)
		}
		id, isNew, err := g.RegisterStrategy(set)
		if err != nil {
			return fmt.Errorf("%w: re-registering strategy %d: %w", ErrInvalid, i, err)
		}
		if id != i || !isNew {
			return fmt.Errorf("%w: strategy %d re-registered as id %d (new=%v) — snapshot table is not in registration order", ErrInvalid, i, id, isNew)
		}
	}
	for i, retired := range s.Retired {
		if retired && !g.StrategyRetired(i) {
			if err := g.RetireStrategy(i); err != nil {
				return fmt.Errorf("%w: retiring strategy %d: %w", ErrInvalid, i, err)
			}
		}
	}
	if err := st.Reassign(s.Assign); err != nil {
		return fmt.Errorf("%w: %w", ErrInvalid, err)
	}
	return e.Restore(int(s.Round), s.Phi, int(s.Moves))
}

// replayStructural applies the latency-structural effects of every event
// firing before rounds [0, rounds) directly to the game: latency-scale
// compounds the same factors in fire order, add-link appends the
// same resources (without registering the event's strategies — the
// snapshot's full table registration handles every runtime strategy in ID
// order). State-dependent events (arrive, depart, remove-link) are
// skipped; their effects are overlaid from the snapshot.
func replayStructural(g *game.Game, sched *events.Schedule, rounds int) error {
	if sched == nil {
		return nil
	}
	for r := 0; r < rounds; r++ {
		err := sched.EachActive(r, func(ev events.Event) error {
			switch ev.Kind {
			case events.LatencyScale:
				return g.ScaleLatency(ev.Resource, ev.Factor)
			case events.AddLink:
				fn, err := ev.Latency.Build()
				if err != nil {
					return err
				}
				_, err = g.AddResource(game.Resource{
					Name:    fmt.Sprintf("link%d", g.NumResources()),
					Latency: fn,
				})
				return err
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("%w: replaying events at round %d: %w", ErrInvalid, r, err)
		}
	}
	return nil
}

// RestoreFluid overlays a fluid snapshot onto a freshly built simulator:
// the schedule's add-link events are replayed for every checkpointed round
// (buffer growth only), then the mass vector, counters, and per-link
// latency wrappers are restored raw (fluid.Sim.Restore).
func RestoreFluid(sim *fluid.Sim, s *Snapshot, sched *events.Schedule) error {
	if s.Kind != Fluid {
		return fmt.Errorf("%w: restoring %s snapshot onto a fluid sim", ErrInvalid, s.Kind)
	}
	if sched != nil {
		for r := 0; r < int(s.Round); r++ {
			err := sched.EachActive(r, func(ev events.Event) error {
				if ev.Kind != events.AddLink {
					return nil
				}
				fn, err := ev.Latency.Build()
				if err != nil {
					return err
				}
				return sim.AddLink(fn)
			})
			if err != nil {
				return fmt.Errorf("%w: replaying events at round %d: %w", ErrInvalid, r, err)
			}
		}
	}
	if err := sim.Restore(int(s.Round), s.Mass, s.Phi, s.MoveMass, s.Wraps); err != nil {
		return fmt.Errorf("%w: %w", ErrInvalid, err)
	}
	return nil
}

// equalInt32 reports whether two int32 slices are identical.
func equalInt32(a, b []int32) bool {
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
