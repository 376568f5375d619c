// Package dynamics unifies the repo's dynamics families behind one
// interface. The paper's experiments compare the concurrent IMITATION
// PROTOCOL (core.Engine), its weighted-player extension (weighted.Engine),
// the sequential baselines of Section 3.2 (package baseline), and the
// mean-field fluid limit of the protocol (fluid.Sim); each historically
// exposed its own run API. This package defines the common Dynamics
// interface — Step, Run, and potential/round accessors over core's
// RoundStats/RunResult vocabulary — plus thin adapters for every family,
// and the optional capability interfaces (Observable, Evented, PhaseTimed,
// Checkpointable) through which callers reach every family's hooks
// without naming the adapter types.
//
// The adapters are deliberately transparent: each delegates to the wrapped
// implementation without re-deriving randomness or re-ordering work, so a
// run through an adapter is bit-identical to a run against the underlying
// engine. That transparency is what lets internal/runner fan replications
// of *any* family out across a worker pool while reproducing the exact
// tables the hand-rolled per-family loops produced (see DESIGN.md §6).
package dynamics

import (
	"congame/internal/checkpoint"
	"congame/internal/core"
	"congame/internal/events"
	"congame/internal/obs"
)

// RoundStats summarizes one executed round (or, for sequential dynamics,
// one activation batch). It is core.RoundStats, shared by every family;
// the adapters document which fields they populate. Adapters that cannot
// track the potential cheaply report NaN (use Dynamics.Potential for
// ground truth), and the fluid adapter reports Players as the rounded
// absolute population for FromGame-scaled systems and 0 for hand-built
// ones.
type RoundStats = core.RoundStats

// RunResult summarizes a full Run. It is core.RunResult; TotalMoves is
// reported where the family counts moves (0 for the fluid family and the
// Goldberg baseline).
type RunResult = core.RunResult

// StopCondition inspects the dynamics after each round and reports whether
// the run should stop. Conditions receive the Dynamics itself so that
// family-specific predicates (equilibrium checks on snapshots, weighted
// Nash tests) can type-assert down to the adapter they understand; see
// FromCore and WeightedNash. Conditions must treat the dynamics as
// read-only.
type StopCondition func(d Dynamics, r RoundStats) bool

// Observable is implemented by dynamics that can attach a per-round
// observer (e.g. a trace.Recorder) after construction. All three adapter
// families implement it: the core-engine adapter forwards to
// core.Engine.AddObserver, while the sequential and weighted adapters
// invoke observers themselves after every executed Step. Repeated calls
// attach ADDITIONAL observers on every family (there is no detach).
// Observers see the same RoundStats the Step returns.
type Observable interface {
	SetObserver(obs core.RoundObserver)
}

// Evented is implemented by dynamics that apply an event schedule
// (internal/events) before each round: the exact engine and the fluid
// backend. SetEvents validates the schedule against the instance; a nil
// schedule removes it. Firing observers are notified after each applied
// event and never change the trajectory.
type Evented interface {
	SetEvents(s *events.Schedule, obs ...events.FiringObserver) error
}

// PhaseTimed is implemented by dynamics whose rounds time their phases:
// all three engine-backed families. Phases names the backend and its
// phase slots; SetPhaseTimer installs (or, with nil, removes) the hook
// that receives each completed round's index and phase durations,
// translated from the engine's own timings. With no timer installed a
// round takes no timestamps.
type PhaseTimed interface {
	Phases() obs.Phases
	SetPhaseTimer(fn obs.PhaseTimer)
}

// Checkpointable is implemented by dynamics that snapshot between rounds
// and resume bit-identically (internal/checkpoint): the exact engine and
// the fluid backend. Capture records the trajectory state plus the
// trailing zero-migration streak; Restore overlays a snapshot onto a
// freshly built instance of the same spec and replication, replaying the
// schedule SetEvents installed; TotalMoves is the lifetime move count Run
// would report.
type Checkpointable interface {
	Capture(quietStreak int) *checkpoint.Snapshot
	Restore(s *checkpoint.Snapshot) error
	TotalMoves() int
}

// Dynamics is the unified run API over all dynamics families.
type Dynamics interface {
	// Step executes one round (sequential dynamics: one activation batch)
	// and returns its statistics.
	Step() RoundStats
	// Run executes rounds until the stop condition fires or maxRounds
	// rounds have been executed. A nil stop runs exactly maxRounds rounds
	// (sequential dynamics additionally stop when absorbed). The stop
	// condition is also evaluated once before the first round, so an
	// already-stable state reports Converged with zero rounds.
	Run(maxRounds int, stop StopCondition) RunResult
	// Round returns the number of completed rounds.
	Round() int
	// Potential returns the current potential (NaN where the family has
	// none, e.g. weighted games with non-linear latencies).
	Potential() float64
}
