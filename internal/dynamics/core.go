package dynamics

import (
	"congame/internal/checkpoint"
	"congame/internal/core"
	"congame/internal/events"
	"congame/internal/game"
	"congame/internal/obs"
)

// Engine adapts a *core.Engine to the Dynamics interface. Step and Run
// delegate directly, so trajectories, stop-condition evaluation order
// (including the pre-run probe and the lazily built snapshot), and
// RunResults are bit-identical to driving the engine without the adapter.
type Engine struct {
	e *core.Engine
	// sched is the schedule SetEvents installed, which Restore replays.
	sched *events.Schedule
	// snap is the lazily refreshed snapshot core.Engine.Run hands to its
	// stop condition, stashed for the duration of each stop evaluation so
	// FromCore-style conditions query the cached RoundView tables instead
	// of forcing a rebuild.
	snap game.Snapshot
}

var (
	_ Dynamics       = (*Engine)(nil)
	_ Observable     = (*Engine)(nil)
	_ Evented        = (*Engine)(nil)
	_ PhaseTimed     = (*Engine)(nil)
	_ Checkpointable = (*Engine)(nil)
)

// corePhases names core.StepTimings' phases in slot order.
var corePhases = obs.Phases{Backend: "core", Names: []string{"pre_round", "sync", "decide", "apply", "step"}}

// FromEngine wraps a concurrent engine.
func FromEngine(e *core.Engine) *Engine {
	return &Engine{e: e}
}

// Engine returns the wrapped engine.
func (a *Engine) Engine() *core.Engine { return a.e }

// SetObserver implements Observable by registering the observer with the
// wrapped engine; it sees every round stepped from now on.
func (a *Engine) SetObserver(obs core.RoundObserver) { a.e.AddObserver(obs) }

// SetEvents validates the event schedule against the engine's instance
// and installs it as the engine's pre-round hook, so scheduled mutations
// (churn, latency shifts, topology events) apply before each round's
// decide phase. A nil schedule removes the hook. Optional firing
// observers are notified after each applied event (journaling); they run
// on the engine goroutine and never change the trajectory.
func (a *Engine) SetEvents(s *events.Schedule, obs ...events.FiringObserver) error {
	if s == nil {
		a.e.SetPreRound(nil)
		a.sched = nil
		return nil
	}
	if err := s.ValidateFor(a.e.State().Game()); err != nil {
		return err
	}
	a.e.SetPreRound(s.Hook(obs...))
	a.sched = s
	return nil
}

// Phases implements PhaseTimed: the core.StepTimings phases.
func (a *Engine) Phases() obs.Phases { return corePhases }

// SetPhaseTimer implements PhaseTimed by installing an engine step timer
// that translates core.StepTimings into the obs phase record.
func (a *Engine) SetPhaseTimer(fn obs.PhaseTimer) {
	if fn == nil {
		a.e.SetStepTimer(nil)
		return
	}
	a.e.SetStepTimer(func(s core.RoundStats, t core.StepTimings) {
		fn(s.Round, obs.PhaseTimes{t.PreRound, t.Sync, t.Decide, t.Apply, t.Step})
	})
}

// Capture implements Checkpointable.
func (a *Engine) Capture(quietStreak int) *checkpoint.Snapshot {
	return checkpoint.CaptureEngine(a.e, quietStreak)
}

// Restore implements Checkpointable (see checkpoint.RestoreEngine).
func (a *Engine) Restore(s *checkpoint.Snapshot) error {
	return checkpoint.RestoreEngine(a.e, s, a.sched)
}

// TotalMoves implements Checkpointable: the engine's lifetime move count.
func (a *Engine) TotalMoves() int { return a.e.TotalMoves() }

// State returns the engine's live state.
func (a *Engine) State() *game.State { return a.e.State() }

// Round returns the number of completed rounds.
func (a *Engine) Round() int { return a.e.Round() }

// Potential returns the incrementally maintained Rosenthal potential.
func (a *Engine) Potential() float64 { return a.e.Potential() }

// CurrentSnapshot returns the snapshot a stop condition should query:
// during Run it is the engine's lazily refreshed per-round snapshot;
// outside Run it is a freshly rebuilt RoundView.
func (a *Engine) CurrentSnapshot() game.Snapshot {
	if a.snap != nil {
		return a.snap
	}
	return a.e.Snapshot()
}

// Step executes one concurrent round.
func (a *Engine) Step() RoundStats { return a.e.Step() }

// Run delegates to core.Engine.Run, translating the unified stop condition
// into a core.StopCondition on the fly.
func (a *Engine) Run(maxRounds int, stop StopCondition) RunResult {
	var cs core.StopCondition
	if stop != nil {
		cs = func(v game.Snapshot, r core.RoundStats) bool {
			a.snap = v
			fired := stop(a, r)
			a.snap = nil
			return fired
		}
	}
	return a.e.Run(maxRounds, cs)
}
