package dynamics

import (
	"math"

	"congame/internal/core"
	"congame/internal/obs"
	"congame/internal/weighted"
)

// Weighted adapts a *weighted.Engine to the Dynamics interface. Run
// reproduces weighted.Engine.Run's semantics exactly — the stop condition
// is probed once before the first round and after every round — so
// Run(maxRounds, WeightedNash(eps)) returns the same (rounds, converged)
// pair as the engine's own Run(maxRounds, eps).
type Weighted struct {
	e *weighted.Engine
	// slopes caches the per-link slopes of the exact weighted linear
	// potential, extracted once at wrap time (the game is immutable); nil
	// when some latency is non-linear, in which case potentials report
	// NaN. Caching kills the per-round type-switch fold and allocation
	// LinearPotential would otherwise pay inside every Step.
	slopes []float64
	obs    []core.RoundObserver
}

var (
	_ Dynamics   = (*Weighted)(nil)
	_ Observable = (*Weighted)(nil)
	_ PhaseTimed = (*Weighted)(nil)
)

// weightedPhases names weighted.StepTimings' phases in slot order; the
// snapshot phase (the link-latency cache fill) is labelled sync, its role
// in the core engine.
var weightedPhases = obs.Phases{Backend: "weighted", Names: []string{"sync", "decide", "apply", "step"}}

// SetObserver implements Observable: the observer sees the RoundStats of
// every executed weighted round. Repeated calls attach additional
// observers, like core.Engine.AddObserver.
func (a *Weighted) SetObserver(obs core.RoundObserver) {
	if obs != nil {
		a.obs = append(a.obs, obs)
	}
}

// Phases implements PhaseTimed: the weighted.StepTimings phases.
func (a *Weighted) Phases() obs.Phases { return weightedPhases }

// SetPhaseTimer implements PhaseTimed by installing an engine step timer
// that translates weighted.StepTimings into the obs phase record. The
// engine's hook carries no stats, so the adapter supplies the completed
// round's index (the engine has already advanced its counter).
func (a *Weighted) SetPhaseTimer(fn obs.PhaseTimer) {
	if fn == nil {
		a.e.SetStepTimer(nil)
		return
	}
	a.e.SetStepTimer(func(t weighted.StepTimings) {
		fn(a.e.Round()-1, obs.PhaseTimes{t.Snapshot, t.Decide, t.Apply, t.Step})
	})
}

// FromWeighted wraps a weighted engine.
func FromWeighted(e *weighted.Engine) *Weighted {
	slopes, err := e.State().Game().LinearSlopes()
	if err != nil {
		slopes = nil
	}
	return &Weighted{e: e, slopes: slopes}
}

// Engine returns the wrapped engine.
func (a *Weighted) Engine() *weighted.Engine { return a.e }

// State returns the engine's live state.
func (a *Weighted) State() *weighted.State { return a.e.State() }

// Round returns the number of completed rounds.
func (a *Weighted) Round() int { return a.e.Round() }

// Potential returns the exact weighted linear potential (folded from the
// slopes cached at wrap time), or NaN when some link latency is non-linear
// (the weighted family has no general exact potential).
func (a *Weighted) Potential() float64 {
	if a.slopes == nil {
		return math.NaN()
	}
	return a.e.State().LinearPotentialWith(a.slopes)
}

// Step executes one concurrent weighted round. NewStrategies is always 0
// (weighted games have a fixed link set).
func (a *Weighted) Step() RoundStats {
	round := a.e.Round()
	moves := a.e.Step()
	st := a.e.State()
	stats := RoundStats{
		Round:      round,
		Players:    st.Game().NumPlayers(),
		Movers:     moves,
		Potential:  a.Potential(),
		AvgLatency: st.AvgLatency(),
		MaxLatency: st.MaxLatency(),
	}
	for _, obs := range a.obs {
		obs.Observe(stats)
	}
	return stats
}

// currentStats summarizes the current state attributed to the last
// completed round, mirroring core.Engine's convention.
func (a *Weighted) currentStats() RoundStats {
	st := a.e.State()
	return RoundStats{
		Round:      a.e.Round() - 1,
		Players:    st.Game().NumPlayers(),
		Potential:  a.Potential(),
		AvgLatency: st.AvgLatency(),
		MaxLatency: st.MaxLatency(),
	}
}

// Run executes rounds until the stop condition fires or the budget runs
// out, with the same probe order as weighted.Engine.Run.
func (a *Weighted) Run(maxRounds int, stop StopCondition) RunResult {
	if stop != nil && stop(a, a.currentStats()) {
		return RunResult{Rounds: 0, Converged: true, Final: a.currentStats()}
	}
	if maxRounds <= 0 {
		return RunResult{Rounds: 0, Converged: false, Final: a.currentStats()}
	}
	moves := 0
	var last RoundStats
	for r := 1; r <= maxRounds; r++ {
		last = a.Step()
		moves += last.Movers
		if stop != nil && stop(a, last) {
			return RunResult{Rounds: r, Converged: true, TotalMoves: moves, Final: last}
		}
	}
	return RunResult{Rounds: maxRounds, Converged: false, TotalMoves: moves, Final: last}
}
