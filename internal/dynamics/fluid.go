package dynamics

import (
	"fmt"

	"congame/internal/checkpoint"
	"congame/internal/core"
	"congame/internal/events"
	"congame/internal/fluid"
	"congame/internal/latency"
	"congame/internal/obs"
)

// DefaultQuietTol is the migration-mass threshold below which a fluid
// round counts as quiet. The ODE approaches its rest point asymptotically
// and never reaches it exactly, so the discrete "no player moved" signal
// is translated as "less than quietTol mass moved".
const DefaultQuietTol = 1e-9

// Fluid adapts a fluid.Sim — the mean-field n→∞ limit of the IMITATION
// PROTOCOL — to the Dynamics interface. One Step is one unit-time protocol
// round of the ODE (k integrator substeps, see fluid.SimConfig).
//
// RoundStats mapping: Potential, AvgLatency, and MaxLatency carry the
// fluid values directly. Movers has no atomic counterpart in a continuum;
// it reports 1 while more than quietTol probability mass migrated this
// round and 0 once the flow is quieter than that, so WhenQuiet and the
// scenario "quiet" stop work unchanged (fluid.Sim.MigrationMass exposes
// the real-valued mass). TotalMoves stays 0, like the Goldberg baseline.
// Snapshot-based stop conditions (FromCore) never fire on this family.
type Fluid struct {
	sim       *fluid.Sim
	quietTol  float64
	obs       []core.RoundObserver
	events    *events.Schedule
	firingObs []events.FiringObserver
}

var (
	_ Dynamics       = (*Fluid)(nil)
	_ Observable     = (*Fluid)(nil)
	_ Evented        = (*Fluid)(nil)
	_ PhaseTimed     = (*Fluid)(nil)
	_ Checkpointable = (*Fluid)(nil)
)

// fluidPhases names fluid.StepTimings' phases in slot order.
var fluidPhases = obs.Phases{Backend: "fluid", Names: []string{"integrate", "potential", "step"}}

// FromFluid wraps a fluid simulator; quietTol ≤ 0 selects
// DefaultQuietTol.
func FromFluid(sim *fluid.Sim, quietTol float64) *Fluid {
	if quietTol <= 0 {
		quietTol = DefaultQuietTol
	}
	return &Fluid{sim: sim, quietTol: quietTol}
}

// Sim returns the wrapped simulator.
func (f *Fluid) Sim() *fluid.Sim { return f.sim }

// Round returns the number of completed rounds.
func (f *Fluid) Round() int { return f.sim.Round() }

// Potential returns the incrementally maintained continuous potential.
func (f *Fluid) Potential() float64 { return f.sim.Potential() }

// SetObserver implements Observable; observers see every round stepped
// from now on, exactly like the engine adapter. Repeated calls attach
// additional observers.
func (f *Fluid) SetObserver(obs core.RoundObserver) {
	if obs != nil {
		f.obs = append(f.obs, obs)
	}
}

// SetEvents validates and installs an event schedule whose mean-field
// counterparts apply before each fluid round: churn becomes a mass
// source/sink with a population rescale, latency-scale wraps the link
// function, and topology events grow or drain the mass vector. The fluid
// model identifies strategies with links (FromGame requires singleton
// games, and the instance families register strategies in link order), so
// the schedule's strategy indices are read as link indices; add-link
// events may only register singleton strategies here. A nil schedule
// removes the events. Optional firing observers are notified after each
// applied event, mirroring the engine adapter.
func (f *Fluid) SetEvents(s *events.Schedule, obs ...events.FiringObserver) error {
	if s == nil {
		f.events = nil
		f.firingObs = nil
		return nil
	}
	curM := len(f.sim.Mass())
	for i, ev := range s.Events() {
		fail := func(format string, args ...any) error {
			return fmt.Errorf("%w: event %d (%s): %s", fluid.ErrInvalid, i, ev.Kind, fmt.Sprintf(format, args...))
		}
		switch ev.Kind {
		case events.Arrive, events.Depart:
			if ev.Strategy >= curM {
				return fail("link %d out of range [0,%d)", ev.Strategy, curM)
			}
		case events.LatencyScale:
			if ev.Resource >= curM {
				return fail("link %d out of range [0,%d)", ev.Resource, curM)
			}
		case events.AddLink:
			curM++
			for j, set := range ev.Strategies {
				if len(set) != 1 {
					return fail("strategy %d spans %d resources — the mean-field model is singleton-only", j, len(set))
				}
				if set[0] >= curM {
					return fail("strategy %d references link %d, have %d after this event", j, set[0], curM)
				}
			}
		case events.RemoveLink:
			if ev.Resource >= curM {
				return fail("link %d out of range [0,%d)", ev.Resource, curM)
			}
			if ev.Fallback >= curM {
				return fail("fallback link %d out of range [0,%d)", ev.Fallback, curM)
			}
			if ev.Fallback == ev.Resource {
				return fail("fallback link equals the removed link %d", ev.Resource)
			}
		}
	}
	f.events = s
	f.firingObs = obs
	return nil
}

// Phases implements PhaseTimed: the fluid.StepTimings phases.
func (f *Fluid) Phases() obs.Phases { return fluidPhases }

// SetPhaseTimer implements PhaseTimed by installing a simulator step timer
// that translates fluid.StepTimings into the obs phase record. The
// simulator's hook carries no stats, so the adapter supplies the completed
// round's index (the simulator has already advanced its counter).
func (f *Fluid) SetPhaseTimer(fn obs.PhaseTimer) {
	if fn == nil {
		f.sim.SetStepTimer(nil)
		return
	}
	f.sim.SetStepTimer(func(t fluid.StepTimings) {
		fn(f.sim.Round()-1, obs.PhaseTimes{t.Integrate, t.Potential, t.Step})
	})
}

// Capture implements Checkpointable.
func (f *Fluid) Capture(quietStreak int) *checkpoint.Snapshot {
	return checkpoint.CaptureFluid(f.sim, quietStreak)
}

// Restore implements Checkpointable (see checkpoint.RestoreFluid).
func (f *Fluid) Restore(s *checkpoint.Snapshot) error {
	return checkpoint.RestoreFluid(f.sim, s, f.events)
}

// TotalMoves implements Checkpointable: always 0, as Run reports (a
// continuum has no move count).
func (f *Fluid) TotalMoves() int { return 0 }

// applyEvents applies the mean-field counterpart of every event firing
// before the upcoming round. The schedule was validated by SetEvents, so
// a failure here is a programming bug and panics (same contract as the
// engine hook).
func (f *Fluid) applyEvents() {
	if f.events == nil {
		return
	}
	round := f.sim.Round()
	err := f.events.EachActiveIndexed(round, func(i int, ev events.Event) error {
		var err error
		switch ev.Kind {
		case events.Arrive:
			err = f.sim.Arrive(ev.Strategy, ev.Count)
		case events.Depart:
			err = f.sim.Depart(ev.Strategy, ev.Count)
		case events.LatencyScale:
			err = f.sim.ScaleLatency(ev.Resource, ev.Factor)
		case events.AddLink:
			var fn latency.Function
			if fn, err = ev.Latency.Build(); err == nil {
				err = f.sim.AddLink(fn)
			}
		case events.RemoveLink:
			err = f.sim.RemoveLink(ev.Resource, ev.Fallback)
		default:
			err = fmt.Errorf("unknown kind %q", ev.Kind)
		}
		if err != nil {
			return err
		}
		for _, o := range f.firingObs {
			o(round, i, ev.Kind)
		}
		return nil
	})
	if err != nil {
		panic(fmt.Sprintf("dynamics: unvalidated fluid event schedule failed at round %d: %v", round, err))
	}
}

// convert maps fluid round statistics onto the unified vocabulary.
func (f *Fluid) convert(s fluid.RoundStats) RoundStats {
	movers := 0
	if s.MigrationMass > f.quietTol {
		movers = 1
	}
	players := 0
	if pop, ok := f.sim.Population(); ok {
		players = int(pop + 0.5)
	}
	return RoundStats{
		Round:      s.Round,
		Players:    players,
		Movers:     movers,
		Potential:  s.Potential,
		AvgLatency: s.AvgLatency,
		MaxLatency: s.MaxLatency,
	}
}

// Step executes one unit-time fluid round, applying any scheduled events
// first (see SetEvents).
func (f *Fluid) Step() RoundStats {
	f.applyEvents()
	st := f.convert(f.sim.Step())
	for _, obs := range f.obs {
		obs.Observe(st)
	}
	return st
}

// Run executes rounds until the stop condition fires or maxRounds rounds
// have been executed, with the same pre-run stop probe as the other
// families.
func (f *Fluid) Run(maxRounds int, stop StopCondition) RunResult {
	if stop != nil && stop(f, f.convert(f.sim.Current())) {
		return RunResult{Rounds: 0, Converged: true, Final: f.convert(f.sim.Current())}
	}
	if maxRounds <= 0 {
		return RunResult{Rounds: 0, Converged: false, Final: f.convert(f.sim.Current())}
	}
	var last RoundStats
	for i := 0; i < maxRounds; i++ {
		last = f.Step()
		if stop != nil && stop(f, last) {
			return RunResult{Rounds: i + 1, Converged: true, Final: last}
		}
	}
	return RunResult{Rounds: maxRounds, Converged: false, Final: last}
}
