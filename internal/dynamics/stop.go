package dynamics

import (
	"congame/internal/core"
)

// FromCore lifts a core.StopCondition (imitation stability, (δ,ε,ν)-
// equilibrium, Nash, potential thresholds, ...) to the unified
// StopCondition. On the core-engine adapter it receives the engine's
// lazily refreshed snapshot — identical tables, identical cost — and the
// sequential adapter's live state; on any other dynamics it never fires.
func FromCore(cs core.StopCondition) StopCondition {
	if cs == nil {
		return nil
	}
	return func(d Dynamics, r RoundStats) bool {
		switch a := d.(type) {
		case *Engine:
			return cs(a.CurrentSnapshot(), r)
		case *Sequential:
			return cs(a.State(), r)
		default:
			return false
		}
	}
}

// WeightedNash stops a weighted run once no player can improve by more
// than eps — the weighted ε-Nash test weighted.Engine.Run hard-codes. It
// never fires on other families.
func WeightedNash(eps float64) StopCondition {
	return func(d Dynamics, _ RoundStats) bool {
		w, ok := d.(*Weighted)
		if !ok {
			return false
		}
		return w.State().IsNash(eps)
	}
}

// WhenQuiet stops after `rounds` consecutive rounds without any migration,
// for any family that reports Movers. The condition is stateful: build a
// fresh one per run.
func WhenQuiet(rounds int) StopCondition {
	quiet := 0
	return func(_ Dynamics, r RoundStats) bool {
		if r.Round < 0 {
			return false // pre-run probe: no migration information yet
		}
		if r.Movers == 0 {
			quiet++
		} else {
			quiet = 0
		}
		return quiet >= rounds
	}
}
