package scenario

// Mean-field integration: the fluid-imitation dynamics kind plus the
// fluid-vs-exact drift metrics (DESIGN.md §9). Drift metrics pair every
// replication's primary dynamics with a shadow trajectory of the other
// granularity — an engine-backed kind gets a fluid ODE twin started from
// the same empirical distribution, while fluid-imitation gets an exact
// engine twin seeded like the replication — and report the distance
// between the two strategy distributions over the run.

import (
	"fmt"

	"congame/internal/core"
	"congame/internal/dynamics"
	"congame/internal/fluid"
	"congame/internal/stats"
	"congame/internal/workload"
)

// driftLambda resolves λ for the shadow the way every imitation kind
// does: absent or zero means the protocol default.
func driftLambda(p Params) float64 {
	if lambda := p.Float("lambda", 0); lambda != 0 {
		return lambda
	}
	return core.DefaultLambda
}

func registerFluid() {
	RegisterDynamics(DynKind{
		Name:   "fluid-imitation",
		Desc:   "mean-field ODE limit of imitation: O(m)/round, cost independent of n",
		Group:  GroupFluid,
		Params: []string{"lambda", "substeps", "euler", "quietTol"},
		Ints:   []string{"substeps", "euler"},
		Build: func(inst *workload.Instance, p Params, _ uint64, _ int) (Built, error) {
			sys, err := fluid.FromGame(inst.Game, driftLambda(p))
			if err != nil {
				return Built{}, fmt.Errorf("%w: dynamics fluid-imitation: %v", ErrInvalid, err)
			}
			// Default integrator: one Euler substep — the atomic protocol's
			// expected round map is exactly the unit-time Euler step of the
			// ODE, so this is the faithful mean-field twin of a protocol
			// round. Set euler=0 and/or substeps>1 to integrate the
			// continuous-time flow instead (stiff latencies).
			sim, err := fluid.NewSim(sys, fluid.EmpiricalDistribution(inst.State, nil), fluid.SimConfig{
				Substeps: p.Int("substeps", 1),
				Euler:    p.Bool("euler", true),
			})
			if err != nil {
				return Built{}, err
			}
			return Built{Dyn: dynamics.FromFluid(sim, p.Float("quietTol", 0)), Inst: inst}, nil
		},
	})

	registerDriftMetric("fluid_drift_linf", "sup-over-rounds L∞ drift, mean over reps",
		func(d fluid.Drift) float64 { return d.SupLinf })
	registerDriftMetric("fluid_drift_l1", "sup-over-rounds L1 drift, mean over reps",
		func(d fluid.Drift) float64 { return d.SupL1 })
	registerDriftMetric("fluid_drift_final_linf", "last-round L∞ drift, mean over reps",
		func(d fluid.Drift) float64 { return d.FinalLinf })
	registerDriftMetric("fluid_drift_final_l1", "last-round L1 drift, mean over reps",
		func(d fluid.Drift) float64 { return d.FinalL1 })
}

// driftMetricNames marks the metrics that require the per-replication
// drift trackers; a replication only pays for the shadow trajectory when
// one of these appears in the spec.
var driftMetricNames = map[string]bool{}

func registerDriftMetric(name, _ string, pick func(fluid.Drift) float64) {
	driftMetricNames[name] = true
	RegisterMetric(Metric{Name: name, Value: func(c *CellResult) (any, error) {
		if len(c.Drifts) == 0 {
			return nil, fmt.Errorf("%w: %s needs drift tracking (singleton instance with an imitation-engine or fluid-imitation dynamics kind)", ErrInvalid, name)
		}
		vals := make([]float64, len(c.Drifts))
		for i, d := range c.Drifts {
			vals[i] = pick(d)
		}
		return stats.Mean(vals), nil
	}})
}

// wantsDrift reports whether any requested metric needs drift trackers.
func (s *Spec) wantsDrift() bool {
	for _, m := range s.Metrics {
		if driftMetricNames[m] {
			return true
		}
	}
	return false
}

// newDriftTracker builds the shadow trajectory for one replication. The
// primary side decides the direction: an engine-backed kind is shadowed by
// the ν-free fluid ODE with the same λ; fluid-imitation is shadowed by an
// exact ν-free imitation engine on the replication's instance, using the
// replication's dynamics seed (i.e. the very engine run the cell would
// have produced under kind "imitation" with disableNu). Either way the
// tracker attaches as a round observer, so the shadow advances exactly
// once per primary round.
func newDriftTracker(b Built, p Params, seed uint64) (*fluid.DriftTracker, error) {
	lambda := driftLambda(p)
	switch d := b.Dyn.(type) {
	case *dynamics.Engine:
		sys, err := fluid.FromGame(b.Inst.Game, lambda)
		if err != nil {
			return nil, fmt.Errorf("%w: fluid drift metrics: %v", ErrInvalid, err)
		}
		// Euler, one substep: the exact mean-field round map (see the kind
		// registration above) — a sub-stepped integrator would add an
		// O(Δt²) bias to the drift that does not vanish as n grows.
		sim, err := fluid.NewSim(sys, fluid.EmpiricalDistribution(b.Inst.State, nil), fluid.SimConfig{Substeps: 1, Euler: true})
		if err != nil {
			return nil, err
		}
		return fluid.NewDriftTracker(sim, b.Inst.State), nil
	case *dynamics.Fluid:
		im, err := core.NewImitation(b.Inst.Game, core.ImitationConfig{Lambda: lambda, DisableNu: true})
		if err != nil {
			return nil, err
		}
		eng, err := core.NewEngine(b.Inst.State, im, core.WithSeed(seed), core.WithWorkers(1))
		if err != nil {
			return nil, err
		}
		return fluid.NewAtomicShadowTracker(d.Sim(), b.Inst.State, func() { eng.Step() }), nil
	default:
		return nil, fmt.Errorf("%w: fluid drift metrics need an engine-backed or fluid-imitation dynamics kind, not %T", ErrInvalid, b.Dyn)
	}
}
