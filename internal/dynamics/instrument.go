package dynamics

import "congame/internal/obs"

// Instrument attaches observability to one dynamics instance: registry
// metrics (per-backend round counters and phase histograms) and/or a run
// journal attributed to (cell, rep) — either may be nil, and negative
// cell/rep are omitted from journal rows. Metrics for the same backend
// accumulate across instances (the registry is idempotent), so calling
// this once per replication is the intended pattern; a journal is
// typically attached to a single representative replication to bound its
// volume.
//
// Round accounting needs an Observable dynamics and phase timing a
// PhaseTimed one; a dynamics without phase hooks (the sequential
// baselines) gets round accounting under the backend label "sequential".
// Everything installed here only reads the completed round's statistics
// and timings, so an instrumented run's trajectory is bit-identical to a
// bare one (pinned by TestInstrumentPreservesTrajectory).
func Instrument(d Dynamics, reg *obs.Registry, j *obs.Journal, cell, rep int) {
	o, ok := d.(Observable)
	if !ok || (reg == nil && j == nil) {
		return
	}
	pt, timed := d.(PhaseTimed)
	phases := obs.Phases{Backend: "sequential"}
	if timed {
		phases = pt.Phases()
	}
	var timer obs.PhaseTimer
	if reg != nil {
		m := obs.NewPhaseMetrics(reg, phases)
		o.SetObserver(m)
		timer = m.ObservePhases
	}
	if j != nil {
		o.SetObserver(j.RoundObserver(cell, rep))
		jt := j.PhaseTimer(cell, rep, phases)
		if mt := timer; mt != nil {
			timer = func(round int, t obs.PhaseTimes) {
				mt(round, t)
				jt(round, t)
			}
		} else {
			timer = jt
		}
	}
	if timed {
		pt.SetPhaseTimer(timer)
	}
}
