package obs

import (
	"time"

	"congame/internal/core"
)

// DefTimeBuckets is the default bucket layout for phase and job duration
// histograms: log-spaced from 1µs to 10s, wide enough to span both a
// single engine phase on a small instance and a whole heavyweight cell.
var DefTimeBuckets = []float64{
	1e-6, 2.5e-6, 5e-6,
	1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2,
	1e-1, 2.5e-1, 5e-1,
	1, 2.5, 5, 10,
}

// MaxPhases is the number of slots in a PhaseTimes record: the most step
// phases one backend can time.
const MaxPhases = 5

// Phases names the step phases one backend times: the backend label its
// metrics and journal rows carry, and one phase name per PhaseTimes slot,
// in slot order (at most MaxPhases).
type Phases struct {
	Backend string
	Names   []string
}

// PhaseTimes holds one round's phase durations; slot i times
// Phases.Names[i], and slots past the backend's names stay zero.
type PhaseTimes [MaxPhases]time.Duration

// PhaseTimer receives a completed round's 0-based index and its phase
// durations. It runs synchronously on the stepping goroutine and must
// only read, so it can never change the trajectory.
type PhaseTimer func(round int, t PhaseTimes)

// PhaseMetrics instruments one backend: rounds stepped, migrations
// applied, and the current population, plus one duration histogram per
// named phase in the family engine_phase_seconds{backend=...,phase=...}.
type PhaseMetrics struct {
	Rounds  *Counter
	Moves   *Counter
	Players *Gauge
	// Phase holds the histograms in slot order, like Phases.Names.
	Phase []*Histogram
}

// NewPhaseMetrics registers the metric set for p's backend. A backend
// without phase hooks passes no names and gets the round counters alone.
func NewPhaseMetrics(r *Registry, p Phases) *PhaseMetrics {
	lbl := L("backend", p.Backend)
	m := &PhaseMetrics{
		Rounds:  r.Counter("engine_rounds_total", "Rounds stepped.", lbl),
		Moves:   r.Counter("engine_moves_total", "Player migrations applied.", lbl),
		Players: r.Gauge("engine_players", "Population of the most recent round.", lbl),
	}
	for _, name := range p.Names {
		m.Phase = append(m.Phase, r.Histogram("engine_phase_seconds", "Wall-clock seconds per engine step phase.",
			DefTimeBuckets, lbl, L("phase", name)))
	}
	return m
}

// Observe implements core.RoundObserver by feeding the round counters. It
// never mutates engine state and never allocates.
func (m *PhaseMetrics) Observe(s core.RoundStats) {
	m.Rounds.Inc()
	m.Moves.Add(uint64(s.Movers))
	m.Players.Set(float64(s.Players))
}

// ObservePhases is a PhaseTimer feeding the phase histograms. Round
// counting is left to Observe, so a journal timer can run beside it
// without double-counting rounds.
func (m *PhaseMetrics) ObservePhases(_ int, t PhaseTimes) {
	for i, h := range m.Phase {
		h.ObserveDuration(t[i])
	}
}

// RunnerMetrics instruments runner.Map's worker pool: jobs completed, job
// and queue-wait durations, and total busy time (busy nanoseconds over
// wall nanoseconds × workers gives utilization).
type RunnerMetrics struct {
	Jobs      *Counter
	JobSec    *Histogram
	QueueWait *Histogram
	BusyNanos *Counter
}

// NewRunnerMetrics registers the worker-pool metric set.
func NewRunnerMetrics(r *Registry) *RunnerMetrics {
	return &RunnerMetrics{
		Jobs:      r.Counter("runner_jobs_total", "Jobs completed by the worker pool."),
		JobSec:    r.Histogram("runner_job_seconds", "Wall-clock seconds per job.", DefTimeBuckets),
		QueueWait: r.Histogram("runner_queue_wait_seconds", "Seconds a job waited between dispatch and pickup.", DefTimeBuckets),
		BusyNanos: r.Counter("runner_busy_nanoseconds_total", "Total nanoseconds workers spent running jobs."),
	}
}

// SweepMetrics instruments a scenario sweep: cell/rep progress counters,
// per-cell durations, and a completion gauge a scraper can poll for.
type SweepMetrics struct {
	CellsTotal  *Gauge
	CellsDone   *Counter
	RepsDone    *Counter
	CellSeconds *Histogram
	RunComplete *Gauge
}

// NewSweepMetrics registers the sweep metric set.
func NewSweepMetrics(r *Registry) *SweepMetrics {
	return &SweepMetrics{
		CellsTotal:  r.Gauge("sweep_cells_total", "Cells in the running sweep."),
		CellsDone:   r.Counter("sweep_cells_done_total", "Cells completed."),
		RepsDone:    r.Counter("sweep_reps_done_total", "Replications completed."),
		CellSeconds: r.Histogram("sweep_cell_seconds", "Wall-clock seconds per completed cell.", DefTimeBuckets),
		RunComplete: r.Gauge("sweep_run_complete", "1 once the sweep has finished."),
	}
}
