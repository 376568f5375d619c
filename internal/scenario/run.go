package scenario

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"congame/internal/dynamics"
	"congame/internal/events"
	"congame/internal/fluid"
	"congame/internal/obs"
	"congame/internal/prng"
	"congame/internal/runner"
	"congame/internal/sim"
	"congame/internal/stats"
	"congame/internal/trace"
)

// Options override a spec's execution knobs at run time (CLI flags).
type Options struct {
	// Quick applies the spec's quick-mode overrides.
	Quick bool
	// Par overrides the spec's replication parallelism when > 0.
	Par int
	// Workers overrides the spec's engine worker count when non-zero.
	Workers int
	// Registry, when non-nil, collects sweep progress, runner-pool and
	// per-backend engine metrics for every replication (served live by
	// cmd/sweep's -metrics-addr exporter and cmd/serve's /metrics). Purely
	// read-only instrumentation: results are bit-identical with or without
	// it.
	Registry *obs.Registry
	// Journal, when non-nil, receives the run's NDJSON event stream:
	// run/cell boundaries and, for each cell's replication 0, per-round
	// stats, phase timings, and event-schedule firings. Replication 0 is
	// the journaled representative to bound journal volume independently
	// of the replication count.
	Journal *obs.Journal
	// Checkpoint, when non-nil, persists the run's progress so an
	// interrupted run resumes where it left off (see Run); nil runs
	// without a state directory.
	Checkpoint *CheckpointConfig
}

// CellResult is one finished grid cell: the cell, its per-replication
// results in replication order, and the aggregates metrics read.
type CellResult struct {
	Cell Cell
	// Reps is the replication count the cell ran with.
	Reps int
	// Results holds the per-replication outcomes in replication order.
	Results []dynamics.RunResult
	// Rounds summarizes the per-replication round counts (the most
	// common aggregate; computed once, shared by the rounds metrics).
	Rounds stats.Summary
	// Agg is the runner's standard fold over the results.
	Agg runner.Aggregate
	// Trace is the recorded per-round trajectory of the traced
	// replication, when the spec requests one.
	Trace *trace.Recorder
	// Drifts holds the per-replication fluid-vs-exact drift summaries in
	// replication order, populated only when the spec requests a
	// fluid_drift_* metric.
	Drifts []fluid.Drift
}

// Result is a finished sweep: the rendered table plus the raw cells.
type Result struct {
	// Spec is the effective (quick-resolved) spec the sweep ran.
	Spec *Spec
	// Table renders the per-cell aggregates: one row per cell, axis
	// columns first, then the spec's metrics.
	Table sim.Table
	// Cells are the raw per-cell results in grid order.
	Cells []CellResult
}

// prngNew builds the policy rng for sequential dynamics kinds.
func prngNew(seed uint64) *rand.Rand { return prng.New(seed) }

// Run executes every cell of the spec's grid. Within a cell the
// replications fan out through runner.Map across the configured worker
// pool and fold in replication order; cells run sequentially in grid
// order. Output is bit-identical for every par and workers setting (the
// determinism contract of DESIGN.md §4/§6).
//
// With opts.Checkpoint set, Run persists progress into its state
// directory, and a later Run of the same spec on that directory resumes
// where the earlier one stopped, producing a table byte-identical to an
// uninterrupted run. Completed replications are recorded in the manifest
// and never re-executed. Within an in-flight replication of the engine and
// fluid families a binary snapshot (internal/checkpoint) is written every
// Checkpoint.Every rounds and on context cancellation, and a resume
// restores it and continues bit-identically — including the "quiet" stop
// condition, whose trailing zero-migration streak rides along in the
// snapshot. A snapshot that fails to decode is dropped, and its
// replication re-runs from round 0. Sequential-family replications, the
// traced replication, and drift-tracked replications also re-run from
// round 0 on resume (their observer state is not snapshotted);
// determinism makes every re-run bit-identical, it just repeats work.
// Replications run one at a time (the spec's par is ignored, so the
// manifest holds at most one in-flight snapshot), and on cancellation the
// error wraps both ErrSuspended and ctx.Err().
func Run(ctx context.Context, spec *Spec, opts Options) (*Result, error) {
	if spec == nil {
		return nil, fmt.Errorf("%w: nil spec", ErrInvalid)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	s := spec.Effective(opts.Quick)
	if opts.Par > 0 {
		s.Par = opts.Par
	}
	if opts.Workers != 0 {
		s.Workers = opts.Workers
	}
	var m *manifest
	if opts.Checkpoint != nil {
		s.Par = 1
		var err error
		if m, err = openManifest(*opts.Checkpoint, s); err != nil {
			return nil, err
		}
	}
	cells, err := Grid(s, false) // quick already applied to s
	if err != nil {
		return nil, err
	}

	var sm *obs.SweepMetrics
	if opts.Registry != nil {
		sm = obs.NewSweepMetrics(opts.Registry)
		sm.CellsTotal.Set(float64(len(cells)))
		runner.SetMetrics(obs.NewRunnerMetrics(opts.Registry))
	}
	if opts.Journal != nil {
		opts.Journal.RunStart(s.Name, len(cells), s.Reps)
	}
	runStart := time.Now()

	res := &Result{Spec: s, Table: s.tableSkeleton()}
	for _, cell := range cells {
		if opts.Journal != nil {
			opts.Journal.CellStart(cell.Index, cell.Label())
		}
		cellStart := time.Now()
		cr, err := s.runCell(ctx, cell, opts, m)
		if err != nil {
			if errors.Is(err, ErrSuspended) {
				return nil, err
			}
			return nil, fmt.Errorf("scenario: %s cell %d (%s): %w", s.Name, cell.Index, cell.Label(), err)
		}
		elapsed := time.Since(cellStart)
		if sm != nil {
			sm.CellsDone.Inc()
			sm.RepsDone.Add(uint64(s.Reps))
			sm.CellSeconds.ObserveDuration(elapsed)
		}
		if opts.Journal != nil {
			opts.Journal.CellFinish(cell.Index, s.Reps, elapsed.Seconds())
		}
		res.Cells = append(res.Cells, cr)
		if err := s.addRow(&res.Table, &res.Cells[len(res.Cells)-1]); err != nil {
			return nil, err
		}
	}
	res.Table.AddNote("scenario %s v%d: %d cells × %d reps, seed %d, dynamics %s on %s",
		s.Name, s.Version, len(cells), s.Reps, s.Seed, s.Dynamics.Kind, s.Instance.Family)
	if opts.Journal != nil {
		opts.Journal.RunFinish(time.Since(runStart).Seconds())
		if err := opts.Journal.Err(); err != nil {
			return nil, fmt.Errorf("scenario: journal: %w", err)
		}
	}
	if sm != nil {
		sm.RunComplete.Set(1)
	}
	return res, nil
}

// tableSkeleton prepares the output table: axis columns, then metrics.
func (s *Spec) tableSkeleton() sim.Table {
	t := sim.Table{ID: s.Name, Title: s.Title, Claim: s.Claim}
	for _, a := range s.Sweep {
		t.Headers = append(t.Headers, a.Param)
	}
	t.Headers = append(t.Headers, s.Metrics...)
	return t
}

// engineWorkers resolves the per-replication engine worker count: an
// explicit value wins; on auto (0), replication-parallel runs use
// sequential engines so the two axes don't multiply into GOMAXPROCS²
// goroutines. Output-invariant either way.
func (s *Spec) engineWorkers() int {
	if s.Workers == 0 && runner.Parallelism(s.Par) > 1 {
		return 1
	}
	return s.Workers
}

// cellRun is one cell's shared construction state: the event schedule,
// the trace recorder, the observers, and the checkpoint manifest (nil
// when checkpointing is off).
type cellRun struct {
	s        *Spec
	cell     Cell
	workers  int
	sched    *events.Schedule
	recorder *trace.Recorder
	reg      *obs.Registry
	j        *obs.Journal
	m        *manifest
}

// runCell executes the cell's replications that the manifest does not
// already hold through runner.Map, and folds all of them, in replication
// order, into the cell's result.
func (s *Spec) runCell(ctx context.Context, cell Cell, opts Options, m *manifest) (CellResult, error) {
	c := &cellRun{s: s, cell: cell, workers: s.engineWorkers(), reg: opts.Registry, j: opts.Journal, m: m}
	// The schedule is stateless (per-round application reads only the
	// passed state), so one instance is shared by every replication; the
	// per-instance validation happens inside SetEvents.
	if len(s.Events) > 0 {
		var err error
		c.sched, err = events.NewSchedule(s.Events)
		if err != nil {
			return CellResult{}, fmt.Errorf("%w: %w", ErrInvalid, err)
		}
	}
	if s.Trace != nil {
		var err error
		if s.Trace.Capacity > 0 {
			c.recorder, err = trace.NewRing(s.Trace.Capacity)
		} else {
			c.recorder = trace.NewRecorder()
		}
		if err != nil {
			return CellResult{}, err
		}
	}

	results := make([]dynamics.RunResult, s.Reps)
	var drifts []fluid.Drift
	if s.wantsDrift() {
		drifts = make([]fluid.Drift, s.Reps)
	}
	todo := make([]int, 0, s.Reps)
	for rep := range s.Reps {
		rec := m.find(cell.Index, rep)
		if rec == nil {
			todo = append(todo, rep)
			continue
		}
		results[rep] = rec.Result.result()
		if drifts != nil {
			if rec.Drift == nil {
				return CellResult{}, fmt.Errorf("%w: manifest record for cell %d rep %d lacks the drift summary this spec needs", ErrInvalid, cell.Index, rep)
			}
			drifts[rep] = rec.Drift.drift()
		}
	}
	// Each job writes only its own results and drifts slots, and Map
	// returns after every job has finished.
	_, err := runner.Map(ctx, len(todo), s.Par, func(ctx context.Context, i int) (struct{}, error) {
		return struct{}{}, c.runRep(ctx, todo[i], results, drifts)
	})
	if m != nil && !errors.Is(err, ErrSuspended) && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		// Map saw the cancellation before starting a replication; every
		// completed one is already in the manifest.
		return CellResult{}, fmt.Errorf("%w at cell %d: %w", ErrSuspended, cell.Index, err)
	}
	if err != nil {
		return CellResult{}, err
	}

	rounds := make([]float64, len(results))
	for i, r := range results {
		rounds[i] = float64(r.Rounds)
	}
	summary, err := stats.Summarize(rounds)
	if err != nil {
		return CellResult{}, err
	}
	return CellResult{
		Cell:    cell,
		Reps:    s.Reps,
		Results: results,
		Rounds:  summary,
		Agg:     runner.Summarize(results),
		Trace:   c.recorder,
		Drifts:  drifts,
	}, nil
}

// runRep builds replication rep, runs it, checks the dynamics' Err(), and
// only then records the result: in results[rep] and drifts[rep], and in
// the manifest when checkpointing.
func (c *cellRun) runRep(ctx context.Context, rep int, results []dynamics.RunResult, drifts []fluid.Drift) error {
	d, stop, tracker, err := c.build(rep)
	if err != nil {
		return fmt.Errorf("replication %d: %w", rep, err)
	}
	// The traced and drift-tracked replications accumulate observer state
	// a snapshot does not capture; like families that are not
	// Checkpointable, they run whole through their own Run (the sequential
	// adapter has absorption semantics a manual step loop would not
	// reproduce), and their interruption granularity is the replication.
	cp, ok := d.(dynamics.Checkpointable)
	var res dynamics.RunResult
	if ok && c.m != nil && tracker == nil && !c.traced(rep) {
		if res, err = c.runStepped(ctx, rep, d, cp, stop); err != nil {
			return err
		}
	} else {
		res = d.Run(c.s.Rounds, stop)
	}
	if e, ok := d.(interface{ Err() error }); ok && e.Err() != nil {
		return fmt.Errorf("replication %d: %w", rep, e.Err())
	}
	results[rep] = res
	if tracker != nil {
		drifts[rep] = tracker.Drift()
	}
	if c.m == nil {
		return nil
	}
	return c.m.record(c.cell.Index, rep, res, drifts)
}

// traced reports whether rep is the cell's traced replication.
func (c *cellRun) traced(rep int) bool { return c.recorder != nil && rep == c.s.Trace.Rep }

// build constructs one replication: instance, dynamics kind, event
// schedule, instrumentation, stop condition, trace recorder, and drift
// tracker (nil unless the spec requests a drift metric).
func (c *cellRun) build(rep int) (dynamics.Dynamics, dynamics.StopCondition, *fluid.DriftTracker, error) {
	s, cell := c.s, c.cell
	fam := families[s.Instance.Family]
	kind := dynKinds[s.Dynamics.Kind]

	rng := prng.New(s.InstanceSeed(cell, rep))
	inst, err := fam.Build(cell.Instance, rng)
	if err != nil {
		return nil, nil, nil, err
	}
	built, err := kind.Build(inst, cell.Dynamics, s.DynamicsSeed(cell, rep), c.workers)
	if err != nil {
		return nil, nil, nil, err
	}
	// Replication 0 is the journaled representative: its rounds,
	// phase timings, and event firings stream to the journal.
	var repJ *obs.Journal
	if rep == 0 {
		repJ = c.j
	}
	if c.sched != nil {
		ev, ok := built.Dyn.(dynamics.Evented)
		if !ok {
			return nil, nil, nil, fmt.Errorf("%w: dynamics %s does not support event schedules", ErrInvalid, s.Dynamics.Kind)
		}
		var fobs []events.FiringObserver
		if repJ != nil {
			fobs = append(fobs, func(round, index int, kind events.Kind) {
				repJ.EventFired(cell.Index, rep, round, index, string(kind))
			})
		}
		if err := ev.SetEvents(c.sched, fobs...); err != nil {
			return nil, nil, nil, err
		}
	}
	dynamics.Instrument(built.Dyn, c.reg, repJ, cell.Index, rep)
	var stop dynamics.StopCondition
	if s.Stop != nil {
		if stop, err = stopKinds[s.Stop.Kind].Build(cell.Stop, built); err != nil {
			return nil, nil, nil, err
		}
	}
	if c.traced(rep) {
		if obs, ok := built.Dyn.(dynamics.Observable); ok {
			obs.SetObserver(c.recorder)
		} else {
			return nil, nil, nil, fmt.Errorf("%w: dynamics %s cannot record traces", ErrInvalid, s.Dynamics.Kind)
		}
	}
	var tracker *fluid.DriftTracker
	if s.wantsDrift() {
		if tracker, err = newDriftTracker(built, cell.Dynamics, s.DynamicsSeed(cell, rep)); err != nil {
			return nil, nil, nil, err
		}
		obs, ok := built.Dyn.(dynamics.Observable)
		if !ok {
			return nil, nil, nil, fmt.Errorf("%w: dynamics %s cannot attach a drift tracker", ErrInvalid, s.Dynamics.Kind)
		}
		obs.SetObserver(tracker)
	}
	return built.Dyn, stop, tracker, nil
}

// addRow appends the cell's table row: axis values, then metric values.
func (s *Spec) addRow(t *sim.Table, cr *CellResult) error {
	row := make([]any, 0, len(cr.Cell.Values)+len(s.Metrics))
	for _, v := range cr.Cell.Values {
		row = append(row, formatValue(v))
	}
	for _, name := range s.Metrics {
		v, err := metrics[name].Value(cr)
		if err != nil {
			return fmt.Errorf("scenario: metric %s on cell %d: %w", name, cr.Cell.Index, err)
		}
		row = append(row, v)
	}
	t.AddRow(row...)
	return nil
}
