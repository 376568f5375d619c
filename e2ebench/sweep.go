package main

import (
	"context"
	"fmt"
	"runtime"

	"congame/internal/obs"
	"congame/internal/runner"
	"congame/internal/scenario"
)

// runSweep is the sweep-mix workload: one caller runs scenario.Run with
// cmd/sweep's defaults (par = GOMAXPROCS, engine workers auto = 1) on the
// pairs in rotation, each op's CSV checked against its par-1 reference.
func runSweep(cfg config) (*results, error) {
	res := newResults(cfg.Workload)
	ctx := context.Background()
	var pairs []*pair
	setups, err := timeSetups(cfg.SetupReps, func() (err error) {
		pairs, err = loadPairs(cfg, nil)
		return err
	}, nil)
	if err != nil {
		return nil, err
	}
	if err := runReferences(ctx, cfg, pairs); err != nil {
		return nil, err
	}
	op := func(reg *obs.Registry) func(i int) error {
		return func(i int) error {
			p := pairs[i%len(pairs)]
			out, err := scenario.Run(ctx, p.spec, scenario.Options{Quick: cfg.Quick, Registry: reg})
			if err != nil {
				return err
			}
			return checkCSV(p, out.Table.CSV())
		}
	}
	if !cfg.Trace {
		l := closedLoop(1, seconds(cfg.Seconds), cfg.MinOps, 0, op(nil))
		res.countOps(l)
		res.byInput(l, func(i int) string { return pairs[i%len(pairs)].name })
		return res, res.setE2E(setups, l)
	}

	// Traced: one rotation untraced, then the same rotation with a span
	// around each scenario.Run and the obs registry attached.
	count := len(pairs)
	plain := closedLoop(1, 0, count, count, op(nil))
	res.countOps(plain)
	tr := newTracer()
	if _, err := loadPairs(cfg, tr); err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	run := op(reg)
	traced := closedLoop(1, 0, count, count, func(i int) error {
		sp := tr.begin("scenario.Run", i, 0)
		defer tr.end(sp)
		return run(i)
	})
	// scenario.Run installs the runner's pool metrics process-wide.
	runner.SetMetrics(nil)
	res.countOps(traced)
	sums, err := readRegistry(reg)
	if err != nil {
		return nil, err
	}
	ops := float64(count)
	spans := tr.summary()
	par := float64(runtime.GOMAXPROCS(0))
	busy := sums.runnerBusy / ops
	cell := sums.cells / ops
	res.setCorePhases(sums, ops, playersOf(pairs, count))
	res.set("scenario.parse_s", spans["scenario.Parse"].Total/float64(spans["scenario.Parse"].Count), "per spec, Parse + Validate")
	res.set("scenario.cell_s", cell, "Σ sweep_cell_seconds ÷ ops")
	res.set("scenario.self_s", spans["scenario.Run"].Total/ops-cell, "scenario.Run span − cell_s")
	res.set("scenario.rep_overhead_s", busy-(sums.coreStep+sums.fluidStep)/ops,
		"runner.busy_s − core and fluid step time: construction, eq stops, adapter, drift tracking")
	res.set("scenario.reps", sums.reps, "exact, sweep_reps_done_total")
	res.set("runner.busy_s", busy, "runner_busy_nanoseconds_total ÷ ops")
	res.set("runner.queue_wait_s", sums.runnerQueueWait/ops, "Σ runner_queue_wait_seconds ÷ ops")
	res.set("runner.utilization", ratio(busy, par*cell), fmt.Sprintf("busy_s ÷ (par %g × cell_s)", par))
	res.set("trace.overhead_frac", ratio(traced.total(), plain.total())-1,
		fmt.Sprintf("traced %.4fs ÷ untraced %.4fs over the same %d ops, minus 1", traced.total(), plain.total(), count))
	res.unavailable("events.firings", "scenario.Run reports firings only to the journal, for replication 0")
	res.unavailable("dynamics.self_s", "the adapter is called inside runner, not by the benchmark")
	res.unavailable("core.worker_speedup", "measured on rush-4m, where the instance is large enough to matter")
	res.unavailable("workload.build_s", "instances are built inside runner replications")
	for _, m := range []string{
		"scenario.checkpointed_ratio", "serve.submit_s", "serve.result_s", "serve.queue_wait_s", "serve.run_s",
		"serve.first_event_s", "serve.stream_lag_s", "checkpoint.manifest_bytes", "obs.journal_bytes", "obs.journal_rows",
	} {
		res.unavailable(m, "not reached: sweep-mix calls scenario.Run without the daemon")
	}
	return res, tr.write(spanPath(cfg), res, cfg)
}
