package main

// metricDef is one metric of BENCHMARK.json's end_to_end or per_layer
// list; the self-test checks that the two stay the same.
type metricDef struct {
	name, unit string
}

// endToEnd is printed by every untraced run. ok_frac is 1 − failed_frac:
// failed_frac itself is 0 on a healthy run, and a bound taken as a share
// of a zero median cannot be checked, so the report prints failed_frac
// beside the op counts and the result carries its complement.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_s", "s"},
	{"op_p90_s", "s"},
	{"ok_frac", "ratio"},
	{"peak_rss_mib", "MiB"},
}

// perLayer is printed by every traced run. Times are seconds per op
// unless the name says otherwise; counts are totals over the traced
// run's fixed op set, so they repeat exactly for one seed.
var perLayer = []metricDef{
	{"core.step_s", "s"},
	{"core.decide_s", "s"},
	{"core.decide_ns_per_player", "ns"},
	{"core.move_frac", "ratio"},
	{"core.phase_cover", "ratio"},
	{"core.worker_speedup", "ratio"},
	{"game.sync_s", "s"},
	{"game.apply_s", "s"},
	{"events.pre_round_s", "s"},
	{"events.firings", "count"},
	{"dynamics.self_s", "s"},
	{"workload.build_s", "s"},
	{"fluid.step_s", "s"},
	{"scenario.parse_s", "s"},
	{"scenario.cell_s", "s"},
	{"scenario.self_s", "s"},
	{"scenario.rep_overhead_s", "s"},
	{"scenario.reps", "count"},
	{"scenario.checkpointed_ratio", "ratio"},
	{"runner.busy_s", "s"},
	{"runner.queue_wait_s", "s"},
	{"runner.utilization", "ratio"},
	{"serve.submit_s", "s"},
	{"serve.result_s", "s"},
	{"serve.queue_wait_s", "s"},
	{"serve.run_s", "s"},
	{"serve.first_event_s", "s"},
	{"serve.stream_lag_s", "s"},
	{"checkpoint.manifest_bytes", "B"},
	{"obs.journal_bytes", "B"},
	{"obs.journal_rows", "count"},
	{"trace.overhead_frac", "ratio"},
}

// units maps every metric name to its unit.
var units = func() map[string]string {
	m := map[string]string{}
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			m[d.name] = d.unit
		}
	}
	return m
}()
