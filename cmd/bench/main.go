// Command bench runs the tracked benchmark suite programmatically (via
// testing.Benchmark) and writes a machine-readable JSON report, so
// performance is tracked across PRs without parsing `go test -bench`
// output — and diffs two such reports, which is what the CI bench-gate
// job does.
//
// Usage:
//
//	bench [run] [-out bench.json] [-benchtime 1s] [-quiet] [-only regexp] [-cpuprofile cpu.pprof]
//	bench compare [-tol 0.25] [-tol-for name=frac,...] OLD.json NEW.json
//	bench overhead [-trials 5] [-tol 0.05] [-n 65536] [-benchtime 0.3s]
//	bench history [BENCH_PR*.json ...]
//
// The run suite (versioned; see suiteVersion) covers the hot paths the
// repo optimizes: engine/step/* measures one concurrent imitation round
// at n ∈ {4096, 65536, 262144, 1048576} across worker counts (intra-round
// sharding), engine/step/churn-n65536/* the same round with a recurring
// net-zero churn schedule applied through the pre-round hook (the live-
// scenario event path), fluid/step/* one mean-field round at m ∈ {8, 64,
// 512} (flat in n by construction — compare against the engine/step n
// axis), fluid/vs-exact-n4096 a 60-round engine run with a lockstep drift
// tracker (the E15 measurement cell), weighted/step/* one weighted round,
// runner/* replication fan-out through internal/runner, sweep/* a single
// scenario cell end to end, sim/E1/* a full experiment regeneration,
// obs/* the metric hot-path primitives (counter add, histogram observe,
// journal round row), and engine/step/heavy-n65536-instrumented the
// n = 65536 round with a full obs registry, step timer, and NDJSON
// journal attached (compare against engine/step/heavy-n65536/w1 for the
// instrumentation cost; `bench overhead` gates that ratio).
// `make bench` regenerates the committed BENCH_PR21.json baseline; plain
// runs default to bench.json so a local run cannot clobber the committed
// baselines. -only restricts a run to matching benchmarks (for profiling
// or the CI scaling table — partial reports must not become baselines),
// and -cpuprofile records the suite's CPU profile, which `make pgo`
// commits as the default.pgo profile-guided-optimization input
// (-memprofile and -exectrace are also available; the three flags are the
// repo-wide obs.Profiler set).
//
// compare matches benchmarks by name and fails (exit 1) when NEW regresses
// against OLD: ns/op worse by more than the tolerance (default 25%,
// overridable per benchmark with -tol-for), or any allocs/op growth on a
// benchmark whose OLD allocs/op is 0 (the zero-allocation paths are exact,
// machine-independent contracts). Benchmarks present on only one side are
// reported but never fail the gate, so the suite can grow.
//
// overhead gates the tentpole claim of the observability layer directly:
// it runs the bare and instrumented n = 65536 engine rounds back to back
// for -trials interleaved trials and requires the MINIMUM instrumented/
// bare ratio across trials to stay within -tol (default 5%). The minimum
// is the right statistic on noisy shared hosts: scheduling noise inflates
// individual trials by far more than the true instrumentation cost, but
// it inflates bare and instrumented trials alike, so the best trial pair
// bounds the real overhead from above.
//
// history renders the committed BENCH_PR*.json baselines side by side —
// one row per benchmark, one column per PR, ns/op throughout — so the
// performance trajectory of every hot path is readable at a glance
// (`make bench-history`). Baselines from different machines are labelled;
// cross-machine columns show the trend, not a controlled comparison.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"congame/internal/core"
	"congame/internal/dynamics"
	"congame/internal/events"
	"congame/internal/fluid"
	"congame/internal/latency"
	"congame/internal/obs"
	"congame/internal/prng"
	"congame/internal/runner"
	"congame/internal/scenario"
	"congame/internal/sim"
	"congame/internal/stats"
	"congame/internal/weighted"
	"congame/internal/workload"
)

// suiteVersion identifies the benchmark suite layout. Bump it when
// benchmarks are added, removed, or change meaning; compare warns when
// diffing reports from different suite versions.
const suiteVersion = 9

// Result is one benchmark measurement.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// Report is the full machine-readable benchmark report.
type Report struct {
	SuiteVersion int       `json:"suite_version,omitempty"`
	GoVersion    string    `json:"go_version"`
	GOOS         string    `json:"goos"`
	GOARCH       string    `json:"goarch"`
	NumCPU       int       `json:"num_cpu"`
	GOMAXPROCS   int       `json:"gomaxprocs"`
	Timestamp    time.Time `json:"timestamp"`
	Benchmarks   []Result  `json:"benchmarks"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:])
	}
	if len(args) > 0 && args[0] == "history" {
		return runHistory(args[1:])
	}
	if len(args) > 0 && args[0] == "overhead" {
		return runOverhead(args[1:])
	}
	if len(args) > 0 && args[0] == "run" {
		args = args[1:]
	}
	return runSuite(args)
}

// ---------------------------------------------------------------------------
// run: execute the suite and write the report.

func runSuite(args []string) int {
	fs := flag.NewFlagSet("bench run", flag.ExitOnError)
	var (
		outFlag       = fs.String("out", "bench.json", "output JSON file (make bench sets the committed baseline name)")
		benchtimeFlag = fs.String("benchtime", "", "per-benchmark run time or count, e.g. 2s or 100x (default: testing's 1s)")
		quietFlag     = fs.Bool("quiet", false, "suppress the per-benchmark progress lines")
		onlyFlag      = fs.String("only", "", "run only benchmarks whose name matches this regexp (partial reports are not baselines)")
		profiler      = obs.NewProfiler(fs)
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	// testing.Benchmark honours the -test.benchtime flag; register the
	// testing flags and set it so -benchtime works outside `go test`.
	testing.Init()
	if *benchtimeFlag != "" {
		if err := flag.CommandLine.Set("test.benchtime", *benchtimeFlag); err != nil {
			fmt.Fprintf(os.Stderr, "bench: invalid -benchtime %q: %v\n", *benchtimeFlag, err)
			return 2
		}
	}

	var only *regexp.Regexp
	if *onlyFlag != "" {
		re, err := regexp.Compile(*onlyFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: invalid -only %q: %v\n", *onlyFlag, err)
			return 2
		}
		only = re
	}
	if err := profiler.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	defer func() {
		if err := profiler.Stop(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		}
	}()

	report := Report{
		SuiteVersion: suiteVersion,
		GoVersion:    runtime.Version(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Timestamp:    time.Now().UTC(),
	}

	for _, bench := range suite() {
		if only != nil && !only.MatchString(bench.name) {
			continue
		}
		res := testing.Benchmark(bench.fn)
		r := Result{
			Name:        bench.name,
			Iterations:  res.N,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		}
		report.Benchmarks = append(report.Benchmarks, r)
		if !*quietFlag {
			fmt.Printf("%-36s %10d iter %14.0f ns/op %10d B/op %6d allocs/op\n",
				r.Name, r.Iterations, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
		}
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	data = append(data, '\n')
	if err := os.WriteFile(*outFlag, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if !*quietFlag {
		fmt.Printf("report written to %s\n", *outFlag)
	}
	return 0
}

type namedBench struct {
	name string
	fn   func(b *testing.B)
}

// suite assembles the versioned benchmark list.
func suite() []namedBench {
	var out []namedBench
	add := func(name string, fn func(b *testing.B)) {
		out = append(out, namedBench{name, fn})
	}

	gmp := runtime.GOMAXPROCS(0)
	workerCounts := []int{1, 2}
	if gmp > 2 {
		workerCounts = append(workerCounts, gmp)
	}

	// Axis 1: intra-round sharding — one heavy-traffic round per op, from
	// mid-size to the million-player scale (n = 2^20, the regime the fluid
	// backend exists for: per-round engine cost grows linearly along this
	// axis while fluid/step/* stays flat).
	for _, n := range []int{4096, 65536, 262144, 1048576} {
		for _, w := range workerCounts {
			n, w := n, w
			add(fmt.Sprintf("engine/step/heavy-n%d/w%d", n, w), func(b *testing.B) {
				benchEngineStep(b, n, w)
			})
		}
	}

	// The live-scenario event path: the n = 65536 round with a recurring
	// net-zero churn schedule (32 arrivals + 32 departures per round)
	// folded in through the pre-round hook.
	for _, w := range workerCounts {
		w := w
		add(fmt.Sprintf("engine/step/churn-n65536/w%d", w), func(b *testing.B) {
			benchEngineChurnStep(b, 65536, w)
		})
	}

	// The instrumented round: the n = 65536 step with a live obs registry
	// (per-phase histograms + round counters), a step timer, and an NDJSON
	// journal attached. Its distance from engine/step/heavy-n65536/w1 is
	// the full observability overhead; `bench overhead` gates the ratio.
	add("engine/step/heavy-n65536-instrumented", func(b *testing.B) {
		benchEngineStepInstrumented(b, 65536, 1)
	})

	// Observability hot-path primitives: one counter increment and one
	// histogram observation per op. These are the operations the engines
	// execute per phase when metrics are attached, so they bound the
	// per-round instrumentation cost from below.
	add("obs/counter", benchObsCounter)
	add("obs/histogram", benchObsHistogram)

	// Axis 2: replication fan-out — 8 replications of a mid-size
	// imitation run per op, folded through the runner.
	parCounts := []int{1, 2}
	if gmp > 2 {
		parCounts = append(parCounts, gmp)
	}
	for _, par := range parCounts {
		par := par
		add(fmt.Sprintf("runner/spec-8reps-n2000/par%d", par), func(b *testing.B) {
			benchRunnerSpec(b, 8, par)
		})
	}

	// Mean-field rounds: cost depends on the link count only, never on n.
	for _, m := range []int{8, 64, 512} {
		m := m
		add(fmt.Sprintf("fluid/step/m%d", m), func(b *testing.B) { benchFluidStep(b, m) })
	}
	// The E15 measurement cell: a 60-round exact run with a lockstep fluid
	// shadow and per-round drift distances.
	add("fluid/vs-exact-n4096", benchFluidVsExact)

	// Weighted family round throughput.
	add("weighted/step/n8192", benchWeightedStep)

	// Declarative layer: one single-cell scenario sweep end to end.
	add("sweep/cell-n512/par1", func(b *testing.B) { benchSweepCell(b, 1) })

	// End-to-end: one full E1 regeneration (quick mode) per op, at
	// sequential and parallel replication settings. par1/par2 run on every
	// machine so their names always match the committed baseline and stay
	// gated; the GOMAXPROCS variant is extra color on wide hosts.
	add("sim/E1-quick/par1", func(b *testing.B) { benchExperiment(b, "E1", 1) })
	add("sim/E1-quick/par2", func(b *testing.B) { benchExperiment(b, "E1", 2) })
	if gmp > 2 {
		add(fmt.Sprintf("sim/E1-quick/par%d", gmp), func(b *testing.B) { benchExperiment(b, "E1", gmp) })
	}

	return out
}

// benchEngineStep measures one concurrent heavy-traffic round at a fixed
// worker count. Every iteration replays the SAME round from a fresh clone
// of the initial state: two untimed warm-up rounds let the reusable
// buffers reach their high-water marks (so allocs/op measures the
// steady-state 0-alloc contract), then exactly one round is timed. That
// makes both ns/op and allocs/op independent of -benchtime — a gate run
// at 0.3s and a baseline at 1s measure identical physics — where timing a
// continuing trajectory would average ever-cheaper rounds as the dynamics
// converge.
func benchEngineStep(b *testing.B, n, workers int) {
	inst, err := workload.HeavyTraffic(n, 64, prng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	im, err := core.NewImitation(inst.Game, core.ImitationConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := inst.State.Clone()
		e, err := core.NewEngine(st, im, core.WithSeed(1), core.WithWorkers(workers))
		if err != nil {
			b.Fatal(err)
		}
		dyn := dynamics.FromEngine(e)
		dyn.Step()
		dyn.Step()
		b.StartTimer()
		dyn.Step()
	}
}

// benchEngineChurnStep is benchEngineStep plus a recurring net-zero churn
// schedule: every round the pre-round hook adds 32 players to strategy 1
// and removes 32 again (slice order), so n is restored before the decide
// phase and the number isolates the event-application overhead on top of
// the plain round.
func benchEngineChurnStep(b *testing.B, n, workers int) {
	inst, err := workload.HeavyTraffic(n, 64, prng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	im, err := core.NewImitation(inst.Game, core.ImitationConfig{})
	if err != nil {
		b.Fatal(err)
	}
	sched, err := events.NewSchedule([]events.Event{
		{Round: 0, Every: 1, Kind: events.Arrive, Count: 32, Strategy: 1},
		{Round: 0, Every: 1, Kind: events.Depart, Count: 32, Strategy: 1},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := inst.State.Clone()
		e, err := core.NewEngine(st, im, core.WithSeed(1), core.WithWorkers(workers))
		if err != nil {
			b.Fatal(err)
		}
		dyn := dynamics.FromEngine(e)
		if err := dyn.SetEvents(sched); err != nil {
			b.Fatal(err)
		}
		dyn.Step()
		dyn.Step()
		b.StartTimer()
		dyn.Step()
	}
	if got := inst.Game.NumPlayers(); got != n {
		b.Fatalf("net-zero churn drifted the population: n = %d, want %d", got, n)
	}
}

// benchEngineStepInstrumented is benchEngineStep with the full
// observability stack attached through dynamics.Instrument: an
// obs.Registry accumulating the per-phase histograms and round counters,
// plus an NDJSON journal streaming to a discard writer. The same
// clone-and-replay shape keeps the number directly comparable to
// engine/step/heavy-n65536/w1; the difference is the instrumentation
// cost the ≤5% overhead gate (`bench overhead`) bounds.
func benchEngineStepInstrumented(b *testing.B, n, workers int) {
	inst, err := workload.HeavyTraffic(n, 64, prng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	im, err := core.NewImitation(inst.Game, core.ImitationConfig{})
	if err != nil {
		b.Fatal(err)
	}
	reg := obs.NewRegistry()
	j := obs.NewJournal(io.Discard)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := inst.State.Clone()
		e, err := core.NewEngine(st, im, core.WithSeed(1), core.WithWorkers(workers))
		if err != nil {
			b.Fatal(err)
		}
		dyn := dynamics.FromEngine(e)
		dynamics.Instrument(dyn, reg, j, -1, -1)
		dyn.Step()
		dyn.Step()
		b.StartTimer()
		dyn.Step()
	}
	if err := j.Err(); err != nil {
		b.Fatal(err)
	}
}

// benchObsCounter measures one atomic counter increment — the cheapest
// metric write the instrumented engines perform.
func benchObsCounter(b *testing.B) {
	c := obs.NewRegistry().Counter("bench_counter_total", "bench counter")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
	if c.Value() == 0 {
		b.Fatal("counter never incremented")
	}
}

// benchObsHistogram measures one histogram observation against the
// default 22-bucket log-spaced time bounds — the per-phase write the
// engines perform five times per instrumented round.
func benchObsHistogram(b *testing.B) {
	h := obs.NewRegistry().Histogram("bench_seconds", "bench histogram", obs.DefTimeBuckets)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(1.5e-4)
	}
	if h.Count() == 0 {
		b.Fatal("histogram never observed")
	}
}

// benchFluidStep measures one mean-field round (RK4, 4 substeps) on an
// m-link monomial system — the same construction as BenchmarkSimStep in
// internal/fluid. Steady state is a zero-allocation path, like the engine
// round.
func benchFluidStep(b *testing.B, m int) {
	fns := make([]latency.Function, m)
	for e := range fns {
		f, err := latency.NewMonomial(1+float64(e%7)/2, 2)
		if err != nil {
			b.Fatal(err)
		}
		fns[e] = f
	}
	sys, err := fluid.NewSystem(fns, 0.25)
	if err != nil {
		b.Fatal(err)
	}
	y0 := make([]float64, m)
	w, total := 1.0, 0.0
	for e := range y0 {
		y0[e] = w
		total += w
		w *= 0.93
	}
	for e := range y0 {
		y0[e] /= total
	}
	fsim, err := fluid.NewSim(sys, y0, fluid.SimConfig{Substeps: 4})
	if err != nil {
		b.Fatal(err)
	}
	fsim.Step() // reach the derivative workspace's steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fsim.Step()
	}
}

// benchFluidVsExact measures the E15 cell: 60 exact engine rounds on a
// linear singleton instance with a DriftTracker advancing the mean-field
// twin in lockstep and measuring the L∞/L1 distance each round.
func benchFluidVsExact(b *testing.B) {
	inst, err := workload.LinearSingletons(8, 4096, 2, prng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	im, err := core.NewImitation(inst.Game, core.ImitationConfig{DisableNu: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := inst.State.Clone()
		sys, err := fluid.FromGame(inst.Game, core.DefaultLambda)
		if err != nil {
			b.Fatal(err)
		}
		fsim, err := fluid.NewSim(sys, fluid.EmpiricalDistribution(st, nil), fluid.SimConfig{Substeps: 1, Euler: true})
		if err != nil {
			b.Fatal(err)
		}
		trk := fluid.NewDriftTracker(fsim, st)
		e, err := core.NewEngine(st, im, core.WithSeed(1), core.WithWorkers(1), core.WithObserver(trk))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for r := 0; r < 60; r++ {
			e.Step()
		}
		b.StopTimer()
		if !(trk.Drift().SupLinf > 0) {
			b.Fatal("drift tracker measured nothing")
		}
		b.StartTimer()
	}
}

// benchRunnerSpec measures a full replicated run — reps independent
// imitation simulations, 50 rounds each, seeded prng.Mix(1, 0xbe7c, rep) —
// fanned out through runner.Map.
func benchRunnerSpec(b *testing.B, reps, par int) {
	rep := func(_ context.Context, rep int) (dynamics.RunResult, error) {
		seed := prng.Mix(1, 0xbe7c, uint64(rep))
		inst, err := workload.LinearSingletons(20, 2000, 4, prng.New(seed))
		if err != nil {
			return dynamics.RunResult{}, err
		}
		im, err := core.NewImitation(inst.Game, core.ImitationConfig{})
		if err != nil {
			return dynamics.RunResult{}, err
		}
		e, err := core.NewEngine(inst.State, im, core.WithSeed(seed), core.WithWorkers(1))
		if err != nil {
			return dynamics.RunResult{}, err
		}
		return dynamics.FromEngine(e).Run(50, nil), nil
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner.Map(ctx, reps, par, rep); err != nil {
			b.Fatal(err)
		}
	}
}

// benchWeightedStep measures one weighted round, with the same
// clone-and-replay shape as benchEngineStep so the number is benchtime-
// independent.
func benchWeightedStep(b *testing.B) {
	fns := make([]latency.Function, 16)
	for e := range fns {
		f, err := latency.NewLinear(1 + float64(e)/4)
		if err != nil {
			b.Fatal(err)
		}
		fns[e] = f
	}
	rng := prng.New(2)
	weights := make([]float64, 8192)
	for i := range weights {
		weights[i] = 1 + rng.Float64()*7
	}
	g, err := weighted.NewGame(fns, weights)
	if err != nil {
		b.Fatal(err)
	}
	initial, err := weighted.NewRandomState(g, rng)
	if err != nil {
		b.Fatal(err)
	}
	proto, err := weighted.NewProtocol(g, 0.25, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e, err := weighted.NewEngine(initial.Clone(), proto, 3)
		if err != nil {
			b.Fatal(err)
		}
		dyn := dynamics.FromWeighted(e)
		dyn.Step()
		dyn.Step()
		b.StartTimer()
		dyn.Step()
	}
}

// benchSweepSpec is the single-cell scenario the sweep benchmark runs:
// small enough for the gate job, shaped like the committed example specs.
const benchSweepSpec = `{
  "version": 1,
  "name": "bench-cell",
  "instance": {
    "family": "linear-singletons",
    "keys": [7],
    "params": {"m": 10, "maxSlope": 4}
  },
  "dynamics": {"kind": "imitation", "keys": [71]},
  "stop": {"kind": "imitation-stable"},
  "rounds": 500,
  "reps": 4,
  "seed": 1,
  "metrics": ["mean_rounds", "converged_frac"],
  "sweep": [{"param": "n", "values": [512]}]
}`

// benchSweepCell measures one declarative sweep cell end to end (parse,
// grid expansion, replications, metric fold).
func benchSweepCell(b *testing.B, par int) {
	spec, err := scenario.Parse(strings.NewReader(benchSweepSpec))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scenario.Run(ctx, spec, scenario.Options{Par: par}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchExperiment regenerates a registered experiment table per op.
func benchExperiment(b *testing.B, id string, par int) {
	exp, ok := sim.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Cycle a fixed seed set so short gate runs and long baseline runs
		// average over the same replication mix.
		if _, err := exp.Run(sim.Config{Seed: uint64(i%8) + 1, Quick: true, Par: par}); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
}

// ---------------------------------------------------------------------------
// overhead: gate the instrumented-vs-bare engine round ratio.

// runOverhead runs the bare and instrumented n-player heavy-traffic
// rounds as interleaved trial pairs and gates the MINIMUM instrumented/
// bare ratio across trials at 1+tol. Interleaving puts both sides of
// each pair under the same host conditions; taking the minimum discards
// trials where scheduling noise (routinely tens of percent on shared
// hosts, versus a sub-percent true cost) inflated either side, so the
// statistic is a tight upper bound on the real instrumentation overhead.
// The median ratio and the number of trials over the bound are printed
// beside it, so a pass on one lucky trial shows as one.
func runOverhead(args []string) int {
	fs := flag.NewFlagSet("bench overhead", flag.ExitOnError)
	var (
		trialsFlag    = fs.Int("trials", 5, "number of interleaved bare/instrumented trial pairs")
		tolFlag       = fs.Float64("tol", 0.05, "allowed min-ratio overhead fraction (0.05 = 5%)")
		nFlag         = fs.Int("n", 65536, "player count for the measured heavy-traffic round")
		benchtimeFlag = fs.String("benchtime", "0.3s", "per-trial benchmark time or count, e.g. 0.3s or 20x")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "bench overhead: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *trialsFlag < 1 {
		fmt.Fprintln(os.Stderr, "bench overhead: -trials must be at least 1")
		return 2
	}
	testing.Init()
	if err := flag.CommandLine.Set("test.benchtime", *benchtimeFlag); err != nil {
		fmt.Fprintf(os.Stderr, "bench overhead: invalid -benchtime %q: %v\n", *benchtimeFlag, err)
		return 2
	}

	minRatio := math.Inf(1)
	ratios := make([]float64, 0, *trialsFlag)
	over := 0
	for t := 1; t <= *trialsFlag; t++ {
		bare := testing.Benchmark(func(b *testing.B) { benchEngineStep(b, *nFlag, 1) })
		inst := testing.Benchmark(func(b *testing.B) { benchEngineStepInstrumented(b, *nFlag, 1) })
		bareNs := float64(bare.T.Nanoseconds()) / float64(bare.N)
		instNs := float64(inst.T.Nanoseconds()) / float64(inst.N)
		ratio := instNs / bareNs
		if ratio < minRatio {
			minRatio = ratio
		}
		if ratio > 1+*tolFlag {
			over++
		}
		ratios = append(ratios, ratio)
		fmt.Printf("trial %d/%d: bare %12.0f ns/op  instrumented %12.0f ns/op  ratio %.4f\n",
			t, *trialsFlag, bareNs, instNs, ratio)
	}
	fmt.Printf("min ratio over %d trials: %.4f (overhead %+.2f%%, gate <= +%.2f%%)\n",
		*trialsFlag, minRatio, (minRatio-1)*100, *tolFlag*100)
	median, _ := stats.Median(ratios) // ratios holds at least one trial
	fmt.Printf("median ratio: %.4f (overhead %+.2f%%); %d of %d trials over +%.2f%%\n",
		median, (median-1)*100, over, *trialsFlag, *tolFlag*100)
	if minRatio > 1+*tolFlag {
		fmt.Printf("FAIL: instrumented n=%d round exceeds the +%.2f%% overhead budget in every trial\n",
			*nFlag, *tolFlag*100)
		return 1
	}
	fmt.Println("PASS")
	return 0
}

// ---------------------------------------------------------------------------
// compare: diff two reports with per-benchmark tolerance.

func runCompare(args []string) int {
	fs := flag.NewFlagSet("bench compare", flag.ExitOnError)
	var (
		tolFlag    = fs.Float64("tol", 0.25, "allowed fractional ns/op regression (0.25 = +25%)")
		tolForFlag = fs.String("tol-for", "", "per-benchmark overrides, e.g. sweep/cell-n512/par1=0.5,sim/E1-quick/par1=0.4")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare [-tol 0.25] [-tol-for name=frac,...] OLD.json NEW.json")
		return 2
	}
	overrides, err := parseTolFor(*tolForFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
		return 2
	}
	oldRep, err := loadReport(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
		return 2
	}
	newRep, err := loadReport(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
		return 2
	}
	if oldRep.SuiteVersion != newRep.SuiteVersion {
		fmt.Printf("note: comparing suite v%d against v%d — only the common benchmarks gate\n",
			oldRep.SuiteVersion, newRep.SuiteVersion)
	}

	oldBy := make(map[string]Result, len(oldRep.Benchmarks))
	for _, r := range oldRep.Benchmarks {
		oldBy[r.Name] = r
	}
	names := make([]string, 0, len(newRep.Benchmarks))
	newBy := make(map[string]Result, len(newRep.Benchmarks))
	for _, r := range newRep.Benchmarks {
		newBy[r.Name] = r
		names = append(names, r.Name)
	}
	sort.Strings(names)

	failures := 0
	fmt.Printf("%-36s %14s %14s %8s %11s  %s\n", "benchmark", "old ns/op", "new ns/op", "delta", "allocs/op", "status")
	for _, name := range names {
		nw := newBy[name]
		od, ok := oldBy[name]
		if !ok {
			fmt.Printf("%-36s %14s %14.0f %8s %11s  new (not gated)\n", name, "-", nw.NsPerOp, "-", allocsCell(-1, nw.AllocsPerOp))
			continue
		}
		delta := 0.0
		if od.NsPerOp > 0 {
			delta = (nw.NsPerOp - od.NsPerOp) / od.NsPerOp
		}
		tol := *tolFlag
		if t, ok := overrides[name]; ok {
			tol = t
		}
		var fails []string
		if delta > tol {
			fails = append(fails, fmt.Sprintf("FAIL ns/op +%.1f%% > +%.0f%% tolerance", 100*delta, 100*tol))
		}
		if od.AllocsPerOp == 0 && nw.AllocsPerOp > 0 {
			fails = append(fails, fmt.Sprintf("FAIL allocs/op 0 -> %d on a zero-alloc path", nw.AllocsPerOp))
		}
		status := "ok"
		if len(fails) > 0 {
			status = strings.Join(fails, "; ")
			failures++
		}
		fmt.Printf("%-36s %14.0f %14.0f %+7.1f%% %11s  %s\n",
			name, od.NsPerOp, nw.NsPerOp, 100*delta, allocsCell(od.AllocsPerOp, nw.AllocsPerOp), status)
	}
	for name := range oldBy {
		if _, ok := newBy[name]; !ok {
			fmt.Printf("%-36s dropped from new report (not gated)\n", name)
		}
	}
	if failures > 0 {
		fmt.Printf("compare: FAIL — %d regression(s); see `make help` for the re-baseline flow\n", failures)
		return 1
	}
	fmt.Printf("compare: PASS (%d benchmarks gated, ns/op tolerance +%.0f%%)\n", len(names), 100**tolFlag)
	return 0
}

func allocsCell(old, new int64) string {
	if old < 0 {
		return fmt.Sprintf("-> %d", new)
	}
	return fmt.Sprintf("%d -> %d", old, new)
}

func parseTolFor(s string) (map[string]float64, error) {
	out := map[string]float64{}
	if s == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(part, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("-tol-for entry %q: want name=frac", part)
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil || f < 0 {
			return nil, fmt.Errorf("-tol-for entry %q: bad fraction", part)
		}
		out[name] = f
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// history: render the committed baseline trajectory.

// runHistory loads the given reports (default: the committed BENCH_PR*.json
// baselines in the current directory), orders them by PR number, and prints
// one markdown table — benchmarks as rows, PRs as columns, ns/op cells —
// plus a trend column diffing the newest column against the oldest one that
// has the benchmark. A benchmark absent from a column (suite growth) prints
// as "-".
func runHistory(args []string) int {
	fs := flag.NewFlagSet("bench history", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	paths := fs.Args()
	if len(paths) == 0 {
		var err error
		paths, err = filepath.Glob("BENCH_PR*.json")
		if err != nil || len(paths) == 0 {
			fmt.Fprintln(os.Stderr, "bench history: no BENCH_PR*.json baselines found")
			return 2
		}
	}
	sort.Slice(paths, func(i, j int) bool { return prNumber(paths[i]) < prNumber(paths[j]) })

	type column struct {
		label string
		rep   *Report
	}
	var cols []column
	for _, p := range paths {
		rep, err := loadReport(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench history: %v\n", err)
			return 2
		}
		label := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(p), "BENCH_"), ".json")
		cols = append(cols, column{label, rep})
	}

	// Row order: the newest report's order first (it reflects the current
	// suite layout), then any older-only benchmarks appended alphabetically.
	seen := map[string]bool{}
	var names []string
	for _, r := range cols[len(cols)-1].rep.Benchmarks {
		names = append(names, r.Name)
		seen[r.Name] = true
	}
	var extra []string
	for _, c := range cols {
		for _, r := range c.rep.Benchmarks {
			if !seen[r.Name] {
				seen[r.Name] = true
				extra = append(extra, r.Name)
			}
		}
	}
	sort.Strings(extra)
	names = append(names, extra...)

	byCol := make([]map[string]Result, len(cols))
	for i, c := range cols {
		byCol[i] = make(map[string]Result, len(c.rep.Benchmarks))
		for _, r := range c.rep.Benchmarks {
			byCol[i][r.Name] = r
		}
	}

	fmt.Printf("| %-36s |", "benchmark (ns/op)")
	for _, c := range cols {
		fmt.Printf(" %12s |", c.label)
	}
	fmt.Printf(" %12s |\n", "trend")
	fmt.Printf("|%s|", strings.Repeat("-", 38))
	for range cols {
		fmt.Printf("%s|", strings.Repeat("-", 14))
	}
	fmt.Printf("%s|\n", strings.Repeat("-", 14))
	for _, name := range names {
		fmt.Printf("| %-36s |", name)
		firstIdx := -1
		for i := range cols {
			r, ok := byCol[i][name]
			if !ok {
				fmt.Printf(" %12s |", "-")
				continue
			}
			if firstIdx < 0 {
				firstIdx = i
			}
			fmt.Printf(" %12.0f |", r.NsPerOp)
		}
		trend := "-"
		if last, ok := byCol[len(cols)-1][name]; ok && firstIdx >= 0 && firstIdx != len(cols)-1 {
			first := byCol[firstIdx][name]
			if first.NsPerOp > 0 {
				trend = fmt.Sprintf("%+.1f%%", 100*(last.NsPerOp-first.NsPerOp)/first.NsPerOp)
			}
		}
		fmt.Printf(" %12s |\n", trend)
	}

	// Machine fingerprints: baselines recorded on different hosts chart a
	// trajectory, not a controlled comparison — say so under the table.
	fmt.Println()
	for _, c := range cols {
		fmt.Printf("%s: %s %s/%s, %d CPU, suite v%d\n",
			c.label, c.rep.GoVersion, c.rep.GOOS, c.rep.GOARCH, c.rep.NumCPU, c.rep.SuiteVersion)
	}
	return 0
}

// prNumber extracts the numeric suffix of a BENCH_PR<N>.json path for
// ordering; non-conforming names sort first, by name.
func prNumber(path string) int {
	base := filepath.Base(path)
	s := strings.TrimSuffix(strings.TrimPrefix(base, "BENCH_PR"), ".json")
	n, err := strconv.Atoi(s)
	if err != nil {
		return -1
	}
	return n
}

func loadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks in report", path)
	}
	return &rep, nil
}
