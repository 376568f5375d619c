// Command imitsim runs one trajectory of a scenario spec and explains it:
// per-round potential and average latency as sparklines, the final state,
// and the equilibrium diagnosis.
//
// Usage:
//
//	imitsim -spec examples/scenarios/quickstart.json [-seed 0] [-workers 0]
//	        [-csv out.csv] [-ndjson out.ndjson] [-journal run.ndjson]
//	        [-metrics-addr 127.0.0.1:9617]
//	        [-cpuprofile f] [-memprofile f] [-exectrace f]
//
// The spec's grid must have exactly one cell. imitsim builds replication 0
// of that cell through scenario.Replication, the construction scenario.Run
// uses, so the trajectory is the one cmd/sweep runs as that replication:
// same instance, dynamics kind, event schedule, stop condition and seeds.
// A spec with more than one cell exits 2; sweeps and replicated aggregates
// are cmd/sweep's. -seed overrides the spec's base seed (0 keeps it), and
// the replication's seeds derive from it by the spec's seed contract
// (DESIGN.md §7). -workers sets the engine's worker-goroutine count (0 =
// the spec's, else GOMAXPROCS); the trajectory is bit-identical for every
// value.
//
// -csv and -ndjson write the recorded trajectory. -metrics-addr serves
// /metrics (Prometheus text format), /metrics.json, and /debug/pprof while
// the run executes, and -journal streams its NDJSON timeline (rows carry
// cell 0, rep 0). Both are read-only instrumentation: the trajectory is
// bit-identical with or without them. Run with -h for the flag reference.
package main

import (
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"strings"

	"congame/internal/dynamics"
	"congame/internal/eq"
	"congame/internal/game"
	"congame/internal/obs"
	"congame/internal/scenario"
	"congame/internal/trace"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		specFlag    = flag.String("spec", "", "path to a scenario spec JSON file whose grid has exactly one cell (required)")
		seedFlag    = flag.Uint64("seed", 0, "override the spec's base seed (0 = use the spec's)")
		workersFlag = flag.Int("workers", 0, "engine worker goroutines; 0 = spec/GOMAXPROCS (trajectories are identical for every value)")
		csvFlag     = flag.String("csv", "", "write the per-round trajectory to this CSV file")
		ndjsonFlag  = flag.String("ndjson", "", "write the per-round trajectory to this NDJSON file")
		journalFlag = flag.String("journal", "", "stream the run's NDJSON journal (rounds + phase timings) to this file")
		metricsFlag = flag.String("metrics-addr", "", "serve /metrics, /metrics.json, and /debug/pprof on this address during the run")
		profiler    = obs.NewProfiler(flag.CommandLine)
	)
	flag.Parse()

	if *specFlag == "" {
		fmt.Fprintln(os.Stderr, "imitsim: -spec is required (run with -h for usage)")
		return 2
	}
	spec, err := scenario.Load(*specFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "imitsim: %v\n", err)
		return 1
	}
	if *seedFlag != 0 {
		spec.Seed = *seedFlag
	}
	cells, err := scenario.Grid(spec, false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "imitsim: %v\n", err)
		return 1
	}
	if len(cells) != 1 {
		fmt.Fprintf(os.Stderr, "imitsim: spec %s expands to %d cells; imitsim runs a one-cell spec (run sweeps with cmd/sweep)\n", spec.Name, len(cells))
		return 2
	}
	cell := cells[0]
	// imitsim's own recorder takes the whole trajectory; the spec's trace
	// block would record the same rounds a second time.
	spec.Trace = nil

	opts := scenario.Options{Workers: *workersFlag}
	if *metricsFlag != "" {
		opts.Registry = obs.NewRegistry()
		srv, err := obs.Serve(*metricsFlag, opts.Registry)
		if err != nil {
			fmt.Fprintf(os.Stderr, "imitsim: %v\n", err)
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "[metrics on http://%s/metrics]\n", srv.Addr())
	}
	if *journalFlag != "" {
		if opts.Journal, err = obs.OpenJournal(*journalFlag); err != nil {
			fmt.Fprintf(os.Stderr, "imitsim: %v\n", err)
			return 1
		}
		defer opts.Journal.Close() // error paths; the run's end checks Close
	}
	if err := profiler.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "imitsim: %v\n", err)
		return 1
	}
	defer func() {
		if err := profiler.Stop(); err != nil {
			fmt.Fprintf(os.Stderr, "imitsim: %v\n", err)
		}
	}()

	b, stop, err := scenario.Replication(spec, cell, 0, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "imitsim: %v\n", err)
		return 1
	}
	o, ok := b.Dyn.(dynamics.Observable)
	if !ok {
		fmt.Fprintf(os.Stderr, "imitsim: dynamics %s cannot record a trajectory\n", spec.Dynamics.Kind)
		return 1
	}
	rec := trace.NewRecorder()
	o.SetObserver(rec)

	inst, g := b.Inst, b.Inst.Game
	stopName := "none"
	if spec.Stop != nil {
		stopName = spec.Stop.Kind + paramList(cell.Stop)
	}
	fmt.Printf("spec     : %s (seed %d, replication 0)\n", spec.Name, spec.Seed)
	fmt.Printf("workload : %s\n", inst.Description)
	fmt.Printf("dynamics : %s%s   stop: %s   rounds: %d\n", spec.Dynamics.Kind, paramList(cell.Dynamics), stopName, spec.Rounds)
	fmt.Printf("players  : %d   resources: %d   strategies: %d   d=%g   ν=%g\n",
		g.NumPlayers(), g.NumResources(), g.NumStrategies(), g.Elasticity(), b.Nu)
	fmt.Printf("initial  : Φ=%.6g   L_av=%.6g   makespan=%.6g\n",
		b.Dyn.Potential(), inst.State.AvgLatency(), inst.State.Makespan())

	res := b.Dyn.Run(spec.Rounds, stop)
	if opts.Journal != nil {
		// The journal buffers its rows, so a full disk may only show here.
		if err := opts.Journal.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "imitsim: journal: %v\n", err)
			return 1
		}
	}
	if e, ok := b.Dyn.(interface{ Err() error }); ok && e.Err() != nil {
		fmt.Fprintf(os.Stderr, "imitsim: %v\n", e.Err())
		return 1
	}

	fmt.Printf("\nran %d rounds (%d migrations total)\n", res.Rounds, res.TotalMoves)
	if res.Converged {
		fmt.Printf("stop condition %s fired\n", stopName)
	} else if stop != nil {
		fmt.Printf("round budget exhausted before stop condition %s fired\n", stopName)
	}
	fmt.Printf("final    : Φ=%.6g   L_av=%.6g   makespan=%.6g\n",
		b.Dyn.Potential(), res.Final.AvgLatency, res.Final.MaxLatency)

	if rec.Len() > 0 {
		fmt.Printf("\nΦ trajectory    %s\n", trace.Sparkline(rec.Potentials(), 60))
		fmt.Printf("L_av trajectory %s\n", trace.Sparkline(rec.AvgLatencies(), 60))
	}

	// The diagnosis needs the exact final state, which the engine and the
	// sequential kinds expose; the fluid kind has none.
	if d, ok := b.Dyn.(interface{ State() *game.State }); ok {
		st := d.State()
		if spec.Stop != nil && spec.Stop.Kind == "approx-eq" {
			report, err := eq.CheckApprox(st, cell.Stop.Float("delta", 0), cell.Stop.Float("eps", 0), b.Nu)
			if err == nil {
				fmt.Printf("\nunsatisfied players: %.2f%% expensive, %.2f%% cheap (L_av=%.6g, L⁺_av=%.6g)\n",
					100*report.ExpensiveFraction, 100*report.CheapFraction,
					report.AvgLatency, report.AvgJoinLatency)
			}
		}
		if eq.IsImitationStable(st, b.Nu) {
			fmt.Println("state is imitation-stable")
		}
		if inst.Oracle != nil && eq.IsNash(st, inst.Oracle, 1e-9) {
			fmt.Println("state is a Nash equilibrium")
		}
	}

	for _, out := range []struct {
		path  string
		write func(io.Writer) error
	}{
		{*csvFlag, rec.WriteCSV},
		{*ndjsonFlag, rec.WriteNDJSON},
	} {
		if out.path == "" {
			continue
		}
		if err := writeFile(out.path, out.write); err != nil {
			fmt.Fprintf(os.Stderr, "imitsim: %v\n", err)
			return 1
		}
		fmt.Printf("trajectory written to %s\n", out.path)
	}
	return 0
}

// writeFile creates path, fills it with write, and closes it.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// paramList renders a component's params as " (k=v, …)" in key order, or
// "" when it has none.
func paramList(p scenario.Params) string {
	if len(p) == 0 {
		return ""
	}
	var parts []string
	for _, k := range slices.Sorted(maps.Keys(p)) {
		parts = append(parts, fmt.Sprintf("%s=%g", k, p[k]))
	}
	return " (" + strings.Join(parts, ", ") + ")"
}
