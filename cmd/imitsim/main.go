// Command imitsim runs a single simulation of the IMITATION PROTOCOL (or
// its exploration/combined variants) on a named workload and prints the
// trajectory: per-round potential, average latency, migration counts, a
// sparkline, and the final equilibrium diagnosis.
//
// Usage:
//
//	imitsim -workload linear -n 1024 -m 20 -rounds 500 [-protocol imitation]
//	        [-seed 1] [-lambda 0.25] [-delta 0.1] [-eps 0.1] [-workers 0]
//	        [-reps 1] [-par 0] [-csv out.csv] [-ndjson out.ndjson]
//	        [-journal run.ndjson] [-metrics-addr 127.0.0.1:9617]
//	        [-cpuprofile f] [-memprofile f] [-exectrace f]
//
// -metrics-addr serves /metrics (Prometheus text format), /metrics.json,
// and /debug/pprof while the run executes. -journal streams the run's
// NDJSON timeline (per-round stats and phase timings; single-run mode
// only). Both are read-only instrumentation: the trajectory is
// bit-identical with or without them.
//
// Workloads: linear (random linear singletons), uniform (identical links),
// monomial (a·x^d links, -degree), zero-offset (Theorem 9 scaling), twolink
// (Section 2.3 overshoot instance), lastagent (Ω(n) instance), network
// (layered DAG, -degree), braess, heavy (packed affine links for
// throughput stress).
//
// -workers selects the engine's worker-goroutine count (0 = GOMAXPROCS);
// the trajectory is bit-identical for every value, so it only changes
// wall-clock time.
//
// With -reps > 1 the command switches from a single trajectory to a
// replicated run: -reps independent simulations (per-replication seeds
// derived from -seed) fan out across the runner's worker pool (-par
// concurrent replications, 0 = GOMAXPROCS) and an aggregate summary is
// printed. Aggregates are bit-identical for every -par and -workers
// value. Run with -h for the full flag reference.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"congame/internal/core"
	"congame/internal/dynamics"
	"congame/internal/eq"
	"congame/internal/obs"
	"congame/internal/prng"
	"congame/internal/runner"
	"congame/internal/trace"
	"congame/internal/workload"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workloadFlag = flag.String("workload", "linear", "workload: linear, uniform, monomial, zero-offset, twolink, lastagent, network, braess, heavy")
		nFlag        = flag.Int("n", 1024, "number of players")
		mFlag        = flag.Int("m", 20, "number of links (singleton workloads)")
		degreeFlag   = flag.Float64("degree", 2, "polynomial degree (monomial, zero-offset, twolink, network)")
		protoFlag    = flag.String("protocol", "imitation", "protocol: imitation, virtual, exploration, combined, undamped")
		roundsFlag   = flag.Int("rounds", 500, "maximum number of rounds")
		seedFlag     = flag.Uint64("seed", 1, "random seed")
		lambdaFlag   = flag.Float64("lambda", core.DefaultLambda, "migration probability scale λ")
		deltaFlag    = flag.Float64("delta", 0.1, "δ of the (δ,ε,ν)-equilibrium stop condition")
		epsFlag      = flag.Float64("eps", 0.1, "ε of the (δ,ε,ν)-equilibrium stop condition")
		noNuFlag     = flag.Bool("no-nu", false, "drop the ν minimum-gain threshold")
		workersFlag  = flag.Int("workers", 0, "engine worker goroutines; 0 = GOMAXPROCS (trajectories are identical for every value)")
		repsFlag     = flag.Int("reps", 1, "independent replications; > 1 prints an aggregate summary instead of one trajectory")
		parFlag      = flag.Int("par", 0, "concurrent replications; 0 = GOMAXPROCS (aggregates are identical for every value)")
		csvFlag      = flag.String("csv", "", "write the per-round trajectory to this CSV file")
		ndjsonFlag   = flag.String("ndjson", "", "write the per-round trajectory to this NDJSON file")
		journalFlag  = flag.String("journal", "", "stream the run's NDJSON journal (rounds + phase timings) to this file")
		metricsFlag  = flag.String("metrics-addr", "", "serve /metrics, /metrics.json, and /debug/pprof on this address during the run")
		profiler     = obs.NewProfiler(flag.CommandLine)
	)
	flag.Parse()

	var reg *obs.Registry
	if *metricsFlag != "" {
		reg = obs.NewRegistry()
		srv, err := obs.Serve(*metricsFlag, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "imitsim: %v\n", err)
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "[metrics on http://%s/metrics]\n", srv.Addr())
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

	if *repsFlag > 1 {
		for name, v := range map[string]string{"-csv": *csvFlag, "-ndjson": *ndjsonFlag, "-journal": *journalFlag} {
			if v != "" {
				fmt.Fprintf(os.Stderr, "imitsim: %s records a single trajectory and cannot be combined with -reps > 1\n", name)
				return 2
			}
		}
		return runReplicated(*workloadFlag, *nFlag, *mFlag, *degreeFlag, *protoFlag,
			*roundsFlag, *seedFlag, *lambdaFlag, *deltaFlag, *epsFlag, *noNuFlag,
			*workersFlag, *repsFlag, *parFlag, reg)
	}

	inst, err := buildWorkload(*workloadFlag, *nFlag, *mFlag, *degreeFlag, *seedFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "imitsim: %v\n", err)
		return 2
	}
	proto, err := buildProtocol(inst, *protoFlag, *lambdaFlag, *noNuFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "imitsim: %v\n", err)
		return 2
	}

	rec := trace.NewRecorder()
	engine, err := core.NewEngine(inst.State, proto, core.WithSeed(*seedFlag), core.WithWorkers(*workersFlag), core.WithObserver(rec))
	if err != nil {
		fmt.Fprintf(os.Stderr, "imitsim: %v\n", err)
		return 2
	}
	var j *obs.Journal
	if *journalFlag != "" || reg != nil {
		if *journalFlag != "" {
			if j, err = obs.OpenJournal(*journalFlag); err != nil {
				fmt.Fprintf(os.Stderr, "imitsim: %v\n", err)
				return 1
			}
		}
		// Single-run rows carry no cell/rep attribution (-1 omits them).
		dynamics.Instrument(dynamics.FromEngine(engine), reg, j, -1, -1)
	}

	fmt.Printf("workload : %s\n", inst.Description)
	fmt.Printf("protocol : %s (λ=%g)\n", proto.Name(), *lambdaFlag)
	fmt.Printf("players  : %d   resources: %d   strategies: %d   d=%g   ν=%g\n",
		inst.Game.NumPlayers(), inst.Game.NumResources(), inst.Game.NumStrategies(),
		inst.Game.Elasticity(), inst.Game.Nu())
	fmt.Printf("initial  : Φ=%.6g   L_av=%.6g   makespan=%.6g\n",
		inst.State.Potential(), inst.State.AvgLatency(), inst.State.Makespan())

	nu := inst.Game.Nu()
	if *noNuFlag {
		nu = 0
	}
	res := engine.Run(*roundsFlag, core.StopWhenApproxEq(*deltaFlag, *epsFlag, nu))
	if j != nil {
		// The journal buffers its rows, so a full disk may only show here.
		if err := j.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "imitsim: journal: %v\n", err)
			return 1
		}
	}

	fmt.Printf("\nran %d rounds (%d migrations total)\n", res.Rounds, res.TotalMoves)
	if res.Converged {
		fmt.Printf("reached a (δ=%g, ε=%g, ν=%g)-equilibrium\n", *deltaFlag, *epsFlag, nu)
	} else {
		fmt.Println("round budget exhausted before the approximate equilibrium")
	}
	fmt.Printf("final    : Φ=%.6g   L_av=%.6g   makespan=%.6g\n",
		inst.State.Potential(), inst.State.AvgLatency(), inst.State.Makespan())

	if rec.Len() > 0 {
		fmt.Printf("\nΦ trajectory    %s\n", trace.Sparkline(rec.Potentials(), 60))
		fmt.Printf("L_av trajectory %s\n", trace.Sparkline(rec.AvgLatencies(), 60))
	}

	report, err := eq.CheckApprox(inst.State, *deltaFlag, *epsFlag, nu)
	if err == nil {
		fmt.Printf("\nunsatisfied players: %.2f%% expensive, %.2f%% cheap (L_av=%.6g, L⁺_av=%.6g)\n",
			100*report.ExpensiveFraction, 100*report.CheapFraction,
			report.AvgLatency, report.AvgJoinLatency)
	}
	if eq.IsImitationStable(inst.State, nu) {
		fmt.Println("state is imitation-stable")
	}
	if inst.Oracle != nil && eq.IsNash(inst.State, inst.Oracle, 1e-9) {
		fmt.Println("state is a Nash equilibrium")
	}

	if *csvFlag != "" {
		f, err := os.Create(*csvFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "imitsim: %v\n", err)
			return 1
		}
		defer func() {
			if cerr := f.Close(); cerr != nil {
				fmt.Fprintf(os.Stderr, "imitsim: close csv: %v\n", cerr)
			}
		}()
		if err := rec.WriteCSV(f); err != nil {
			fmt.Fprintf(os.Stderr, "imitsim: %v\n", err)
			return 1
		}
		fmt.Printf("trajectory written to %s\n", *csvFlag)
	}
	if *ndjsonFlag != "" {
		f, err := os.Create(*ndjsonFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "imitsim: %v\n", err)
			return 1
		}
		defer func() {
			if cerr := f.Close(); cerr != nil {
				fmt.Fprintf(os.Stderr, "imitsim: close ndjson: %v\n", cerr)
			}
		}()
		if err := rec.WriteNDJSON(f); err != nil {
			fmt.Fprintf(os.Stderr, "imitsim: %v\n", err)
			return 1
		}
		fmt.Printf("trajectory written to %s\n", *ndjsonFlag)
	}
	return 0
}

// runReplicated executes -reps independent simulations through the
// replication-parallel runner and prints an aggregate summary. Every
// replication rebuilds the workload and protocol from its own derived
// seed, so replication 0 with -reps 1 semantics is NOT special-cased —
// this mode answers "what happens on average", the single-run mode "what
// happened in this trajectory".
func runReplicated(workloadName string, n, m int, degree float64, protoName string,
	rounds int, seed uint64, lambda, delta, eps float64, noNu bool,
	workers, reps, par int, reg *obs.Registry) int {
	if reg != nil {
		runner.SetMetrics(obs.NewRunnerMetrics(reg))
	}
	spec := runner.Spec{
		Reps:        reps,
		MaxRounds:   rounds,
		BaseSeed:    seed,
		Key:         0x1517, // imitsim's replication stream key
		Parallelism: par,
		New: func(rep int, repSeed uint64) (dynamics.Dynamics, error) {
			inst, err := buildWorkload(workloadName, n, m, degree, repSeed)
			if err != nil {
				return nil, err
			}
			proto, err := buildProtocol(inst, protoName, lambda, noNu)
			if err != nil {
				return nil, err
			}
			engine, err := core.NewEngine(inst.State, proto, core.WithSeed(repSeed), core.WithWorkers(workers))
			if err != nil {
				return nil, err
			}
			d := dynamics.FromEngine(engine)
			dynamics.Instrument(d, reg, nil, -1, rep)
			return d, nil
		},
		Stop: func(int) dynamics.StopCondition {
			// ν depends on the replication's game, which only exists once
			// the factory ran; lift the core condition on first probe and
			// reuse it for the rest of the replication.
			var lifted dynamics.StopCondition
			return func(d dynamics.Dynamics, r dynamics.RoundStats) bool {
				if lifted == nil {
					a, ok := d.(*dynamics.Engine)
					if !ok {
						return false
					}
					nu := a.State().Game().Nu()
					if noNu {
						nu = 0
					}
					lifted = dynamics.FromCore(core.StopWhenApproxEq(delta, eps, nu))
				}
				return lifted(d, r)
			}
		},
	}
	start := time.Now()
	results, err := runner.Run(context.Background(), spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "imitsim: %v\n", err)
		return 1
	}
	elapsed := time.Since(start)
	agg := runner.Summarize(results)
	fmt.Printf("workload   : %s (n=%d, protocol %s)\n", workloadName, n, protoName)
	fmt.Printf("replications: %d (par=%d, workers=%d) in %v\n",
		agg.Reps, runner.Parallelism(par), workers, elapsed.Round(time.Millisecond))
	fmt.Printf("converged  : %d/%d to a (δ=%g, ε=%g, ν)-equilibrium within %d rounds\n",
		agg.Converged, agg.Reps, delta, eps, rounds)
	fmt.Printf("mean rounds: %.4g   mean migrations: %.4g\n", agg.MeanRounds, agg.MeanMoves)
	fmt.Printf("mean final : Φ=%.6g   L_av=%.6g   makespan=%.6g\n",
		agg.MeanFinalPotential, agg.MeanFinalAvgLatency, agg.MeanFinalMaxLatency)
	return 0
}

func buildWorkload(name string, n, m int, degree float64, seed uint64) (*workload.Instance, error) {
	rng := prng.New(prng.Mix(seed, 0x3012))
	switch name {
	case "linear":
		return workload.LinearSingletons(m, n, 4, rng)
	case "uniform":
		return workload.UniformSingletons(m, n, rng)
	case "monomial":
		return workload.MonomialSingletons(m, n, degree, 4, rng)
	case "zero-offset":
		return workload.ZeroOffsetSingletons(m, n, degree, 3, rng)
	case "twolink":
		return workload.TwoLink(n, degree, n/128+1)
	case "lastagent":
		return workload.LastAgent(n)
	case "network":
		return workload.PolyNetwork(4, 3, n, degree, 8, rng)
	case "braess":
		return workload.Braess(n)
	case "heavy":
		return workload.HeavyTraffic(n, m, rng)
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
}

func buildProtocol(inst *workload.Instance, name string, lambda float64, noNu bool) (core.Protocol, error) {
	g := inst.Game
	switch name {
	case "imitation":
		return core.NewImitation(g, core.ImitationConfig{Lambda: lambda, DisableNu: noNu})
	case "virtual":
		return core.NewVirtualImitation(g, core.ImitationConfig{Lambda: lambda, DisableNu: noNu})
	case "exploration":
		return core.NewExploration(g, core.ExplorationConfig{
			Lambda:  lambda,
			Sampler: core.NewRegisteredSampler(g),
		})
	case "combined":
		return core.NewCombined(g, core.CombinedConfig{
			ExploreProbability: 0.5,
			Imitation:          core.ImitationConfig{Lambda: lambda, DisableNu: noNu},
			Exploration: core.ExplorationConfig{
				Lambda:  lambda,
				Sampler: core.NewRegisteredSampler(g),
			},
		})
	case "undamped":
		return core.NewUndampedImitation(g, lambda, 0)
	default:
		return nil, fmt.Errorf("unknown protocol %q", name)
	}
}
