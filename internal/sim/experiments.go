package sim

import (
	"context"
	"fmt"
	"math"

	"congame/internal/baseline"
	"congame/internal/core"
	"congame/internal/dynamics"
	"congame/internal/eq"
	"congame/internal/game"
	"congame/internal/opt"
	"congame/internal/prng"
	"congame/internal/runner"
	"congame/internal/stats"
	"congame/internal/threshold"
	"congame/internal/workload"
)

// Config parameterizes an experiment run.
type Config struct {
	// Seed drives all randomness; identical seeds reproduce tables exactly.
	Seed uint64
	// Quick shrinks instance sizes and replication counts (for benchmarks
	// and -short test runs). Shapes still hold, error bars are wider.
	Quick bool
	// Workers overrides the engine worker count. 0 picks automatically:
	// GOMAXPROCS, or 1 while replications run in parallel so the two
	// axes don't multiply into GOMAXPROCS² runnable goroutines. Tables
	// are bit-identical for every value — the engines' determinism
	// contract — so this is purely a wall-clock knob.
	Workers int
	// Par bounds the replication-parallel worker pool (0 = GOMAXPROCS):
	// independent replications of each experiment cell run concurrently
	// and fold in replication order, so tables are bit-identical for
	// every value. The orthogonal axis to Workers — see DESIGN.md §6.
	Par int
}

// Experiment is a registered, reproducible experiment.
type Experiment struct {
	// ID is the experiment identifier from DESIGN.md (e.g. "E3").
	ID string
	// Title is a short description.
	Title string
	// Claim cites the paper statement under test.
	Claim string
	// Run executes the experiment and renders its table.
	Run func(cfg Config) (Table, error)
}

// Experiments returns the full registry in ID order.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "E1", Title: "Potential super-martingale", Claim: "Corollary 3: E[ΔΦ] ≤ 0 in every round under the IMITATION PROTOCOL", Run: runE1},
		{ID: "E3", Title: "Fast convergence to (δ,ε,ν)-equilibria", Claim: "Theorem 7 / Corollary 8: rounds = O((d/ε²δ)·log(Φ(x0)/Φ*)) — logarithmic in n", Run: runE3},
		{ID: "E4", Title: "Approximation-parameter scaling", Claim: "Theorem 7: rounds scale polynomially in 1/ε², 1/δ and the elasticity d", Run: runE4},
		{ID: "E5", Title: "Overshooting ablation", Claim: "Section 2.3: without the 1/d damping the two-link instance overshoots by Θ(d)", Run: runE5},
		{ID: "E6", Title: "Sequential imitation lower bound", Claim: "Theorem 6: sequential imitation admits instances forcing very long schedules (documented substitution for the PLS-hard family)", Run: runE6},
		{ID: "E7", Title: "Ω(n) bound for satisfying every agent", Claim: "Section 4 (end): sampling protocols need Ω(n) rounds when δ = 0", Run: runE7},
		{ID: "E8", Title: "Strategy extinction in singleton games", Claim: "Theorem 9: extinction within poly(n) rounds has probability 2^{−Ω(n)}", Run: runE8},
		{ID: "E9", Title: "Price of Imitation", Claim: "Theorem 10: expected cost ≤ (3+o(1))·OPT for linear singletons with x̃_e = Ω(log n)", Run: runE9},
		{ID: "E10", Title: "Exploration and the combined protocol", Claim: "Theorem 15 / Section 6: exploration converges to Nash; the combination keeps imitation's speed", Run: runE10},
		{ID: "E11", Title: "Fluid limit of the imitation dynamics", Claim: "Section 1.2 ([15]): the atomic dynamics track the continuous Wardrop imitation ODE as n grows (probabilistic effects vanish)", Run: runE11},
		{ID: "E12", Title: "Protocol race against sequential baselines", Claim: "Section 1 / 1.2: concurrency buys convergence in few rounds; sequential dynamics pay per-activation", Run: runE12},
		{ID: "E13", Title: "Price of anarchy on affine networks", Claim: "Section 1.2 bounds: nonatomic 4/3, atomic 2.5 for linear latencies", Run: runE13},
		{ID: "E14", Title: "Weighted imitation dynamics", Claim: "related work [5]: pseudopolynomial convergence for weighted tasks", Run: runE14},
		{ID: "E15", Title: "Fluid-vs-exact drift at million-player scale", Claim: "Section 1.2 ([15]): O(n^{-1/2}) drift from the mean-field round map, O(1)-round equilibration independent of n", Run: runE15},
		{ID: "E16", Title: "Recovery time after live shocks", Claim: "Theorem 4 as self-stabilization: re-equilibration after churn, latency shifts, and topology events; new links need exploration (Section 6)", Run: runE16},
	}
}

// ByID looks up an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// pick returns quick when cfg.Quick and full otherwise.
func (cfg Config) pick(full, quick int) int {
	if cfg.Quick {
		return quick
	}
	return full
}

// par returns the effective replication parallelism.
func (cfg Config) par() int { return runner.Parallelism(cfg.Par) }

// engineWorkers returns the per-engine worker count for one replication.
// An explicit Workers value always wins; on auto (0), replication-
// parallel cells run sequential engines so the two axes don't
// oversubscribe to GOMAXPROCS² runnable goroutines. Output-invariant
// either way — this only steers where the cores go.
func (cfg Config) engineWorkers() int {
	if cfg.Workers == 0 && cfg.par() > 1 {
		return 1
	}
	return cfg.Workers
}

// mapReps fans one experiment cell's independent replications out across
// the configured worker pool via the runner and returns the per-
// replication results in replication order. Every fold downstream
// therefore accumulates in exactly the order the deleted sequential loops
// did, keeping tables bit-identical for every Par (and Workers) value.
func mapReps[T any](cfg Config, reps int, job func(rep int) (T, error)) ([]T, error) {
	return runner.Map(context.Background(), reps, cfg.par(), func(_ context.Context, rep int) (T, error) {
		return job(rep)
	})
}

// newDynamics wires an instance and protocol into a concurrent engine
// (derived seed, configured worker count) behind the unified Dynamics
// interface.
func (cfg Config) newDynamics(inst *workload.Instance, proto core.Protocol, seed uint64) (*dynamics.Engine, error) {
	e, err := core.NewEngine(inst.State, proto, core.WithSeed(seed), core.WithWorkers(cfg.engineWorkers()))
	if err != nil {
		return nil, err
	}
	return dynamics.FromEngine(e), nil
}

// --- E1: super-martingale -------------------------------------------------

func runE1(cfg Config) (Table, error) {
	t := Table{
		ID:      "E1",
		Title:   "Mean potential change per round (IMITATION PROTOCOL)",
		Claim:   "Corollary 3: Φ is a super-martingale — E[ΔΦ] ≤ 0 until imitation-stable",
		Headers: []string{"round", "singleton mean ΔΦ", "singleton P[ΔΦ>0]", "network mean ΔΦ"},
	}
	reps := cfg.pick(30, 6)
	rounds := 26
	sampled := []int{0, 1, 2, 3, 4, 5, 8, 12, 16, 20, 25}

	type repOut struct {
		single, net []float64 // per-round ΔΦ
		up          []bool    // per-round ΔΦ > 0 on the singleton instance
	}
	results, err := mapReps(cfg, reps, func(rep int) (repOut, error) {
		out := repOut{
			single: make([]float64, rounds),
			net:    make([]float64, rounds),
			up:     make([]bool, rounds),
		}
		rng := prng.Stream(cfg.Seed, 1, uint64(rep))
		inst, err := workload.LinearSingletons(20, cfg.pick(1000, 200), 4, rng)
		if err != nil {
			return out, err
		}
		im, err := core.NewImitation(inst.Game, core.ImitationConfig{})
		if err != nil {
			return out, err
		}
		dyn, err := cfg.newDynamics(inst, im, prng.Mix(cfg.Seed, 11, uint64(rep)))
		if err != nil {
			return out, err
		}
		prev := dyn.Potential()
		for r := 0; r < rounds; r++ {
			s := dyn.Step()
			d := s.Potential - prev
			out.single[r] = d
			out.up[r] = d > 1e-9
			prev = s.Potential
		}

		netInst, err := workload.PolyNetwork(3, 3, cfg.pick(400, 100), 2, 6, rng)
		if err != nil {
			return out, err
		}
		imNet, err := core.NewImitation(netInst.Game, core.ImitationConfig{})
		if err != nil {
			return out, err
		}
		dynNet, err := cfg.newDynamics(netInst, imNet, prng.Mix(cfg.Seed, 12, uint64(rep)))
		if err != nil {
			return out, err
		}
		prev = dynNet.Potential()
		for r := 0; r < rounds; r++ {
			s := dynNet.Step()
			out.net[r] = s.Potential - prev
			prev = s.Potential
		}
		return out, nil
	})
	if err != nil {
		return t, err
	}

	singleDelta := make([][]float64, rounds)
	singleUp := make([]int, rounds)
	netDelta := make([][]float64, rounds)
	for _, out := range results {
		for r := 0; r < rounds; r++ {
			singleDelta[r] = append(singleDelta[r], out.single[r])
			if out.up[r] {
				singleUp[r]++
			}
			netDelta[r] = append(netDelta[r], out.net[r])
		}
	}

	violations := 0
	for _, r := range sampled {
		ms := stats.Mean(singleDelta[r])
		mn := stats.Mean(netDelta[r])
		if ms > 0 || mn > 0 {
			violations++
		}
		t.AddRow(r, ms, float64(singleUp[r])/float64(reps), mn)
	}
	t.AddNote("paper predicts every mean ΔΦ ≤ 0; measured violations: %d of %d sampled rounds (individual realizations may increase — only the mean is a super-martingale)", violations, len(sampled))
	return t, nil
}

// --- E3: headline — log(n) convergence to approx equilibria ----------------

func runE3(cfg Config) (Table, error) {
	t := Table{
		ID:      "E3",
		Title:   "Rounds to a (δ,ε,ν)-equilibrium vs n (δ = ε = 0.1)",
		Claim:   "Theorem 7 / Corollary 8: expected rounds grow only logarithmically in n",
		Headers: []string{"instance", "n", "mean rounds", "CI95", "rounds/ln(n)", "ln(Φ0/Φ*)"},
	}
	const delta, eps = 0.1, 0.1
	reps := cfg.pick(10, 3)
	ns := []int{64, 256, 1024, 4096, 16384}
	if cfg.Quick {
		ns = []int{64, 256, 1024}
	}
	maxRounds := cfg.pick(200000, 20000)

	var xs, ys []float64
	for _, n := range ns {
		n := n
		type repOut struct {
			rounds   float64
			logRatio float64
		}
		results, err := mapReps(cfg, reps, func(rep int) (repOut, error) {
			rng := prng.Stream(cfg.Seed, 3, uint64(rep), uint64(n))
			inst, err := workload.LinearSingletons(20, n, 4, rng)
			if err != nil {
				return repOut{}, err
			}
			// The theorem's bound is stated in terms of ln(Φ(x0)/Φ*);
			// compute both sides exactly.
			phiStar, err := opt.MinPotentialSingleton(inst.Game)
			if err != nil {
				return repOut{}, err
			}
			logRatio := math.Log(inst.State.Potential() / phiStar.Cost)
			im, err := core.NewImitation(inst.Game, core.ImitationConfig{})
			if err != nil {
				return repOut{}, err
			}
			dyn, err := cfg.newDynamics(inst, im, prng.Mix(cfg.Seed, 31, uint64(rep), uint64(n)))
			if err != nil {
				return repOut{}, err
			}
			res := dyn.Run(maxRounds, dynamics.FromCore(core.StopWhenApproxEq(delta, eps, im.Nu())))
			return repOut{rounds: float64(res.Rounds), logRatio: logRatio}, nil
		})
		if err != nil {
			return t, err
		}
		var rounds, logRatios []float64
		for _, out := range results {
			rounds = append(rounds, out.rounds)
			logRatios = append(logRatios, out.logRatio)
		}
		s, err := stats.Summarize(rounds)
		if err != nil {
			return t, err
		}
		t.AddRow("linear singletons m=20", n, s.Mean, s.CI95(), s.Mean/math.Log(float64(n)), stats.Mean(logRatios))
		xs = append(xs, float64(n))
		ys = append(ys, s.Mean)
	}
	if fit, err := stats.LogFit(xs, ys); err == nil {
		t.AddNote("log fit: rounds ≈ %.3g + %.3g·ln(n) (R² = %.3f); a slope this small means rounds are essentially flat in n — consistent with (and stronger than) the O(log n) upper bound. Low R² here reflects the absence of any trend to explain, not a bad fit", fit.Intercept, fit.Slope, fit.R2)
	}
	if fit, err := stats.PowerFit(xs, addOne(ys)); err == nil {
		t.AddNote("power fit exponent %.3f (≈ 0 ⇒ sub-polynomial growth in n, as Theorem 7 requires; contrast with exponent ≈ 1 in E7)", fit.Slope)
	}
	t.AddNote("ln(Φ0/Φ*) is flat in n on these instances (random starts have bounded potential ratio), so the theorem's O((d/ε²δ)·ln(Φ0/Φ*)) bound itself predicts near-constant rounds here")
	return t, nil
}

func addOne(ys []float64) []float64 {
	out := make([]float64, len(ys))
	for i, y := range ys {
		out[i] = y + 1
	}
	return out
}

// --- E4: parameter sweeps ---------------------------------------------------

func runE4(cfg Config) (Table, error) {
	t := Table{
		ID:      "E4",
		Title:   "Rounds to a (δ,ε,ν)-equilibrium vs approximation parameters",
		Claim:   "Theorem 7: rounds = O(d/(ε²δ)·log(Φ0/Φ*))",
		Headers: []string{"sweep", "value", "mean rounds", "CI95"},
	}
	reps := cfg.pick(10, 3)
	n := cfg.pick(4096, 512)
	maxRounds := cfg.pick(200000, 20000)

	measure := func(key uint64, delta, eps float64, degree float64) (float64, float64, error) {
		results, err := mapReps(cfg, reps, func(rep int) (dynamics.RunResult, error) {
			rng := prng.Stream(cfg.Seed, 4, key, uint64(rep))
			var (
				inst *workload.Instance
				err  error
			)
			if degree == 1 {
				inst, err = workload.LinearSingletons(20, n, 4, rng)
			} else {
				inst, err = workload.MonomialSingletons(20, n, degree, 4, rng)
			}
			if err != nil {
				return dynamics.RunResult{}, err
			}
			im, err := core.NewImitation(inst.Game, core.ImitationConfig{})
			if err != nil {
				return dynamics.RunResult{}, err
			}
			dyn, err := cfg.newDynamics(inst, im, prng.Mix(cfg.Seed, 41, key, uint64(rep)))
			if err != nil {
				return dynamics.RunResult{}, err
			}
			return dyn.Run(maxRounds, dynamics.FromCore(core.StopWhenApproxEq(delta, eps, im.Nu()))), nil
		})
		if err != nil {
			return 0, 0, err
		}
		var rounds []float64
		for _, res := range results {
			rounds = append(rounds, float64(res.Rounds))
		}
		s, err := stats.Summarize(rounds)
		if err != nil {
			return 0, 0, err
		}
		return s.Mean, s.CI95(), nil
	}

	var epsX, epsY []float64
	for i, eps := range []float64{0.4, 0.2, 0.1, 0.05} {
		mean, ci, err := measure(uint64(100+i), 0.1, eps, 1)
		if err != nil {
			return t, err
		}
		t.AddRow("ε (δ=0.1, d=1)", eps, mean, ci)
		epsX = append(epsX, 1/(eps*eps))
		epsY = append(epsY, mean)
	}
	var deltaX, deltaY []float64
	for i, delta := range []float64{0.4, 0.2, 0.1, 0.05} {
		mean, ci, err := measure(uint64(200+i), delta, 0.1, 1)
		if err != nil {
			return t, err
		}
		t.AddRow("δ (ε=0.1, d=1)", delta, mean, ci)
		deltaX = append(deltaX, 1/delta)
		deltaY = append(deltaY, mean)
	}
	for i, d := range []float64{1, 2, 3, 4} {
		mean, ci, err := measure(uint64(300+i), 0.1, 0.1, d)
		if err != nil {
			return t, err
		}
		t.AddRow("degree d (δ=ε=0.1)", d, mean, ci)
	}
	if fit, err := stats.LinearFit(epsX, epsY); err == nil {
		t.AddNote("rounds vs 1/ε²: slope %.3g, R² = %.3f (theory: linear in 1/ε²)", fit.Slope, fit.R2)
	}
	if fit, err := stats.LinearFit(deltaX, deltaY); err == nil {
		t.AddNote("rounds vs 1/δ: slope %.3g, R² = %.3f (theory: linear in 1/δ)", fit.Slope, fit.R2)
	}
	return t, nil
}

// --- E5: overshooting ablation ----------------------------------------------

func runE5(cfg Config) (Table, error) {
	t := Table{
		ID:      "E5",
		Title:   "Two-link overshoot: damped (λ/d) vs undamped (λ) imitation",
		Claim:   "Section 2.3: undamped migration overshoots the balanced state by Θ(d)",
		Headers: []string{"degree d", "max ℓ_poly/c damped", "max ℓ_poly/c undamped", "overshoot ratio"},
	}
	n := cfg.pick(1024, 256)
	rounds := cfg.pick(400, 150)
	degrees := []float64{1, 2, 4, 6, 8}
	type trialOut struct {
		damped, undamped float64
	}
	// No replications here — the trials (one per degree, two engine runs
	// each) are themselves the independent units fanned out over the pool.
	results, err := mapReps(cfg, len(degrees), func(i int) (trialOut, error) {
		d := degrees[i]
		worst := func(undamped bool) (float64, error) {
			inst, err := workload.TwoLink(n, d, n/128)
			if err != nil {
				return 0, err
			}
			var proto core.Protocol
			if undamped {
				proto, err = core.NewUndampedImitation(inst.Game, 1, 0)
			} else {
				proto, err = core.NewImitation(inst.Game, core.ImitationConfig{Lambda: 1, DisableNu: true})
			}
			if err != nil {
				return 0, err
			}
			dyn, err := cfg.newDynamics(inst, proto, prng.Mix(cfg.Seed, 51, uint64(d*10), boolKey(undamped)))
			if err != nil {
				return 0, err
			}
			c := inst.Game.Resource(0).Latency.Value(1)
			worstRatio := 0.0
			for r := 0; r < rounds; r++ {
				dyn.Step()
				if ratio := inst.State.ResourceLatency(1) / c; ratio > worstRatio {
					worstRatio = ratio
				}
			}
			return worstRatio, nil
		}
		damped, err := worst(false)
		if err != nil {
			return trialOut{}, err
		}
		undamped, err := worst(true)
		if err != nil {
			return trialOut{}, err
		}
		return trialOut{damped: damped, undamped: undamped}, nil
	})
	if err != nil {
		return t, err
	}
	for i, d := range degrees {
		out := results[i]
		t.AddRow(d, out.damped, out.undamped, out.undamped/math.Max(out.damped, 1e-9))
	}
	t.AddNote("paper predicts the damped column stays ≈ 1 while the undamped column grows with d")
	return t, nil
}

func boolKey(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// --- E6: sequential imitation lower bound -----------------------------------

func runE6(cfg Config) (Table, error) {
	t := Table{
		ID:      "E6",
		Title:   "Forced-length sequential imitation schedules on tripled threshold games",
		Claim:   "Theorem 6: sequential imitation admits instances where every schedule is very long (exponential via PLS-hard MaxCut instances; see the substitution note)",
		Headers: []string{"k (base players)", "players", "longest sequence", "length/k²", "shortest (min-gain)", "states", "complete"},
	}
	maxK := cfg.pick(11, 7)
	type trialOut struct {
		longest  baseline.LongestResult
		seqSteps int
	}
	ks := make([]int, 0, maxK-2)
	for k := 3; k <= maxK; k++ {
		ks = append(ks, k)
	}
	// One independent job per gadget size k: the exhaustive DFS dominates
	// this experiment's wall clock, so the sizes fan out over the pool.
	results, err := mapReps(cfg, len(ks), func(i int) (trialOut, error) {
		k := ks[i]
		w, err := geometricPathWeights(k)
		if err != nil {
			return trialOut{}, err
		}
		inst, err := threshold.BuildTripled(w)
		if err != nil {
			return trialOut{}, err
		}
		// Start from the all-false cut (counter at a low value).
		side := make([]bool, k)
		st, err := inst.InitialState(side)
		if err != nil {
			return trialOut{}, err
		}
		longest, err := baseline.LongestImitationSequence(st.Clone(), cfg.pick(4_000_000, 300_000))
		if err != nil {
			return trialOut{}, err
		}
		// On this gadget every improving schedule is forced through the
		// same chain, so min-gain scheduling measures the SHORTEST
		// sequence (Theorem 6 lower-bounds the shortest).
		seq, err := dynamics.NewSequentialImitation(st.Clone(), baseline.PolicyMinGain, inst.MinGain, nil)
		if err != nil {
			return trialOut{}, err
		}
		res := seq.Run(1_000_000, nil)
		if err := seq.Err(); err != nil {
			return trialOut{}, err
		}
		return trialOut{longest: longest, seqSteps: res.Rounds}, nil
	})
	if err != nil {
		return t, err
	}
	for i, k := range ks {
		out := results[i]
		t.AddRow(k, 3*k, out.longest.Length, float64(out.longest.Length)/float64(k*k),
			out.seqSteps, out.longest.StatesVisited, out.longest.Complete)
	}
	t.AddNote("substitution (DESIGN.md §2): the paper's exponential instances come from PLS-hard MaxCut families [1] that are not constructively specified; this explicit weighted-chain gadget (path graph, a_{i,i+1} = 2^i) forces EVERY improving schedule — longest equals shortest — through a Θ(k²) chain, super-linear in the number of players, and the exhaustive search machinery measures any plugged-in instance family exactly")
	t.AddNote("the chain is inherently sequential (one improvable class at a time), matching the paper's observation that a single step can already be slow; exponential growth needs the non-constructive PLS instances")
	return t, nil
}

// geometricPathWeights builds the binary-counter MaxCut gadget: a path graph
// with a_{i,i+1} = 2^i and zero weight elsewhere.
func geometricPathWeights(k int) (threshold.Weights, error) {
	w := make([][]float64, k)
	for i := range w {
		w[i] = make([]float64, k)
	}
	for i := 0; i+1 < k; i++ {
		v := math.Pow(2, float64(i))
		w[i][i+1] = v
		w[i+1][i] = v
	}
	return threshold.NewWeights(w)
}

// --- E7: Ω(n) lower bound for δ = 0 ------------------------------------------

func runE7(cfg Config) (Table, error) {
	t := Table{
		ID:      "E7",
		Title:   "Rounds until the unique last improvement happens (last-agent instance)",
		Claim:   "Section 4 (end): any sampling protocol needs Ω(n) rounds to satisfy all agents",
		Headers: []string{"n", "mean rounds to fix", "CI95", "rounds/n"},
	}
	reps := cfg.pick(30, 8)
	ns := []int{16, 64, 256, 1024}
	if cfg.Quick {
		ns = []int{16, 64, 256}
	}
	maxRounds := cfg.pick(500000, 100000)
	var xs, ys []float64
	for _, n := range ns {
		n := n
		results, err := mapReps(cfg, reps, func(rep int) (dynamics.RunResult, error) {
			inst, err := workload.LastAgent(n)
			if err != nil {
				return dynamics.RunResult{}, err
			}
			im, err := core.NewImitation(inst.Game, core.ImitationConfig{DisableNu: true})
			if err != nil {
				return dynamics.RunResult{}, err
			}
			dyn, err := cfg.newDynamics(inst, im, prng.Mix(cfg.Seed, 71, uint64(rep), uint64(n)))
			if err != nil {
				return dynamics.RunResult{}, err
			}
			return dyn.Run(maxRounds, func(_ dynamics.Dynamics, r dynamics.RoundStats) bool {
				return r.Movers > 0
			}), nil
		})
		if err != nil {
			return t, err
		}
		var rounds []float64
		for _, res := range results {
			rounds = append(rounds, float64(res.Rounds))
		}
		s, err := stats.Summarize(rounds)
		if err != nil {
			return t, err
		}
		t.AddRow(n, s.Mean, s.CI95(), s.Mean/float64(n))
		xs = append(xs, float64(n))
		ys = append(ys, s.Mean)
	}
	if fit, err := stats.PowerFit(xs, ys); err == nil {
		t.AddNote("power fit: rounds ∝ n^%.2f, R² = %.3f (theory: exponent 1 — linear in n)", fit.Slope, fit.R2)
	}
	return t, nil
}

// --- E8: extinction probability -----------------------------------------------

func runE8(cfg Config) (Table, error) {
	t := Table{
		ID:      "E8",
		Title:   "Strategy extinction frequency (zero-offset singletons, ν dropped)",
		Claim:   "Theorem 9: P[some link empties within poly(n) rounds] = 2^{−Ω(n)}",
		Headers: []string{"n", "runs", "extinct runs", "frequency", "min load seen"},
	}
	reps := cfg.pick(60, 12)
	horizon := cfg.pick(2000, 400)
	ns := []int{16, 32, 64, 128, 256}
	if cfg.Quick {
		ns = []int{16, 32, 64}
	}
	for _, n := range ns {
		n := n
		type repOut struct {
			extinct bool
			minLoad int64
		}
		results, err := mapReps(cfg, reps, func(rep int) (repOut, error) {
			out := repOut{minLoad: int64(math.MaxInt64)}
			rng := prng.Stream(cfg.Seed, 8, uint64(rep), uint64(n))
			inst, err := workload.ZeroOffsetSingletons(8, n, 2, 3, rng)
			if err != nil {
				return out, err
			}
			im, err := core.NewImitation(inst.Game, core.ImitationConfig{DisableNu: true})
			if err != nil {
				return out, err
			}
			dyn, err := cfg.newDynamics(inst, im, prng.Mix(cfg.Seed, 81, uint64(rep), uint64(n)))
			if err != nil {
				return out, err
			}
			dead := hasEmptyLink(inst.State)
			for r := 0; r < horizon && !dead; r++ {
				dyn.Step()
				if l := minLinkLoad(inst.State); l < out.minLoad {
					out.minLoad = l
				}
				dead = hasEmptyLink(inst.State)
			}
			out.extinct = dead
			return out, nil
		})
		if err != nil {
			return t, err
		}
		extinct := 0
		minLoad := int64(math.MaxInt64)
		for _, out := range results {
			if out.extinct {
				extinct++
			}
			if out.minLoad < minLoad {
				minLoad = out.minLoad
			}
		}
		t.AddRow(n, reps, extinct, float64(extinct)/float64(reps), minLoad)
	}
	t.AddNote("paper predicts the frequency column collapses to 0 as n grows; small n may show extinctions (the bound is exponential in n)")
	return t, nil
}

func hasEmptyLink(st *game.State) bool {
	for e := 0; e < st.Game().NumResources(); e++ {
		if st.Load(e) == 0 {
			return true
		}
	}
	return false
}

func minLinkLoad(st *game.State) int64 {
	best := int64(math.MaxInt64)
	for e := 0; e < st.Game().NumResources(); e++ {
		if l := st.Load(e); l < best {
			best = l
		}
	}
	return best
}

// --- E9: price of imitation ------------------------------------------------------

func runE9(cfg Config) (Table, error) {
	t := Table{
		ID:      "E9",
		Title:   "Price of Imitation on linear singletons (x̃_e = Ω(log n))",
		Claim:   "Theorem 10: E[SC(final)] ≤ (3+o(1))·n/A_Γ",
		Headers: []string{"n", "mean PoI", "max PoI", "mean rounds", "extinctions"},
	}
	reps := cfg.pick(15, 5)
	ns := []int{256, 1024, 4096}
	if cfg.Quick {
		ns = []int{256, 1024}
	}
	maxRounds := cfg.pick(100000, 10000)
	for _, n := range ns {
		n := n
		type repOut struct {
			ratio, rounds float64
			extinct       bool
		}
		results, err := mapReps(cfg, reps, func(rep int) (repOut, error) {
			rng := prng.Stream(cfg.Seed, 9, uint64(rep), uint64(n))
			inst, err := workload.LinearSingletons(8, n, 4, rng)
			if err != nil {
				return repOut{}, err
			}
			frac, err := opt.FractionalLinearSingleton(inst.Game)
			if err != nil {
				return repOut{}, err
			}
			im, err := core.NewImitation(inst.Game, core.ImitationConfig{})
			if err != nil {
				return repOut{}, err
			}
			dyn, err := cfg.newDynamics(inst, im, prng.Mix(cfg.Seed, 91, uint64(rep), uint64(n)))
			if err != nil {
				return repOut{}, err
			}
			res := dyn.Run(maxRounds, dynamics.FromCore(core.StopWhenImitationStable(im.Nu())))
			return repOut{
				ratio:   inst.State.SocialCost() / frac.Cost,
				rounds:  float64(res.Rounds),
				extinct: hasEmptyLink(inst.State),
			}, nil
		})
		if err != nil {
			return t, err
		}
		var ratios, roundsTaken []float64
		extinctions := 0
		for _, out := range results {
			ratios = append(ratios, out.ratio)
			roundsTaken = append(roundsTaken, out.rounds)
			if out.extinct {
				extinctions++
			}
		}
		s, err := stats.Summarize(ratios)
		if err != nil {
			return t, err
		}
		t.AddRow(n, s.Mean, s.Max, stats.Mean(roundsTaken), extinctions)
	}
	t.AddNote("paper bound is 3+o(1) against the fractional optimum n/A_Γ; measured means are expected well below it")
	return t, nil
}

// --- E10: exploration -------------------------------------------------------------

func runE10(cfg Config) (Table, error) {
	t := Table{
		ID:      "E10",
		Title:   "Escaping lost strategies: imitation vs exploration vs combined",
		Claim:   "Theorem 15 / Section 6: only innovative protocols reach Nash from a collapsed start",
		Headers: []string{"protocol", "reached Nash", "mean rounds (capped)", "mean final SC / OPT"},
	}
	reps := cfg.pick(15, 5)
	n := cfg.pick(200, 64)
	maxRounds := cfg.pick(30000, 6000)

	type protoCase struct {
		name  string
		build func(g *game.Game) (core.Protocol, error)
	}
	cases := []protoCase{
		{name: "imitation", build: func(g *game.Game) (core.Protocol, error) {
			return core.NewImitation(g, core.ImitationConfig{DisableNu: true})
		}},
		{name: "exploration", build: func(g *game.Game) (core.Protocol, error) {
			return core.NewExploration(g, core.ExplorationConfig{Sampler: core.NewRegisteredSampler(g)})
		}},
		{name: "combined p=0.5", build: func(g *game.Game) (core.Protocol, error) {
			return core.NewCombined(g, core.CombinedConfig{
				ExploreProbability: 0.5,
				Imitation:          core.ImitationConfig{DisableNu: true},
				Exploration:        core.ExplorationConfig{Sampler: core.NewRegisteredSampler(g)},
			})
		}},
	}

	for ci, pc := range cases {
		ci, pc := ci, pc
		type repOut struct {
			nash          bool
			rounds, ratio float64
		}
		results, err := mapReps(cfg, reps, func(rep int) (repOut, error) {
			rng := prng.Stream(cfg.Seed, 10, uint64(ci), uint64(rep))
			inst, err := workload.LinearSingletons(6, n, 5, rng)
			if err != nil {
				return repOut{}, err
			}
			// Collapse the start: everyone on the single worst link.
			slowest := worstLink(inst.Game)
			collapsed, err := game.NewState(inst.Game, slowest)
			if err != nil {
				return repOut{}, err
			}
			inst.State = collapsed
			sol, err := opt.SolveSingleton(inst.Game)
			if err != nil {
				return repOut{}, err
			}
			proto, err := pc.build(inst.Game)
			if err != nil {
				return repOut{}, err
			}
			dyn, err := cfg.newDynamics(inst, proto, prng.Mix(cfg.Seed, 101, uint64(ci), uint64(rep)))
			if err != nil {
				return repOut{}, err
			}
			res := dyn.Run(maxRounds, dynamics.FromCore(core.StopWhenNash(eq.SingletonOracle{}, 0)))
			return repOut{
				nash:   res.Converged,
				rounds: float64(res.Rounds),
				ratio:  inst.State.SocialCost() / sol.Cost,
			}, nil
		})
		if err != nil {
			return t, err
		}
		nash := 0
		var rounds, ratios []float64
		for _, out := range results {
			if out.nash {
				nash++
			}
			rounds = append(rounds, out.rounds)
			ratios = append(ratios, out.ratio)
		}
		t.AddRow(pc.name, fmt.Sprintf("%d/%d", nash, reps), stats.Mean(rounds), stats.Mean(ratios))
	}
	t.AddNote("imitation cannot leave the collapsed support (0 Nash, SC ratio ≫ 1); exploration and the combination always reach Nash")
	return t, nil
}

// worstLink returns the singleton strategy whose link has the largest
// latency at full congestion.
func worstLink(g *game.Game) int {
	worst := 0
	worstVal := math.Inf(-1)
	for s := 0; s < g.NumStrategies(); s++ {
		e := g.StrategyView(s)[0]
		if v := g.Resource(int(e)).Latency.Value(float64(g.NumPlayers())); v > worstVal {
			worstVal = v
			worst = s
		}
	}
	return worst
}
