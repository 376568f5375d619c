package dynamics

import (
	"math"
	"testing"

	"congame/internal/baseline"
	"congame/internal/core"
	"congame/internal/eq"
	"congame/internal/game"
	"congame/internal/latency"
	"congame/internal/prng"
	"congame/internal/weighted"
	"congame/internal/workload"
)

func newTestInstance(t *testing.T, seed uint64) *workload.Instance {
	t.Helper()
	inst, err := workload.LinearSingletons(8, 200, 4, prng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func newTestEngine(t *testing.T, inst *workload.Instance, seed uint64) (*core.Engine, *core.Imitation) {
	t.Helper()
	im, err := core.NewImitation(inst.Game, core.ImitationConfig{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEngine(inst.State, im, core.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	return e, im
}

// TestEngineAdapterParity drives the same simulation directly and through
// the adapter: trajectories, stop-condition outcomes, and RunResults must
// be identical.
func TestEngineAdapterParity(t *testing.T) {
	const seed = 42
	instA := newTestInstance(t, seed)
	engA, imA := newTestEngine(t, instA, seed)
	direct := engA.Run(500, core.StopWhenApproxEq(0.1, 0.1, imA.Nu()))

	instB := newTestInstance(t, seed)
	engB, imB := newTestEngine(t, instB, seed)
	dyn := FromEngine(engB)
	adapted := dyn.Run(500, FromCore(core.StopWhenApproxEq(0.1, 0.1, imB.Nu())))

	if adapted.Rounds != direct.Rounds || adapted.Converged != direct.Converged ||
		adapted.TotalMoves != direct.TotalMoves || adapted.Final != RoundStats(direct.Final) {
		t.Errorf("adapter RunResult = %+v, direct = %+v", adapted, direct)
	}
	for p := 0; p < instA.Game.NumPlayers(); p++ {
		if instA.State.Assign(p) != instB.State.Assign(p) {
			t.Fatalf("final states diverge at player %d", p)
		}
	}
	if dyn.Round() != engB.Round() || dyn.Potential() != engB.Potential() {
		t.Errorf("accessors diverge: round %d vs %d, potential %v vs %v",
			dyn.Round(), engB.Round(), dyn.Potential(), engB.Potential())
	}
}

// TestEngineAdapterStepParity compares per-round stats from Step.
func TestEngineAdapterStepParity(t *testing.T) {
	const seed = 7
	instA := newTestInstance(t, seed)
	engA, _ := newTestEngine(t, instA, seed)
	instB := newTestInstance(t, seed)
	engB, _ := newTestEngine(t, instB, seed)
	dyn := FromEngine(engB)
	for r := 0; r < 30; r++ {
		if got, want := dyn.Step(), RoundStats(engA.Step()); got != want {
			t.Fatalf("round %d: adapter stats %+v, direct %+v", r, got, want)
		}
	}
}

// TestEngineAdapterSnapshotOutsideRun exercises CurrentSnapshot outside a
// Run, where the adapter must rebuild a fresh view.
func TestEngineAdapterSnapshotOutsideRun(t *testing.T) {
	inst := newTestInstance(t, 3)
	eng, _ := newTestEngine(t, inst, 3)
	dyn := FromEngine(eng)
	dyn.Step()
	snap := dyn.CurrentSnapshot()
	if got, want := snap.AvgLatency(), inst.State.AvgLatency(); math.Abs(got-want) > 1e-12 {
		t.Errorf("snapshot AvgLatency = %v, state = %v", got, want)
	}
}

// TestSequentialBestResponseParity mirrors the harness loop the adapter
// replaced: per-activation best response until an approximate equilibrium,
// with identical step counts and convergence verdicts.
func TestSequentialBestResponseParity(t *testing.T) {
	const maxSteps = 5000
	stopped := func(st *game.State) bool {
		report, err := eq.CheckApprox(st, 0.1, 0.1, st.Game().Nu())
		return err == nil && report.AtEquilibrium
	}

	// Hand-rolled loop (the pre-refactor experiment shape).
	instA := newTestInstance(t, 11)
	steps := 0
	for steps < maxSteps && !stopped(instA.State) {
		res, err := baseline.BestResponse(instA.State, instA.Oracle, baseline.PolicyBestGain, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Converged {
			break
		}
		steps++
	}
	wantConverged := stopped(instA.State)

	// Adapter.
	instB := newTestInstance(t, 11)
	dyn, err := NewBestResponse(instB.State, instB.Oracle, baseline.PolicyBestGain, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := dyn.Run(maxSteps, func(_ Dynamics, _ RoundStats) bool { return stopped(instB.State) })
	if err := dyn.Err(); err != nil {
		t.Fatal(err)
	}

	if res.Rounds != steps || res.Converged != wantConverged {
		t.Errorf("adapter (rounds=%d, converged=%v), loop (steps=%d, converged=%v)",
			res.Rounds, res.Converged, steps, wantConverged)
	}
	for p := 0; p < instA.Game.NumPlayers(); p++ {
		if instA.State.Assign(p) != instB.State.Assign(p) {
			t.Fatalf("final states diverge at player %d", p)
		}
	}
	if res.TotalMoves != res.Rounds {
		t.Errorf("best response TotalMoves = %d, want = rounds %d", res.TotalMoves, res.Rounds)
	}
}

// TestSequentialImitationAbsorbs runs sequential imitation to absorption
// with no stop condition and cross-checks against the one-shot baseline
// call.
func TestSequentialImitationAbsorbs(t *testing.T) {
	instA := newTestInstance(t, 5)
	direct, err := baseline.SequentialImitation(instA.State, baseline.PolicyMinGain, 0, nil, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if !direct.Converged {
		t.Fatal("direct run did not absorb")
	}

	instB := newTestInstance(t, 5)
	dyn, err := NewSequentialImitation(instB.State, baseline.PolicyMinGain, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := dyn.Run(100000, nil)
	if err := dyn.Err(); err != nil {
		t.Fatal(err)
	}
	if res.Rounds != direct.Steps {
		t.Errorf("adapter rounds = %d, direct steps = %d", res.Rounds, direct.Steps)
	}
	if !dyn.Absorbed() {
		t.Error("adapter did not report absorption")
	}
	if res.Converged {
		t.Error("absorption without a stop condition must not report Converged")
	}
	if dyn.Moves() != res.Rounds {
		t.Errorf("moves = %d, rounds = %d", dyn.Moves(), res.Rounds)
	}
}

// TestGoldbergCountsSelections checks the chunked activation accounting.
func TestGoldbergCountsSelections(t *testing.T) {
	inst := newTestInstance(t, 9)
	rng := prng.New(17)
	dyn, err := NewGoldberg(inst.State, rng, 50)
	if err != nil {
		t.Fatal(err)
	}
	s := dyn.Step()
	if dyn.Round() != 50 {
		t.Errorf("one chunk = %d selections, want 50", dyn.Round())
	}
	if s.Movers != 0 {
		t.Errorf("goldberg must not report per-chunk movers, got %d", s.Movers)
	}
	res := dyn.Run(200, nil)
	if res.Rounds != 200 {
		t.Errorf("budgeted run executed %d selections, want 200", res.Rounds)
	}
}

// TestSequentialReportsPotential: every sequential kind reports a running
// Φ in its RoundStats that tracks the exact recompute over 50 activations,
// and never NaN.
func TestSequentialReportsPotential(t *testing.T) {
	kinds := []struct {
		name string
		make func(inst *workload.Instance) (*Sequential, error)
	}{
		{"best-response", func(inst *workload.Instance) (*Sequential, error) {
			return NewBestResponse(inst.State, inst.Oracle, baseline.PolicyRandom, prng.New(3))
		}},
		{"epsilon-greedy", func(inst *workload.Instance) (*Sequential, error) {
			return NewEpsilonGreedy(inst.State, inst.Oracle, 0.05, prng.New(3))
		}},
		{"sequential-imitation", func(inst *workload.Instance) (*Sequential, error) {
			return NewSequentialImitation(inst.State, baseline.PolicyRandom, 0, prng.New(3))
		}},
		{"goldberg", func(inst *workload.Instance) (*Sequential, error) {
			return NewGoldberg(inst.State, prng.New(3), 10)
		}},
	}
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			inst := newTestInstance(t, 21)
			phi0 := inst.State.Potential()
			dyn, err := k.make(inst)
			if err != nil {
				t.Fatal(err)
			}
			var s RoundStats
			for i := 0; i < 50; i++ {
				s = dyn.Step()
				want := dyn.Potential()
				if math.IsNaN(s.Potential) || math.Abs(s.Potential-want) > 1e-9*math.Abs(want) {
					t.Fatalf("activation %d: reported Φ = %v, exact %v", i, s.Potential, want)
				}
			}
			if err := dyn.Err(); err != nil {
				t.Fatal(err)
			}
			if !(s.Potential < phi0) {
				t.Errorf("Φ %v did not fall from %v: nothing moved", s.Potential, phi0)
			}
		})
	}
}

// TestSequentialValidation propagates baseline constructor errors.
func TestSequentialValidation(t *testing.T) {
	inst := newTestInstance(t, 1)
	if _, err := NewBestResponse(inst.State, nil, baseline.PolicyBestGain, nil); err == nil {
		t.Error("nil oracle accepted")
	}
	if _, err := NewSequentialImitation(inst.State, baseline.PolicyRandom, 0, nil); err == nil {
		t.Error("random policy without rng accepted")
	}
	if _, err := NewGoldberg(inst.State, nil, 10); err == nil {
		t.Error("nil rng accepted")
	}
}

func newWeightedEngine(t *testing.T, seed uint64, workers int) (*weighted.Engine, *weighted.State) {
	t.Helper()
	fns := make([]latency.Function, 4)
	for e := range fns {
		f, err := latency.NewLinear(float64(e + 1))
		if err != nil {
			t.Fatal(err)
		}
		fns[e] = f
	}
	rng := prng.New(seed)
	weights := make([]float64, 100)
	for i := range weights {
		weights[i] = 1 + rng.Float64()*3
	}
	g, err := weighted.NewGame(fns, weights)
	if err != nil {
		t.Fatal(err)
	}
	st, err := weighted.NewRandomState(g, rng)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := weighted.NewProtocol(g, 0.25, 0)
	if err != nil {
		t.Fatal(err)
	}
	e, err := weighted.NewEngine(st, proto, seed, weighted.WithWorkers(workers))
	if err != nil {
		t.Fatal(err)
	}
	return e, st
}

// TestWeightedAdapterParity checks Run(maxRounds, WeightedNash(eps))
// against the engine's own Run(maxRounds, eps).
func TestWeightedAdapterParity(t *testing.T) {
	const eps = 3.0
	engA, stA := newWeightedEngine(t, 23, 1)
	rounds, ok := engA.Run(2000, eps)

	engB, stB := newWeightedEngine(t, 23, 1)
	res := FromWeighted(engB).Run(2000, WeightedNash(eps))

	if res.Rounds != rounds || res.Converged != ok {
		t.Errorf("adapter (rounds=%d, converged=%v), engine (rounds=%d, converged=%v)",
			res.Rounds, res.Converged, rounds, ok)
	}
	for i := 0; i < stA.Game().NumPlayers(); i++ {
		if stA.Assign(i) != stB.Assign(i) {
			t.Fatalf("final states diverge at player %d", i)
		}
	}
	if phi := FromWeighted(engB).Potential(); math.IsNaN(phi) {
		t.Error("linear weighted game reported NaN potential")
	}
}

// TestStopHelpersIgnoreForeignFamilies: family-specific stops never fire
// on other adapters.
func TestStopHelpersIgnoreForeignFamilies(t *testing.T) {
	inst := newTestInstance(t, 2)
	eng, _ := newTestEngine(t, inst, 2)
	dyn := FromEngine(eng)
	if WeightedNash(1e9)(dyn, RoundStats{}) {
		t.Error("WeightedNash fired on a core engine")
	}
	wEng, _ := newWeightedEngine(t, 2, 1)
	if FromCore(core.StopWhenPotentialAtMost(math.Inf(1)))(FromWeighted(wEng), RoundStats{}) {
		t.Error("FromCore fired on a weighted engine")
	}
}

// TestWhenQuiet fires after the configured number of quiet rounds.
func TestWhenQuiet(t *testing.T) {
	stop := WhenQuiet(2)
	seq := []RoundStats{
		{Round: -1},           // pre-run probe
		{Round: 0, Movers: 3}, // active
		{Round: 1, Movers: 0}, // quiet 1
		{Round: 2, Movers: 0}, // quiet 2 → fire
	}
	want := []bool{false, false, false, true}
	for i, r := range seq {
		if got := stop(nil, r); got != want[i] {
			t.Errorf("probe %d: fired = %v, want %v", i, got, want[i])
		}
	}
}
