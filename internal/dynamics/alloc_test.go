package dynamics

// Allocation-regression test for the weighted adapter: its per-round
// RoundStats includes the exact linear potential, which used to re-derive
// the per-link slopes (an allocation plus a type switch per link) on
// every Step. The adapter now caches the slopes at wrap time; this test
// pins the whole adapter round at zero steady-state allocations, at one
// worker and at two (the engine's persistent decide pool), over several
// decide tiles with a ragged last one.

import (
	"testing"

	"congame/internal/latency"
	"congame/internal/prng"
	"congame/internal/weighted"
)

func TestWeightedAdapterStepZeroAllocs(t *testing.T) {
	rng := prng.New(2)
	fns := make([]latency.Function, 16)
	for e := range fns {
		f, err := latency.NewLinear(1 + float64(e)/4)
		if err != nil {
			t.Fatal(err)
		}
		fns[e] = f
	}
	weights := make([]float64, 4*prng.Tile+1001)
	for i := range weights {
		weights[i] = 1 + rng.Float64()*7
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
	for _, workers := range []int{1, 2} {
		e, err := weighted.NewEngine(st.Clone(), proto, 3, weighted.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		dyn := FromWeighted(e)
		for i := 0; i < 8; i++ {
			dyn.Step()
		}
		allocs := testing.AllocsPerRun(20, func() { dyn.Step() })
		if allocs != 0 {
			t.Fatalf("weighted adapter step at workers=%d allocated %.1f times per round, want 0", workers, allocs)
		}
	}
}
