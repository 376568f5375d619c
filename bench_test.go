package congame_test

import (
	"testing"

	"congame/internal/core"
	"congame/internal/game"
	"congame/internal/prng"
	"congame/internal/sim"
	"congame/internal/workload"
)

// benchExperiment runs a registered experiment once per benchmark
// iteration in Quick mode. Each experiment regenerates one table of
// EXPERIMENTS.md; `go test -bench .` therefore re-measures every claim
// the Go registry reproduces (E2 is a scenario spec, run by cmd/sweep).
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	exp, ok := sim.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	for i := 0; i < b.N; i++ {
		if _, err := exp.Run(sim.Config{Seed: uint64(i) + 1, Quick: true}); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
}

// BenchmarkE1SuperMartingale regenerates E1 (Corollary 3).
func BenchmarkE1SuperMartingale(b *testing.B) { benchExperiment(b, "E1") }

// BenchmarkE3ApproxEq regenerates E3 (Theorem 7 / Corollary 8 — headline).
func BenchmarkE3ApproxEq(b *testing.B) { benchExperiment(b, "E3") }

// BenchmarkE4ParamSweep regenerates E4 (Theorem 7 parameter shapes).
func BenchmarkE4ParamSweep(b *testing.B) { benchExperiment(b, "E4") }

// BenchmarkE5Overshoot regenerates E5 (Section 2.3 ablation).
func BenchmarkE5Overshoot(b *testing.B) { benchExperiment(b, "E5") }

// BenchmarkE6SequentialLB regenerates E6 (Theorem 6).
func BenchmarkE6SequentialLB(b *testing.B) { benchExperiment(b, "E6") }

// BenchmarkE7LastAgent regenerates E7 (Section 4 Ω(n) bound).
func BenchmarkE7LastAgent(b *testing.B) { benchExperiment(b, "E7") }

// BenchmarkE8Extinction regenerates E8 (Theorem 9).
func BenchmarkE8Extinction(b *testing.B) { benchExperiment(b, "E8") }

// BenchmarkE9PriceOfImitation regenerates E9 (Theorem 10).
func BenchmarkE9PriceOfImitation(b *testing.B) { benchExperiment(b, "E9") }

// BenchmarkE10Exploration regenerates E10 (Theorem 15 / Section 6).
func BenchmarkE10Exploration(b *testing.B) { benchExperiment(b, "E10") }

// BenchmarkE11FluidLimit regenerates E11 (fluid-limit cross-validation).
func BenchmarkE11FluidLimit(b *testing.B) { benchExperiment(b, "E11") }

// BenchmarkE12ProtocolRace regenerates E12 (concurrent vs sequential).
func BenchmarkE12ProtocolRace(b *testing.B) { benchExperiment(b, "E12") }

// BenchmarkE13NetworkPoA regenerates E13 (price-of-anarchy bounds).
func BenchmarkE13NetworkPoA(b *testing.B) { benchExperiment(b, "E13") }

// BenchmarkE14Weighted regenerates E14 (weighted players extension).
func BenchmarkE14Weighted(b *testing.B) { benchExperiment(b, "E14") }

// BenchmarkEngineRound measures raw engine throughput: one concurrent
// round of the IMITATION PROTOCOL across player counts.
func BenchmarkEngineRound(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(benchName(n), func(b *testing.B) {
			inst, err := workload.LinearSingletons(20, n, 4, prng.New(1))
			if err != nil {
				b.Fatal(err)
			}
			im, err := core.NewImitation(inst.Game, core.ImitationConfig{})
			if err != nil {
				b.Fatal(err)
			}
			e, err := core.NewEngine(inst.State, im, core.WithSeed(1))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
			b.ReportMetric(float64(n), "players/round")
		})
	}
}

// BenchmarkEngineRoundNetwork measures a round on a network game where
// per-decision latency evaluation walks path resource lists.
func BenchmarkEngineRoundNetwork(b *testing.B) {
	inst, err := workload.PolyNetwork(4, 4, 10000, 2, 10, prng.New(3))
	if err != nil {
		b.Fatal(err)
	}
	im, err := core.NewImitation(inst.Game, core.ImitationConfig{})
	if err != nil {
		b.Fatal(err)
	}
	e, err := core.NewEngine(inst.State, im, core.WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkPotential measures full potential recomputation (the ground
// truth the engine's incremental bookkeeping is checked against).
func BenchmarkPotential(b *testing.B) {
	inst, err := workload.LinearSingletons(50, 50000, 4, prng.New(2))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = inst.State.Potential()
	}
}

// BenchmarkSwitchLatency measures the hot inner call of every decision.
func BenchmarkSwitchLatency(b *testing.B) {
	inst, err := workload.PolyNetwork(4, 4, 1000, 2, 10, prng.New(4))
	if err != nil {
		b.Fatal(err)
	}
	st := inst.State
	k := inst.Game.NumStrategies()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = st.SwitchLatency(i%k, (i+1)%k)
	}
}

func benchName(n int) string {
	switch {
	case n >= 1000000:
		return "n=1M"
	case n >= 1000:
		return "n=" + itoa(n/1000) + "k"
	default:
		return "n=" + itoa(n)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// TestBenchHarnessSmoke ensures the benchmark entry points work under
// plain `go test` as well.
func TestBenchHarnessSmoke(t *testing.T) {
	inst, err := workload.UniformSingletons(4, 64, prng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	im, err := core.NewImitation(inst.Game, core.ImitationConfig{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEngine(inst.State, im, core.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	res := e.Run(50, func(game.Snapshot, core.RoundStats) bool { return false })
	if res.Rounds != 50 {
		t.Fatalf("ran %d rounds, want 50", res.Rounds)
	}
}
