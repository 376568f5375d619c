package trace_test

import (
	"math"
	"testing"

	"congame/internal/baseline"
	"congame/internal/core"
	"congame/internal/dynamics"
	"congame/internal/prng"
	"congame/internal/trace"
	"congame/internal/workload"
)

// These tests pin the observer path THROUGH the dynamics adapters — not
// just a Recorder hand-fed core.RoundStats: the engine adapter must
// forward SetObserver to the wrapped engine, and the sequential adapter
// must report exactly its executed activations.

func TestRecorderThroughEngineAdapter(t *testing.T) {
	rng := prng.New(3)
	inst, err := workload.LinearSingletons(5, 60, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	im, err := core.NewImitation(inst.Game, core.ImitationConfig{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(inst.State, im, core.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	dyn := dynamics.FromEngine(eng)
	rec := trace.NewRecorder()
	dyn.SetObserver(rec)

	const rounds = 25
	var stepped []dynamics.RoundStats
	for i := 0; i < rounds; i++ {
		stepped = append(stepped, dyn.Step())
	}
	if rec.Len() != rounds {
		t.Fatalf("recorder has %d rounds, want %d", rec.Len(), rounds)
	}
	for i, s := range stepped {
		got := rec.Round(i)
		if got != core.RoundStats(s) {
			t.Errorf("round %d: recorded %+v, Step returned %+v", i, got, s)
		}
	}
	// The potential trajectory must match the engine's live potential
	// after the last round.
	phis := rec.Potentials()
	if phis[rounds-1] != dyn.Potential() {
		t.Errorf("last recorded potential %v, engine reports %v", phis[rounds-1], dyn.Potential())
	}
}

func TestRecorderThroughEngineAdapterRun(t *testing.T) {
	rng := prng.New(5)
	inst, err := workload.LinearSingletons(4, 40, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	im, err := core.NewImitation(inst.Game, core.ImitationConfig{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(inst.State, im, core.WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	dyn := dynamics.FromEngine(eng)
	rec, err := trace.NewRing(8)
	if err != nil {
		t.Fatal(err)
	}
	dyn.SetObserver(rec)
	res := dyn.Run(200, dynamics.FromCore(core.StopWhenImitationStable(im.Nu())))
	want := res.Rounds
	if want > 8 {
		want = 8
	}
	if rec.Len() != want {
		t.Fatalf("ring retained %d rounds of a %d-round run, want %d", rec.Len(), res.Rounds, want)
	}
	if rec.Len() > 0 {
		last := rec.Round(rec.Len() - 1)
		if last.Round != res.Rounds-1 {
			t.Errorf("last retained round = %d, run executed %d rounds", last.Round, res.Rounds)
		}
		if last != core.RoundStats(res.Final) {
			t.Errorf("last retained stats %+v != Final %+v", last, res.Final)
		}
	}
}

func TestRecorderThroughSequentialAdapter(t *testing.T) {
	rng := prng.New(9)
	inst, err := workload.LinearSingletons(4, 30, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := dynamics.NewBestResponse(inst.State, inst.Oracle, baseline.PolicyBestGain, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	dyn.SetObserver(rec)
	res := dyn.Run(500, nil)
	if err := dyn.Err(); err != nil {
		t.Fatal(err)
	}
	// One observation per executed activation — the absorbed probe (a
	// no-op Step) must not be recorded.
	if rec.Len() != res.Rounds {
		t.Fatalf("recorder has %d activations, run executed %d", rec.Len(), res.Rounds)
	}
	if rec.Len() == 0 {
		t.Fatal("best response absorbed immediately on an unbalanced start")
	}
	// Every best-response move strictly lowers Φ, and the recorded running
	// Φ ends at the exact recompute.
	prev := math.Inf(1)
	for i := 0; i < rec.Len(); i++ {
		s := rec.Round(i)
		if s.Round != i {
			t.Errorf("activation %d recorded round %d", i, s.Round)
		}
		if s.Movers != 1 {
			t.Errorf("activation %d movers = %d, want 1", i, s.Movers)
		}
		if !(s.Potential < prev) {
			t.Errorf("activation %d potential = %v, want below %v", i, s.Potential, prev)
		}
		prev = s.Potential
	}
	if want := dyn.Potential(); math.Abs(prev-want) > 1e-9*want {
		t.Errorf("last recorded potential = %v, exact %v", prev, want)
	}
}
