package core

// Unit and property tests of the symmetric-singleton kernel's move
// ceilings (moveCeilings): the bound ranges over the support only, the
// −1 cut-offs, and the bound itself against every support pair the kernel
// can sample, across states that a rush hour keeps pushing around.

import (
	"math"
	"testing"

	"congame/internal/events"
	"congame/internal/game"
	"congame/internal/latency"
	"congame/internal/prng"
	"congame/internal/workload"
)

// TestMoveCeilingsSupportOnly pins the bound to the support.
// HeavyTraffic packs every player onto its hot links and leaves the cold
// ones empty, and an empty link's join latency ℓ(1) lies far below a hot
// link's. No peer sits on an empty link, so the ceilings must take
// minJoin over the occupied strategies only: each support ceiling must
// equal scale·(ℓ_s − minJoin)/ℓ_s with that minJoin, bit for bit. A bound
// over every strategy would be far looser and fails here.
func TestMoveCeilingsSupportOnly(t *testing.T) {
	inst, err := workload.HeavyTraffic(4096, 16, prng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	im, err := NewImitation(inst.Game, ImitationConfig{})
	if err != nil {
		t.Fatal(err)
	}
	view := game.NewRoundView(inst.State)
	support := inst.State.Support()
	minJoin, minJoinAll := math.Inf(1), math.Inf(1)
	for s := 0; s < inst.Game.NumStrategies(); s++ {
		minJoinAll = math.Min(minJoinAll, view.JoinLatency(s))
	}
	for _, s := range support {
		minJoin = math.Min(minJoin, view.JoinLatency(s))
	}
	if !(minJoinAll < minJoin) {
		t.Fatalf("no empty strategy joins below the support (%v vs %v): the test needs one", minJoinAll, minJoin)
	}
	scale := im.lambda / im.d
	ceil, movable := moveCeilings(view, im.nu, scale, nil)
	if !movable {
		t.Fatal("moveCeilings reports nobody can move from HeavyTraffic's packed start")
	}
	positive := 0
	for _, s := range support {
		lp := view.StrategyLatency(s)
		want := -1.0
		if lp-minJoin > im.nu && lp > 0 {
			want = scale * (lp - minJoin) / lp
			positive++
		}
		if ceil[s] != want {
			t.Fatalf("strategy %d: ceiling %v, want %v (minJoin over the support %v, over all %v)", s, ceil[s], want, minJoin, minJoinAll)
		}
	}
	if positive == 0 {
		t.Fatal("every support ceiling is −1: the bound went untested")
	}
}

// TestMoveCeilingsCutoffs pins the −1 ceilings on three identical linear
// links (ℓ(x) = x, ν = 1). With loads 7, 5, 0 the best gain of link 0 is
// 7 − 6 = ν exactly and link 1's is negative, so neither can move; link 2
// is empty with ℓ = 0 ≤ 0. Nobody can move, so moveCeilings reports so.
// With loads 8, 4, 0 link 0's best gain 3 clears ν, and at ν = 0
// (DisableNu) the loads 7, 5, 0 let link 0 move too.
func TestMoveCeilingsCutoffs(t *testing.T) {
	lin, err := latency.NewLinear(1)
	if err != nil {
		t.Fatal(err)
	}
	res := []game.Resource{{Name: "a", Latency: lin}, {Name: "b", Latency: lin}, {Name: "c", Latency: lin}}
	g, err := game.New(game.Config{Name: "three-links", Resources: res, Players: 12, Strategies: [][]int{{0}, {1}, {2}}})
	if err != nil {
		t.Fatal(err)
	}
	state := func(load0 int) *game.RoundView {
		assign := make([]int32, 12)
		for p := load0; p < 12; p++ {
			assign[p] = 1
		}
		st, err := game.NewStateFromAssignment(g, assign)
		if err != nil {
			t.Fatal(err)
		}
		return game.NewRoundView(st)
	}
	const scale = 0.25
	for _, tc := range []struct {
		name  string
		load0 int
		nu    float64
		want  []float64
	}{
		{"best gain equals ν", 7, 1, []float64{-1, -1, -1}},
		{"best gain clears ν", 8, 1, []float64{scale * 3 / 8, -1, -1}},
		{"ν = 0", 7, 0, []float64{scale * 1 / 7, -1, -1}},
	} {
		ceil, movable := moveCeilings(state(tc.load0), tc.nu, scale, nil)
		for s, want := range tc.want {
			if ceil[s] != want {
				t.Fatalf("%s: strategy %d ceiling %v, want %v", tc.name, s, ceil[s], want)
			}
		}
		if wantMovable := tc.want[0] != -1; movable != wantMovable {
			t.Fatalf("%s: movable %v, want %v", tc.name, movable, wantMovable)
		}
	}
}

// TestMoveCeilingsInfiniteLatency pins the NaN guard. Link 0's latency
// e^{100x} overflows to +Inf at load 10, so its ceiling's expression
// scale·(ℓ − minJoin)/ℓ reads Inf/Inf = NaN; moveCeilings must store
// +Inf there, which keeps everyone in Block.FillCandidates, and no
// ceiling may be NaN. The kernel then decides the game as the generic
// loop does, at every worker count.
func TestMoveCeilingsInfiniteLatency(t *testing.T) {
	exp, err := latency.NewExponential(1, 100)
	if err != nil {
		t.Fatal(err)
	}
	lin, err := latency.NewLinear(1)
	if err != nil {
		t.Fatal(err)
	}
	res := []game.Resource{{Name: "hot", Latency: exp}, {Name: "a", Latency: lin}, {Name: "b", Latency: lin}}
	g, err := game.New(game.Config{Name: "overflow", Resources: res, Players: 64, Strategies: [][]int{{0}, {1}, {2}}})
	if err != nil {
		t.Fatal(err)
	}
	assign := make([]int32, 64)
	for p := 10; p < 64; p++ {
		assign[p] = int32(1 + p%2)
	}
	st, err := game.NewStateFromAssignment(g, assign)
	if err != nil {
		t.Fatal(err)
	}
	view := game.NewRoundView(st)
	if l := view.StrategyLatency(0); !math.IsInf(l, 1) {
		t.Fatalf("link 0 latency %v at load 10, want +Inf", l)
	}
	im, err := NewImitation(g, ImitationConfig{Nu: 1}) // the default ν is ℓ's +Inf too
	if err != nil {
		t.Fatal(err)
	}
	ceil, movable := moveCeilings(view, im.nu, im.lambda/im.d, nil)
	if !movable {
		t.Fatal("moveCeilings reports nobody can move off the infinite link")
	}
	if !math.IsInf(ceil[0], 1) {
		t.Fatalf("ceiling of the infinite link %v, want +Inf", ceil[0])
	}
	for s, c := range ceil {
		if math.IsNaN(c) {
			t.Fatalf("strategy %d: NaN ceiling", s)
		}
	}
	for _, w := range workerCounts() {
		runKernelParity(t, st, im, w, 3)
	}
}

// TestMoveCeilingsBoundEverySupportPair is the bound's property test. A
// HeavyTraffic instance runs under a recurring ×4/×¼ rush hour on a hot
// link. Every round, on the state its decide phase sees (after the
// firing), and for both the damped and the undamped scale, every support
// pair (from, to) whose kernel decision reaches the draw (gain > ν,
// ℓ_from > 0) must satisfy ceil[from] ≥ scale·gain/ℓ_from, evaluated in
// the kernel's exact float order. A pair that reaches the draw under a
// −1 ceiling fails the same comparison.
func TestMoveCeilingsBoundEverySupportPair(t *testing.T) {
	inst, err := workload.HeavyTraffic(3*prng.Tile+1001, 64, prng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	sched, err := events.NewSchedule([]events.Event{
		{Round: 2, Every: 4, Kind: events.LatencyScale, Resource: 1, Factor: 4},
		{Round: 4, Every: 4, Kind: events.LatencyScale, Resource: 1, Factor: 0.25},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.ValidateFor(inst.Game); err != nil {
		t.Fatal(err)
	}
	im, err := NewImitation(inst.Game, ImitationConfig{})
	if err != nil {
		t.Fatal(err)
	}
	protos := []struct {
		name      string
		nu, scale float64
	}{
		{"imitation", im.nu, im.lambda / im.d},
		{"undamped ν=0", 0, im.lambda},
	}
	checked := 0
	var ceil []float64
	rush := sched.Hook()
	check := func(round int, st *game.State) (float64, bool) {
		dphi, mutated := rush(round, st)
		view := game.NewRoundView(st) // the tables the round's decide phase reads
		support := st.Support()
		for _, pr := range protos {
			ceil, _ = moveCeilings(view, pr.nu, pr.scale, ceil)
			for _, from := range support {
				lp := view.StrategyLatency(from)
				for _, to := range support {
					gain := lp - view.JoinLatency(to)
					if to == from || gain <= pr.nu || lp <= 0 {
						continue
					}
					checked++
					if p := pr.scale * gain / lp; ceil[from] < p {
						t.Fatalf("round %d %s: ceiling %v of strategy %d below the move probability %v towards %d",
							round, pr.name, ceil[from], from, p, to)
					}
				}
			}
		}
		return dphi, mutated
	}
	e, err := NewEngine(inst.State, im, WithSeed(3), WithWorkers(1), WithPreRound(check))
	if err != nil {
		t.Fatal(err)
	}
	e.Run(40, nil)
	if checked == 0 {
		t.Fatal("no support pair reached the migration draw: the bound went untested")
	}
	t.Logf("%d support pairs checked", checked)
}
