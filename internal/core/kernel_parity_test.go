package core

// Kernel-vs-reference parity: decideRange dispatches Imitation and
// UndampedImitation to the devirtualized blocked kernels (kernels.go),
// while any other Protocol value runs the generic scalar loop. Wrapping a
// protocol in an opaque shim forces the generic path for the SAME
// protocol, so these tests compare the two code paths directly — every
// round's stats, every assignment, the folded potential — across symmetric
// singleton games (the flattened raw-buffer loop), multi-resource games (the
// cursor loop), asymmetric classes, and non-power-of-two player counts
// (the Int31n modulo + rejection derivations). The kernels decide in
// prng.Tile-player tiles, so each kernel is also run at player counts
// spanning several tiles and at worker counts whose shard edges fall
// inside a tile.

import (
	"math/rand"
	"testing"

	"congame/internal/game"
	"congame/internal/prng"
	"congame/internal/workload"
)

// genericShim hides the concrete protocol type from decideRange's type
// switch, forcing the generic reference loop.
type genericShim struct{ p Protocol }

func (s genericShim) Decide(view *game.RoundView, player int, rng *rand.Rand) Decision {
	return s.p.Decide(view, player, rng)
}

func (s genericShim) Name() string { return s.p.Name() }

// runKernelParity runs `rounds` rounds twice from clones of the same
// state — once through the kernel dispatch, once through the shim-forced
// generic loop — and requires bit-identical trajectories at the given
// worker count.
func runKernelParity(t *testing.T, st *game.State, proto Protocol, workers, rounds int) {
	t.Helper()
	mkKernel := func(*testing.T) (*game.State, Protocol) { return st.Clone(), proto }
	mkGeneric := func(*testing.T) (*game.State, Protocol) { return st.Clone(), genericShim{proto} }
	want := runWorkersObserved(t, mkGeneric, workers, rounds, 7)
	got := runWorkersObserved(t, mkKernel, workers, rounds, 7)
	assertSameTrajectory(t, workers, got, want)
}

// multiTileNs are player counts spanning several decide tiles: a power of
// two (the mask derivation; with three workers its shard edges fall
// inside tiles) and an odd count whose last tile is ragged (the modulo
// derivation).
var multiTileNs = []int{4 * prng.Tile, 3*prng.Tile + 1001}

// TestKernelMatchesGenericSingleton pins the flattened symmetric-singleton
// kernel against the reference loop, at power-of-two and non-power-of-two
// player counts (mask vs modulo Int31n derivations) within one tile and
// across several, and across worker counts. Two more inputs run the
// move ceilings at their extremes: DisableNu (ν = 0), and an
// imitation-stable start on which every ceiling is −1, so every shard
// returns before its fill.
func TestKernelMatchesGenericSingleton(t *testing.T) {
	for _, n := range append([]int{1024, 1000, 1021}, multiTileNs...) {
		inst, err := workload.HeavyTraffic(n, 16, prng.New(3))
		if err != nil {
			t.Fatal(err)
		}
		im, err := NewImitation(inst.Game, ImitationConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workerCounts() {
			runKernelParity(t, inst.State, im, w, 40)
		}
	}
	inst, err := workload.HeavyTraffic(multiTileNs[1], 16, prng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	noNu, err := NewImitation(inst.Game, ImitationConfig{DisableNu: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerCounts() {
		runKernelParity(t, inst.State, noNu, w, 40)
	}
	for _, n := range multiTileNs {
		st := stableStart(t, n)
		im, err := NewImitation(st.Game(), ImitationConfig{})
		if err != nil {
			t.Fatal(err)
		}
		requireAllCeilingsCut(t, st, im.Nu())
		for _, w := range workerCounts() {
			runKernelParity(t, st, im, w, 5)
		}
	}
}

// TestKernelMatchesGenericAcrossShapes pins the singleton kernel on both
// sides of prng.Block.FillCandidates' switch between its compacted and
// direct first stage, which it selects from the round's movable count
// (moveCeilings) against two thirds of the players, and near an
// imitation-stable state. The players sit on 16 identical linear links,
// the first hot of them loaded 64 players above the others, so exactly
// the hot links' players can move at the start: one hot link is
// near-stable (about 7% movable), ten and eleven sit just under and just
// over two thirds, and fifteen leave a single cold link (about 94%).
// Each start runs 40 rounds at every worker count.
func TestKernelMatchesGenericAcrossShapes(t *testing.T) {
	for _, n := range multiTileNs {
		under, over := false, false
		for _, hot := range []int{1, 10, 11, 15} {
			st := hotStart(t, n, hot, 64)
			im, err := NewImitation(st.Game(), ImitationConfig{})
			if err != nil {
				t.Fatal(err)
			}
			_, movable := moveCeilings(game.NewRoundView(st), im.nu, im.lambda/im.d, nil)
			var want int64
			for s := 0; s < hot; s++ {
				want += st.Count(s)
			}
			if int64(movable) != want {
				t.Fatalf("n=%d hot=%d: %d movable players at the start, want the hot links' %d", n, hot, movable, want)
			}
			under = under || 3*movable < 2*n
			over = over || 3*movable >= 2*n
			for _, w := range workerCounts() {
				runKernelParity(t, st, im, w, 40)
			}
		}
		if !under || !over {
			t.Fatalf("n=%d: the starts do not straddle two thirds movable", n)
		}
	}
}

// hotStart returns n players on 16 identical linear links in random
// order, with the first hot links holding extra players more than the
// others, whose loads differ by at most one.
func hotStart(t *testing.T, n, hot, extra int) *game.State {
	t.Helper()
	inst, err := workload.UniformSingletons(16, n, prng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	assign := make([]int32, 0, n)
	for s := 0; s < hot; s++ {
		for i := 0; i < extra; i++ {
			assign = append(assign, int32(s))
		}
	}
	for p := len(assign); p < n; p++ {
		assign = append(assign, int32(p%16))
	}
	rng := prng.New(9)
	rng.Shuffle(n, func(i, j int) { assign[i], assign[j] = assign[j], assign[i] })
	st, err := game.NewStateFromAssignment(inst.Game, assign)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// stableStart returns n players spread as evenly as possible over 16
// identical linear links: every load is x or x+1, so no player gains by
// imitating anyone, even at ν = 0.
func stableStart(t *testing.T, n int) *game.State {
	t.Helper()
	inst, err := workload.UniformSingletons(16, n, prng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	assign := make([]int32, n)
	for p := range assign {
		assign[p] = int32(p % 16)
	}
	st, err := game.NewStateFromAssignment(inst.Game, assign)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// requireAllCeilingsCut checks, from the state's own latency evaluations
// rather than the kernel's ceilings, that every support strategy s has
// ℓ_s − ℓ⁺_t ≤ ν for every support strategy t, or ℓ_s ≤ 0. Then every
// ceiling is −1 and the kernel's early return is what the parity run
// exercises, instead of passing vacuously.
func requireAllCeilingsCut(t *testing.T, st *game.State, nu float64) {
	t.Helper()
	support := st.Support()
	for _, s := range support {
		lp := st.StrategyLatency(s)
		for _, to := range support {
			if gain := lp - st.JoinLatency(to); gain > nu && lp > 0 {
				t.Fatalf("strategy %d gains %v > ν = %v by joining %d: not every ceiling is −1", s, gain, nu, to)
			}
		}
	}
}

// TestKernelRejectionReplayInsideTile pins the singleton kernel's Int31n
// rejection replay where it actually fires. At n = 2^20+1 the modulo-safe
// bound rejects a first Int31 draw with probability (2^31 mod n)/2^31 ≈
// 4.9·10^-4, about 500 players a round, scattered across the tiles; the
// count is taken independently from fresh prng.Stream draws, so a
// workload that never reaches the replay fails instead of passing
// vacuously.
func TestKernelRejectionReplayInsideTile(t *testing.T) {
	if testing.Short() {
		t.Skip("2^20-player parity run")
	}
	const (
		n      = 1<<20 + 1
		rounds = 2
		seed   = 7 // runKernelParity's engine seed
	)
	bound := int32((1<<31 - 1) - (1<<31)%uint32(n))
	rejected := 0
	for r := 0; r < rounds; r++ {
		for p := 0; p < n; p++ {
			if prng.Stream(seed, uint64(r), uint64(p)).Int31() > bound {
				rejected++
			}
		}
	}
	if rejected == 0 {
		t.Fatalf("no player of %d rounds at n=%d takes the rejection path", rounds, n)
	}
	t.Logf("%d rejection replays over %d rounds", rejected, rounds)
	inst, err := workload.HeavyTraffic(n, 16, prng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	im, err := NewImitation(inst.Game, ImitationConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 3} {
		runKernelParity(t, inst.State, im, w, rounds)
	}
}

// TestKernelMatchesGenericNetwork pins the cursor-based kernel loop on a
// multi-resource (network) game, where SwitchLatency runs the sorted
// merge rather than the singleton lookup.
func TestKernelMatchesGenericNetwork(t *testing.T) {
	inst, err := workload.PolyNetwork(3, 3, 600, 2, 4, prng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	im, err := NewImitation(inst.Game, ImitationConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerCounts() {
		runKernelParity(t, inst.State, im, w, 30)
	}
}

// TestKernelMatchesGenericMultiClass pins the class-table peer sampling
// (SamplePeerCursor's asymmetric branch) on a two-commodity instance.
func TestKernelMatchesGenericMultiClass(t *testing.T) {
	inst, err := workload.TwoCommodity(3, 500, 2, prng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	im, err := NewImitation(inst.Game, ImitationConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerCounts() {
		runKernelParity(t, inst.State, im, w, 30)
	}
}

// TestKernelMatchesGenericUndamped pins the UndampedImitation kernel (the
// E5 ablation path) at ν = 0, at the game's derived ν, and on an
// imitation-stable start on which every ceiling is −1.
func TestKernelMatchesGenericUndamped(t *testing.T) {
	for _, n := range append([]int{777}, multiTileNs...) {
		inst, err := workload.HeavyTraffic(n, 8, prng.New(11))
		if err != nil {
			t.Fatal(err)
		}
		u, err := NewUndampedImitation(inst.Game, 0.25, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workerCounts() {
			runKernelParity(t, inst.State, u, w, 40)
		}
	}
	inst, err := workload.HeavyTraffic(multiTileNs[1], 8, prng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	withNu, err := NewUndampedImitation(inst.Game, 0.25, inst.Game.Nu())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerCounts() {
		runKernelParity(t, inst.State, withNu, w, 40)
	}
	for _, n := range multiTileNs {
		st := stableStart(t, n)
		u, err := NewUndampedImitation(st.Game(), 0.25, 0)
		if err != nil {
			t.Fatal(err)
		}
		requireAllCeilingsCut(t, st, 0)
		for _, w := range workerCounts() {
			runKernelParity(t, st, u, w, 5)
		}
	}
}
