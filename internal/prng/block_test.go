package prng

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestBlockMatchesStream pins the block generator's buffered draws against
// fresh Stream draws: for every player in the range, buf[p][j] must equal
// the j-th raw Uint64 of Stream(seed, round, p), for several K values and
// ranges that do not start at zero.
func TestBlockMatchesStream(t *testing.T) {
	for _, k := range []int{1, 2, 3, 5, 8} {
		b := NewBlock(k)
		for _, coords := range [][2]uint64{{1, 0}, {9, 3}, {0xdeadbeef, 1 << 40}} {
			seed, round := coords[0], coords[1]
			lo, hi := 37, 37+192
			b.Fill(seed, round, lo, hi)
			for p := lo; p < hi; p++ {
				fresh := Stream(seed, round, uint64(p))
				cur := b.Cursor(p)
				for j := 0; j < k; j++ {
					if a, bv := fresh.Uint64(), cur.Uint64(); a != bv {
						t.Fatalf("k=%d seed=%d round=%d player=%d draw %d: Stream %d ≠ Block %d",
							k, seed, round, p, j, a, bv)
					}
				}
			}
		}
	}
}

// TestCursorOverflowMatchesStream pins the scalar-fallback boundary: draws
// past the K buffered outputs must continue the exact same stream. The
// cursor is driven well past K so the buffered, boundary, and deep-overflow
// draws are all compared.
func TestCursorOverflowMatchesStream(t *testing.T) {
	for _, k := range []int{1, 2, 4} {
		b := NewBlock(k)
		b.Fill(11, 7, 0, 64)
		for p := 0; p < 64; p++ {
			fresh := Stream(11, 7, uint64(p))
			cur := b.Cursor(p)
			for j := 0; j < k+20; j++ {
				if a, bv := fresh.Uint64(), cur.Uint64(); a != bv {
					t.Fatalf("k=%d player=%d draw %d (buffered k=%d): Stream %d ≠ Cursor %d",
						k, p, j, k, a, bv)
				}
			}
		}
	}
}

// TestCursorDerivedDrawsMatchRand pins the cursor's derived-draw methods
// (the ones the decision kernels actually call) against math/rand over the
// same stream: identical values AND identical stream consumption, checked
// by interleaving a mixed op sequence and then comparing the next raw
// word. The n values include powers of two (mask path), odd values
// (rejection path), and values > 2^31 (Int63n path).
func TestCursorDerivedDrawsMatchRand(t *testing.T) {
	ns := []int{1, 2, 3, 7, 10, 1 << 16, 1<<16 + 1, 1<<31 - 1, 1 << 32, 1<<35 + 3}
	b := NewBlock(2)
	b.Fill(5, 21, 0, 256)
	for p := 0; p < 256; p++ {
		fresh := Stream(5, 21, uint64(p))
		cur := b.Cursor(p)
		for i, n := range ns {
			switch i % 3 {
			case 0:
				if a, bv := fresh.Intn(n), cur.Intn(n); a != bv {
					t.Fatalf("player %d op %d: Intn(%d) rand %d ≠ cursor %d", p, i, n, a, bv)
				}
			case 1:
				if a, bv := fresh.Float64(), cur.Float64(); a != bv {
					t.Fatalf("player %d op %d: Float64 rand %v ≠ cursor %v", p, i, a, bv)
				}
			case 2:
				if a, bv := fresh.Int63n(int64(n)), cur.Int63n(int64(n)); a != bv {
					t.Fatalf("player %d op %d: Int63n(%d) rand %d ≠ cursor %d", p, i, n, a, bv)
				}
			}
		}
		// Same consumption: the next raw word must agree after the mixed ops.
		if a, bv := fresh.Uint64(), cur.Uint64(); a != bv {
			t.Fatalf("player %d: stream consumption diverged (next raw %d ≠ %d)", p, a, bv)
		}
	}
}

// TestGatherMatchesIntn pins Gather against the cursor it stands in for:
// for every player, a non-negative entry must be assign[Intn(n)] drawn
// from a fresh Stream, with Intn consuming exactly the one buffered draw,
// and an entry of -1 must mark exactly the players whose Intn rejected
// that draw and resampled. The n values cover the mask path (powers of
// two, including 1) and the modulo path; at n = 2^20+1 about one draw in
// 2000 is rejected, so the range holds a few. k = 3 checks the stride,
// and the range starts away from zero. FillCandidates over the same
// range is pinned on the same streams: its kept set must be exactly the
// players a fresh Stream rejects, draws f == 1 for, or draws
// f < ceil[assign[p]] for, each kept player's peer must be Gather's
// entry, and each kept player's Cursor must yield its Stream's draws far
// past K. The ceilings cover −1 (nobody kept but rejections), values
// inside (0, 1), 1 and +Inf (everyone kept).
func TestGatherMatchesIntn(t *testing.T) {
	ceil := make([]float64, 97)
	for s := range ceil {
		switch s % 5 {
		case 0:
			ceil[s] = -1
		case 1:
			ceil[s] = 1
		case 2:
			ceil[s] = math.Inf(1)
		default:
			ceil[s] = float64(s) / 97
		}
	}
	for _, k := range []int{2, 3} {
		b := NewBlock(k)
		for _, n := range []int{1, 2, 1 << 10, 3, 1000, 1<<20 + 1} {
			assign := make([]int32, max(n, 129+20000))
			for q := range assign {
				assign[q] = int32(q % 97)
			}
			lo, hi := 129, 129+20000
			b.Fill(17, uint64(n), lo, hi)
			peers := append([]int32(nil), b.Gather(assign, n)...)
			if len(peers) != hi-lo {
				t.Fatalf("k=%d n=%d: %d entries for %d players", k, n, len(peers), hi-lo)
			}
			rejected := 0
			var wantKept []int32
			for p := lo; p < hi; p++ {
				fresh := Stream(17, uint64(n), uint64(p))
				want := assign[fresh.Intn(n)]
				next := fresh.Uint64()
				one := Stream(17, uint64(n), uint64(p))
				one.Uint64()
				resampled := one.Uint64() != next // Intn took more than one draw
				two := Stream(17, uint64(n), uint64(p))
				two.Uint64()
				f := float64(two.Int63()) / (1 << 63) // rand.Float64's value of the second draw, before its resample-on-1.0
				switch got := peers[p-lo]; {
				case resampled:
					rejected++
					if got != -1 {
						t.Fatalf("k=%d n=%d player %d: Intn resampled, Gather gave %d, want -1", k, n, p, got)
					}
				case got != want:
					t.Fatalf("k=%d n=%d player %d: Gather %d, assign[Intn(n)] %d", k, n, p, got, want)
				}
				if resampled || f == 1 || !(f >= ceil[assign[p]]) {
					wantKept = append(wantKept, int32(p-lo))
				}
			}
			if n == 1<<20+1 && rejected == 0 {
				t.Fatalf("n=%d: no rejected draw in %d players, the -1 case went untested", n, hi-lo)
			}
			idx, kept := b.FillCandidates(17, uint64(n), lo, hi, assign, n, ceil)
			if len(idx) != len(wantKept) || len(kept) != len(idx) {
				t.Fatalf("k=%d n=%d: FillCandidates kept %d players (%d peers), want %d", k, n, len(idx), len(kept), len(wantKept))
			}
			for j, i := range idx {
				if i != wantKept[j] {
					t.Fatalf("k=%d n=%d: kept player %d is offset %d, want %d", k, n, j, i, wantKept[j])
				}
				p := lo + int(i)
				if kept[j] != peers[i] {
					t.Fatalf("k=%d n=%d player %d: FillCandidates peer %d, Gather %d", k, n, p, kept[j], peers[i])
				}
				fresh := Stream(17, uint64(n), uint64(p))
				cur := b.Cursor(p)
				for d := 0; d < k+8; d++ {
					if a, bv := fresh.Uint64(), cur.Uint64(); a != bv {
						t.Fatalf("k=%d n=%d kept player %d draw %d: Stream %d ≠ Cursor %d", k, n, p, d, a, bv)
					}
				}
			}
			if len(idx) == 0 || len(idx) == hi-lo {
				t.Fatalf("k=%d n=%d: FillCandidates kept %d of %d players, the filter went untested", k, n, len(idx), hi-lo)
			}
		}
	}
}

// TestCandidatesCraftedDraws pins the keep test of FillCandidates'
// first stage on crafted words, which no stream yields on demand:
// movable for the second word w1 (x = w1 >> 1 reads f =
// float64(int64(x))/2^63) and the rule's rejects for the first word.
//
//   - x = 2^63 − 513 reads 1 − 2^-53, the largest f below 1, and is
//     skipped under the ceiling −1; x = 2^63 − 512, the tie that rounds
//     up, and x = 2^63 − 1 read f == 1 and are kept under any ceiling.
//   - f equal to its ceiling is skipped; the ulp below the ceiling is
//     kept and the ulp above is skipped, from either side.
//   - Ceilings −1 and 0 skip f = 0, the smallest subnormal ceiling keeps
//     it, and +Inf keeps every f.
//   - At n = 3, Int31n keeps Int31 values up to 2^31 − 3 and rejects the
//     two above; a power of two rejects nothing.
func TestCandidatesCraftedDraws(t *testing.T) {
	const (
		top   = 1<<63 - 1   // x = 2^63 − 1: f == 1
		tie   = 1<<63 - 512 // the midpoint between 1 − 2^-53 and 1: rounds to 1
		below = 1<<63 - 513 // f = 1 − 2^-53
		half  = 1 << 62     // f = 0.5
	)
	inf := math.Inf(1)
	sub := math.SmallestNonzeroFloat64
	cases := []struct {
		name string
		x    uint64
		ceil float64
		keep bool
	}{
		{"x = 2^63 − 513 under ceiling −1", below, -1, false},
		{"x = 2^63 − 513 under ceiling 1", below, 1, true},
		{"x = 2^63 − 512 (f == 1) under ceiling −1", tie, -1, true},
		{"x = 2^63 − 512 (f == 1) under ceiling 0", tie, 0, true},
		{"x = 2^63 − 512 (f == 1) under ceiling 1", tie, 1, true},
		{"x = 2^63 − 1 (f == 1) under ceiling −1", top, -1, true},
		{"f equals its ceiling", half, 0.5, false},
		{"ceiling one ulp above f", half, math.Nextafter(0.5, 1), true},
		{"ceiling one ulp below f", half, math.Nextafter(0.5, 0), false},
		{"f one ulp below its ceiling", half - 1<<9, 0.5, true},
		{"f one ulp above its ceiling", half + 1<<10, 0.5, false},
		{"f = 0 under ceiling −1", 0, -1, false},
		{"f = 0 under ceiling 0", 0, 0, false},
		{"f = 0 under the smallest subnormal ceiling", 0, sub, true},
		{"f = 2^-63 under the smallest subnormal ceiling", 1, sub, false},
		{"f = 0 under ceiling +Inf", 0, inf, true},
		{"f = 1 − 2^-53 under ceiling +Inf", below, inf, true},
	}
	for _, tc := range cases {
		if got := movable(tc.x, tc.ceil) == 1; got != tc.keep {
			t.Errorf("%s: kept %v, want %v", tc.name, got, tc.keep)
		}
	}
	three := newInt31nRule(3)
	for _, tc := range []struct {
		int31  uint64
		reject uint64
	}{{0, 0}, {1<<31 - 3, 0}, {1<<31 - 2, 1}, {1<<31 - 1, 1}} {
		for _, low := range []uint64{0, 1<<33 - 1} { // the bits below the Int31 do not count
			if got := three.rejects(tc.int31<<33 | low); got != tc.reject {
				t.Errorf("n=3, Int31 %d: rejects %d, want %d", tc.int31, got, tc.reject)
			}
		}
	}
	if got := newInt31nRule(1 << 20).rejects(math.MaxUint64); got != 0 {
		t.Errorf("n=2^20, Int31 2^31−1: rejects %d, want 0", got)
	}
}

// TestMovableMatchesComparison checks the branch-free keep test against
// the comparison it replaces, !(f >= c) || f == 1, on random second words
// x and on ceilings where the sign of f − c is closest to flipping: f
// itself, the adjacent floats on either side, 0, −1, +Inf and the
// smallest subnormal.
func TestMovableMatchesComparison(t *testing.T) {
	rng := rand.New(NewSource(3))
	draws := 200000
	if testing.Short() {
		draws = 20000
	}
	for d := 0; d < draws; d++ {
		x := rng.Uint64() >> 1
		if d%2 == 1 {
			x >>= uint(rng.Intn(63)) // small f, down to 0, where the floats are densest
		}
		f := float64(int64(x)) / (1 << 63)
		for _, c := range []float64{f, math.Nextafter(f, -1), math.Nextafter(f, 2), 0, -1, math.Inf(1), math.SmallestNonzeroFloat64} {
			want := !(f >= c) || f == 1
			if got := movable(x, c) == 1; got != want {
				t.Fatalf("x=%d (f=%v) ceiling %v: kept %v, want %v", x, f, c, got, want)
			}
		}
	}
}

// FuzzBlockVsStream fuzzes random (seed, round, player, k) coordinates and
// checks the full cursor contract: buffered draws, the overflow boundary,
// and the derived Intn/Float64 value streams all match a fresh
// prng.Stream. For k ≥ 2 it also runs FillCandidates under a fuzzed
// ceiling over the same range and checks it against the same fresh
// streams: a player is kept exactly when Intn(n') rejects its first
// draw, its second draw reads f == 1, or f < ceil, a kept player's peer
// is Gather's, and a kept player's Cursor yields its stream's draws past
// K. n' is n folded into the assignment's length. FillCandidates takes
// no NaN ceiling, so a NaN input runs as +Inf, which keeps everyone.
func FuzzBlockVsStream(f *testing.F) {
	f.Add(uint64(1), uint64(0), uint(0), uint(2), int64(10), 0.05)
	f.Add(uint64(42), uint64(1000), uint(65535), uint(1), int64(3), -1.0)
	f.Add(uint64(0), uint64(0), uint(7), uint(6), int64(1<<31-1), math.Inf(1))
	f.Add(uint64(5), uint64(9), uint(1<<20-1), uint(3), int64(1<<20+1), 0.5)
	assign := make([]int32, 1<<20+3)
	for q := range assign {
		assign[q] = int32(q % 7)
	}
	f.Fuzz(func(t *testing.T, seed, round uint64, player, k uint, n int64, ceil float64) {
		player %= 1 << 20
		k = k%8 + 1
		if n <= 0 {
			n = -n + 1
		}
		if math.IsNaN(ceil) {
			ceil = math.Inf(1)
		}
		b := NewBlock(int(k))
		lo := int(player)
		b.Fill(seed, round, lo, lo+3)
		for p := lo; p < lo+3; p++ {
			fresh := Stream(seed, round, uint64(p))
			cur := b.Cursor(p)
			for j := 0; j < int(k)+4; j++ {
				if a, bv := fresh.Uint64(), cur.Uint64(); a != bv {
					t.Fatalf("raw draw %d: %d ≠ %d", j, a, bv)
				}
			}
			if a, bv := fresh.Int63n(n), cur.Int63n(n); a != bv {
				t.Fatalf("Int63n(%d): %d ≠ %d", n, a, bv)
			}
			if a, bv := fresh.Float64(), cur.Float64(); a != bv {
				t.Fatalf("Float64: %v ≠ %v", a, bv)
			}
		}
		if k < 2 {
			return
		}
		nc := int((n-1)%int64(len(assign))) + 1
		peers := append([]int32(nil), b.Gather(assign, nc)...)
		idx, kept := b.FillCandidates(seed, round, lo, lo+3, assign, nc, []float64{ceil, ceil, ceil, ceil, ceil, ceil, ceil})
		j := 0
		for p := lo; p < lo+3; p++ {
			one := Stream(seed, round, uint64(p))
			one.Intn(nc)
			two := Stream(seed, round, uint64(p))
			two.Uint64()
			second := two.Uint64()
			rejected := one.Uint64() != second // Intn took more than one draw
			fl := float64(int64(second>>1)) / (1 << 63)
			if rejected || fl == 1 || !(fl >= ceil) {
				if j >= len(idx) || int(idx[j]) != p-lo {
					t.Fatalf("n=%d ceil=%v: player %d (f=%v, rejected %v) not kept", nc, ceil, p, fl, rejected)
				}
				if kept[j] != peers[p-lo] {
					t.Fatalf("n=%d: kept player %d has peer %d, Gather %d", nc, p, kept[j], peers[p-lo])
				}
				fresh := Stream(seed, round, uint64(p))
				cur := b.Cursor(p)
				for d := 0; d < int(k)+4; d++ {
					if a, bv := fresh.Uint64(), cur.Uint64(); a != bv {
						t.Fatalf("kept player %d draw %d: Stream %d ≠ Cursor %d", p, d, a, bv)
					}
				}
				j++
			}
		}
		if j != len(idx) {
			t.Fatalf("n=%d ceil=%v: FillCandidates kept %d players, want %d", nc, ceil, len(idx), j)
		}
	})
}

// TestBlockFillZeroAllocs pins the fill, gather and fused candidate
// passes at zero steady-state allocations: after the first pass at a
// range's high-water mark, later passes over the same or a smaller range
// must not touch the heap — the engines run one block per worker every
// tile. Both FillCandidates paths run: the masked one at a power-of-two
// n and the rejecting one otherwise.
func TestBlockFillZeroAllocs(t *testing.T) {
	b := NewBlock(2)
	assign := make([]int32, 5000)
	ceil := []float64{0.5}
	b.Fill(1, 0, 0, 4096) // reach the high-water mark
	b.Gather(assign, len(assign))
	b.FillCandidates(1, 0, 0, 4096, assign, len(assign), ceil)
	round := uint64(0)
	allocs := testing.AllocsPerRun(100, func() {
		round++
		b.Fill(1, round, 0, 4096)
		b.Gather(assign, len(assign))
		b.FillCandidates(1, round, 0, 4096, assign, len(assign), ceil)
		b.FillCandidates(1, round, 904, 4096, assign, 4096, ceil)
	})
	if allocs != 0 {
		t.Fatalf("Block.Fill + Gather + FillCandidates allocated %.1f times per refill, want 0", allocs)
	}
}

// TestCursorZeroAllocs pins cursor creation and draws as heap-free: the
// kernels create one cursor per player per round.
func TestCursorZeroAllocs(t *testing.T) {
	b := NewBlock(2)
	b.Fill(1, 0, 0, 1024)
	sink := 0
	allocs := testing.AllocsPerRun(100, func() {
		for p := 0; p < 1024; p++ {
			cur := b.Cursor(p)
			sink += cur.Intn(100)
			if cur.Float64() < 0.5 {
				sink++
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("cursor loop allocated %.1f times, want 0 (sink %d)", allocs, sink)
	}
}

// BenchmarkBlockFill measures the batched fill against the scalar re-seed
// path it replaces (BenchmarkReusableScalarDraws below, same total draw
// count).
func BenchmarkBlockFill(b *testing.B) {
	blk := NewBlock(2)
	blk.Fill(1, 0, 0, 65536)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk.Fill(1, uint64(i), 0, 65536)
	}
}

// BenchmarkFillCandidates measures the fused candidate pass the
// symmetric-singleton kernel runs per tile, over one 2^20-player shard
// tile by tile, at three kept shares: every strategy's ceiling is the
// share, so a uniform second draw keeps about that fraction of the
// players. 0.5%, 7% and 14% are the shares rush-4m's rounds run at after
// a ×4 firing, on average and after a ×¼ firing. The players sit on 64
// strategies at random, so the kept players' peer loads are random reads
// of a 4 MiB assignment. The row reports ns per player and the share it
// kept.
func BenchmarkFillCandidates(b *testing.B) {
	const n = 1 << 20
	rng := rand.New(NewSource(1))
	assign := make([]int32, n)
	for q := range assign {
		assign[q] = int32(rng.Intn(64))
	}
	for _, share := range []float64{0.005, 0.07, 0.14} {
		ceil := make([]float64, 64)
		for s := range ceil {
			ceil[s] = share
		}
		b.Run(fmt.Sprintf("kept=%.1f%%", share*100), func(b *testing.B) {
			blk := NewBlock(2)
			blk.FillCandidates(1, 0, 0, Tile, assign, n, ceil)
			kept := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for t := 0; t < n; t += Tile {
					idx, _ := blk.FillCandidates(1, uint64(i), t, t+Tile, assign, n, ceil)
					kept += len(idx)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/player")
			b.ReportMetric(float64(kept)/float64(b.N)/n, "kept")
		})
	}
}

// BenchmarkReusableScalarDraws is the scalar baseline: per-player Reset3
// plus two draws through *rand.Rand, as the pre-block decide loop did.
func BenchmarkReusableScalarDraws(b *testing.B) {
	r := NewReusable()
	var sink uint64
	for i := 0; i < b.N; i++ {
		var rng *rand.Rand
		for p := 0; p < 65536; p++ {
			rng = r.Reset3(1, uint64(i), uint64(p))
			sink += rng.Uint64() + rng.Uint64()
		}
	}
	_ = sink
}

// BenchmarkCursorDraws measures the per-player cursor consumption over a
// filled block (the kernel's read side alone).
func BenchmarkCursorDraws(b *testing.B) {
	blk := NewBlock(2)
	blk.Fill(1, 0, 0, 65536)
	var sink uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for p := 0; p < 65536; p++ {
			cur := blk.Cursor(p)
			sink += cur.Uint64() + cur.Uint64()
		}
	}
	_ = sink
}
