package prng

import (
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
// and the range starts away from zero. The same fills pin Candidates:
// its kept set must be exactly the players a fresh Stream rejects, draws
// f == 1 for, or draws f < ceil[assign[p]] for, and each kept player's
// peer must be Gather's entry. The ceilings cover −1 (nobody kept but
// rejections), values inside (0, 1), 1 and NaN (everyone kept).
func TestGatherMatchesIntn(t *testing.T) {
	ceil := make([]float64, 97)
	for s := range ceil {
		switch s % 5 {
		case 0:
			ceil[s] = -1
		case 1:
			ceil[s] = 1
		case 2:
			ceil[s] = math.NaN()
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
			idx, kept := b.Candidates(assign, n, ceil)
			if len(idx) != len(wantKept) || len(kept) != len(idx) {
				t.Fatalf("k=%d n=%d: Candidates kept %d players (%d peers), want %d", k, n, len(idx), len(kept), len(wantKept))
			}
			for j, i := range idx {
				if i != wantKept[j] {
					t.Fatalf("k=%d n=%d: kept player %d is offset %d, want %d", k, n, j, i, wantKept[j])
				}
				if kept[j] != peers[i] {
					t.Fatalf("k=%d n=%d player %d: Candidates peer %d, Gather %d", k, n, lo+int(i), kept[j], peers[i])
				}
			}
			if len(idx) == 0 || len(idx) == hi-lo {
				t.Fatalf("k=%d n=%d: Candidates kept %d of %d players, the filter went untested", k, n, len(idx), hi-lo)
			}
		}
	}
}

// TestCandidatesCraftedDraws pins the candidate pass's edge cases on
// crafted buffer words at n = 3, where the first word's Int31 2^31−1 is
// rejected. A second word 2^63 reads f = 0.5 exactly, so a ceiling of
// 0.5 skips the player, while the word below reads 0.5 − 2^-53 and is
// kept. The raw word 2^64−1 reads f == 1 and is kept even under the
// ceiling −1, and a NaN ceiling keeps everyone.
func TestCandidatesCraftedDraws(t *testing.T) {
	const (
		accept = 0              // Int31 0: Intn(3) = 0
		reject = math.MaxUint64 // Int31 2^31−1: Int31n(3) resamples
		half   = 1 << 63        // f = 0.5
		one    = math.MaxUint64 // f == 1
		below  = 1<<63 - 1<<11  // f = 0.5 − 2^-53
	)
	assign := []int32{1, 0, 1, 2} // players 0..2 on strategies 0..2; Intn(3) = 0 reads assign[0]
	cases := []struct {
		name   string
		w0, w1 uint64
		ceil   float64
		keep   bool
		peer   int32
	}{
		{"f equals its ceiling", accept, half, 0.5, false, 0},
		{"f just below its ceiling", accept, below, 0.5, true, 1},
		{"f above its ceiling", accept, half, 0.25, false, 0},
		{"f == 1 under ceiling -1", accept, one, -1, true, 1},
		{"f == 1 under ceiling 1", accept, one, 1, true, 1},
		{"rejected first draw under ceiling -1", reject, half, -1, true, -1},
		{"NaN ceiling", accept, half, math.NaN(), true, 1},
		{"NaN ceiling, f = 0", accept, 0, math.NaN(), true, 1},
	}
	for _, tc := range cases {
		b := NewBlock(2)
		b.Fill(1, 2, 1, 2) // one player, p = 1, on strategy assign[1] = 0
		b.buf[0], b.buf[1] = tc.w0, tc.w1
		idx, peers := b.Candidates(assign[:3], 3, []float64{tc.ceil, 0, 0})
		if got := len(idx) == 1; got != tc.keep {
			t.Fatalf("%s: kept %v, want %v", tc.name, got, tc.keep)
		}
		if tc.keep && (idx[0] != 0 || peers[0] != tc.peer) {
			t.Fatalf("%s: kept offset %d with peer %d, want offset 0 with peer %d", tc.name, idx[0], peers[0], tc.peer)
		}
	}
}

// FuzzBlockVsStream fuzzes random (seed, round, player, k) coordinates and
// checks the full cursor contract: buffered draws, the overflow boundary,
// and the derived Intn/Float64 value streams all match a fresh
// prng.Stream. For k ≥ 2 it also checks Candidates under a fuzzed
// ceiling against the same fresh streams: a player is kept exactly when
// Intn(n') rejects its first draw, its second draw reads f == 1, or
// f < ceil (NaN keeps everyone), and a kept player's peer is Gather's.
// n' is n folded into the assignment's length.
func FuzzBlockVsStream(f *testing.F) {
	f.Add(uint64(1), uint64(0), uint(0), uint(2), int64(10), 0.05)
	f.Add(uint64(42), uint64(1000), uint(65535), uint(1), int64(3), -1.0)
	f.Add(uint64(0), uint64(0), uint(7), uint(6), int64(1<<31-1), math.NaN())
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
		idx, kept := b.Candidates(assign, nc, []float64{ceil, ceil, ceil, ceil, ceil, ceil, ceil})
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
				j++
			}
		}
		if j != len(idx) {
			t.Fatalf("n=%d ceil=%v: Candidates kept %d players, want %d", nc, ceil, len(idx), j)
		}
	})
}

// TestBlockFillZeroAllocs pins the fill, gather and candidate loops at
// zero steady-state allocations: after the first fill at a range's
// high-water mark, refills (same or smaller range), gathers and
// candidate passes must not touch the heap — the engines refill and
// gather one block per worker every tile.
func TestBlockFillZeroAllocs(t *testing.T) {
	b := NewBlock(2)
	assign := make([]int32, 5000)
	ceil := []float64{0.5}
	b.Fill(1, 0, 0, 4096) // reach the high-water mark
	b.Gather(assign, len(assign))
	b.Candidates(assign, len(assign), ceil)
	round := uint64(0)
	allocs := testing.AllocsPerRun(100, func() {
		round++
		b.Fill(1, round, 0, 4096)
		b.Gather(assign, len(assign))
		b.Candidates(assign, len(assign), ceil)
	})
	if allocs != 0 {
		t.Fatalf("Block.Fill + Gather + Candidates allocated %.1f times per refill, want 0", allocs)
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
