package prng

import (
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
// and the range starts away from zero.
func TestGatherMatchesIntn(t *testing.T) {
	for _, k := range []int{2, 3} {
		b := NewBlock(k)
		for _, n := range []int{1, 2, 1 << 10, 3, 1000, 1<<20 + 1} {
			assign := make([]int32, n)
			for q := range assign {
				assign[q] = int32(q % 97)
			}
			lo, hi := 129, 129+20000
			b.Fill(17, uint64(n), lo, hi)
			peers := b.Gather(assign, n)
			if len(peers) != hi-lo {
				t.Fatalf("k=%d n=%d: %d entries for %d players", k, n, len(peers), hi-lo)
			}
			rejected := 0
			for p := lo; p < hi; p++ {
				fresh := Stream(17, uint64(n), uint64(p))
				want := assign[fresh.Intn(n)]
				next := fresh.Uint64()
				one := Stream(17, uint64(n), uint64(p))
				one.Uint64()
				resampled := one.Uint64() != next // Intn took more than one draw
				switch got := peers[p-lo]; {
				case resampled:
					rejected++
					if got != -1 {
						t.Fatalf("k=%d n=%d player %d: Intn resampled, Gather gave %d, want -1", k, n, p, got)
					}
				case got != want:
					t.Fatalf("k=%d n=%d player %d: Gather %d, assign[Intn(n)] %d", k, n, p, got, want)
				}
			}
			if n == 1<<20+1 && rejected == 0 {
				t.Fatalf("n=%d: no rejected draw in %d players, the -1 case went untested", n, hi-lo)
			}
		}
	}
}

// FuzzBlockVsStream fuzzes random (seed, round, player, k) coordinates and
// checks the full cursor contract: buffered draws, the overflow boundary,
// and the derived Intn/Float64 value streams all match a fresh
// prng.Stream.
func FuzzBlockVsStream(f *testing.F) {
	f.Add(uint64(1), uint64(0), uint(0), uint(2), int64(10))
	f.Add(uint64(42), uint64(1000), uint(65535), uint(1), int64(3))
	f.Add(uint64(0), uint64(0), uint(7), uint(6), int64(1<<31-1))
	f.Fuzz(func(t *testing.T, seed, round uint64, player, k uint, n int64) {
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
	})
}

// TestBlockFillZeroAllocs pins the fill and gather loops at zero
// steady-state allocations: after the first fill at a range's high-water
// mark, refills (same or smaller range) and gathers must not touch the
// heap — the engine refills and gathers one block per worker every tile.
func TestBlockFillZeroAllocs(t *testing.T) {
	b := NewBlock(2)
	assign := make([]int32, 5000)
	b.Fill(1, 0, 0, 4096) // reach the high-water mark
	b.Gather(assign, len(assign))
	round := uint64(0)
	allocs := testing.AllocsPerRun(100, func() {
		round++
		b.Fill(1, round, 0, 4096)
		b.Gather(assign, len(assign))
	})
	if allocs != 0 {
		t.Fatalf("Block.Fill + Gather allocated %.1f times per refill, want 0", allocs)
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
