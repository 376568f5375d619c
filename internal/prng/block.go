package prng

import "math"

// Batched stream generation for the engine's decide phase.
//
// The scalar hot path re-seeds one Reusable per player
// (Reset3(seed, round, p)) and draws through *rand.Rand, which costs an
// interface dispatch (rand.Rand → Source64) on every draw. A Block instead
// fills a buffer holding one tile of a worker's shard (Tile players) with
// the first K raw outputs of every (seed, round, p) stream in one tight
// loop — Mix and SplitMix64 fully inlined, the (seed, round) prefix of the
// Mix absorbed once per fill instead of once per player — and a Cursor
// then hands those draws to the decision kernels through monomorphic
// methods that replicate math/rand's Intn/Int63n/Float64 value streams
// bit for bit. FillCandidates fuses the fill with the symmetric-singleton
// kernel's filter on the migration draw: it draws every player's second
// word first, and derives the peer word and stores words only for the
// players that word can still move.
//
// Determinism contract: for every coordinate triple, the draw sequence a
// Cursor yields is identical to the sequence Stream(seed, round, p) (or
// Reusable.Reset3) yields through the corresponding *rand.Rand methods —
// including rejection resampling — for any number of draws, after Fill
// for every player of the range and after FillCandidates for every kept
// one. Draws past the K buffered outputs fall back transparently to
// advancing the SplitMix64 counter from the stored per-player state, so a
// decision that needs more randomness than the block buffered (Intn
// rejection, innovative protocols) is never cut off and never diverges.
// The differential and fuzz tests in block_test.go pin this equivalence.

const (
	// gamma is SplitMix64's additive constant (the golden-ratio "weyl"
	// increment); mixInit is Mix's initial state. Both must match prng.go.
	gamma   = 0x9e3779b97f4a7c15
	mixInit = 0x243f6a8885a308d3
)

// mixFinalize is the SplitMix64 output finalizer applied to an
// already-advanced state word. splitmix64(&s) ≡ s += gamma; mixFinalize(s).
func mixFinalize(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Tile is the number of players a decision kernel fills and decides at a
// time. The engines walk each worker's shard in tiles of this size, so a
// Block never holds more than one tile: at the kernels' K = 2 that is 16 B
// of buffered draws, 8 B of stream state, 4 B of gathered peer strategy
// and 4 B of candidate offset per player, 64 KiB per tile — resident in a
// core's L2 while the tile's peer loads are in flight, instead of a
// shard-sized buffer streamed through memory (24 B per player, 48 MiB per
// worker at n = 2^22). The value was chosen by measurement (DESIGN.md
// §11).
const Tile = 2048

// Block holds the first K raw 64-bit outputs of the (seed, round, p)
// decision streams for a contiguous player range [lo, hi), plus the peer
// and candidate buffers Gather and FillCandidates fill. One Block per
// worker is reused across rounds; after the first fill at a range's
// high-water mark, Fill, Gather and FillCandidates allocate nothing.
type Block struct {
	k      int
	lo     int
	buf    []uint64 // (hi-lo)*k raw outputs, player-major
	states []uint64 // per player: SplitMix64 state after the k buffered draws
	peers  []int32  // Gather's and FillCandidates' output: peer strategies
	cand   []int32  // FillCandidates' output: offsets of the kept players
}

// NewBlock returns a Block buffering the first k draws of each stream.
// k must be ≥ 1; the engine's imitation-family kernels use k = 2 (one
// peer-sampling draw, one migration-probability draw).
func NewBlock(k int) *Block {
	if k < 1 {
		k = 1
	}
	return &Block{k: k}
}

// K returns the number of buffered draws per player.
func (b *Block) K() int { return b.k }

// prefix is Mix's state after absorbing (seed, round), shared by every
// player of a fill: Mix absorbs words left to right, so a fill hoists it
// out of the per-player loop.
func prefix(seed, round uint64) uint64 {
	pre := uint64(mixInit)
	pre ^= seed
	pre = mixFinalize(pre + gamma)
	pre ^= round
	return mixFinalize(pre + gamma)
}

// reset points the block at the range [lo, hi), sizing the draw and
// state buffers for it, and returns the range's player count.
func (b *Block) reset(lo, hi int) int {
	n := max(hi-lo, 0)
	b.buf = grow(&b.buf, n*b.k)
	b.states = grow(&b.states, n)
	b.lo = lo
	return n
}

// Fill populates the block with the first K outputs of every
// (seed, round, p) stream for p in [lo, hi). The per-player seeding is
// exactly Mix(seed, round, p): the (seed, round) prefix state is hoisted
// out of the loop, leaving one absorb plus K counter advances per player,
// all inline — no rand.Rand, no interface calls.
func (b *Block) Fill(seed, round uint64, lo, hi int) {
	n := b.reset(lo, hi)
	pre := prefix(seed, round)
	k := b.k
	buf := b.buf
	states := b.states
	if k == 2 && len(buf) == 2*n && len(states) == n {
		// The engine's kernels run k = 2 (one sampling draw, one
		// migration-probability draw); unrolling lets the two finalizers
		// retire in parallel and drops the inner-loop index arithmetic.
		for i := 0; i < n; i++ {
			s := mixFinalize((pre ^ uint64(lo+i)) + gamma)
			s1 := s + gamma
			s2 := s1 + gamma
			buf[2*i] = mixFinalize(s1)
			buf[2*i+1] = mixFinalize(s2)
			states[i] = s2
		}
		return
	}
	for i := 0; i < n; i++ {
		// Absorb the player coordinate: state = Mix(seed, round, p).
		s := mixFinalize((pre ^ uint64(lo+i)) + gamma)
		base := i * k
		for j := 0; j < k; j++ {
			s += gamma
			buf[base+j] = mixFinalize(s)
		}
		states[i] = s
	}
}

// Raw exposes the filled buffer: player-major, K raw outputs per player,
// raw[(p-lo)*K+j] the j-th output of player p's stream. Flattened kernels
// read it directly — deriving Intn/Float64 values with the exact
// math/rand formulas — and replay the odd player through a Cursor when a
// rejection or resample needs draws the buffer cannot serve. Callers must
// not modify the buffer.
func (b *Block) Raw() []uint64 { return b.buf }

// Lo returns the first player of the last filled range.
func (b *Block) Lo() int { return b.lo }

// int31nRule is Cursor.Int31n's rule for one bound n, applied to a raw
// buffered word w instead of a live stream: the word's Int31 is
// v = int32(w >> 33); Int31n accepts v when v ≤ max and returns v masked
// to n−1 for a power-of-two n, v mod n otherwise. Above max it rejects v
// and draws again, which a buffered word cannot serve. A power of two has
// max = 2^31−1, so it never rejects. Gather and FillCandidates both
// derive their peer indices here.
type int31nRule struct{ n, max int32 }

// newInt31nRule returns the rule for Intn(n); n must lie in [1, 2^31).
func newInt31nRule(n int) int31nRule {
	if n <= 0 || n >= 1<<31 {
		panic("prng: invalid peer count")
	}
	n32 := int32(n)
	return int31nRule{n: n32, max: int32((1 << 31) - 1 - (1<<31)%uint32(n32))}
}

// masks reports whether n is a power of two, whose Int31n masks and never
// rejects.
func (r int31nRule) masks() bool { return r.n&(r.n-1) == 0 }

// accepts reports whether Int31n keeps the Int31 of w rather than
// resampling.
func (r int31nRule) accepts(w uint64) bool { return int32(w>>33) <= r.max }

// rejects is 1 when Int31n resamples the Int31 of w and 0 when it keeps
// it: the sign of max − Int31, computed without a branch.
func (r int31nRule) rejects(w uint64) uint64 {
	return uint64(int64(r.max)-int64(w>>33)) >> 63
}

// peer returns assign[Intn(n)] for the draw w, or -1 when Int31n rejects
// w. The index v mod n is valid even for a rejected draw, so the load
// carries no data-dependent branch.
func (r int31nRule) peer(assign []int32, w uint64) int32 {
	v := int32(w >> 33)
	if r.masks() {
		v &= r.n - 1
	} else {
		v %= r.n
	}
	s := assign[v]
	if !r.accepts(w) {
		s = -1
	}
	return s
}

// Gather fills the block's peer buffer for the last filled range and
// returns it: entry i is assign[q] for player Lo()+i's peer q = Intn(n),
// derived from the player's first buffered draw by int31nRule. The loads
// carry no data-dependent branch, so a tile's random assign reads are in
// flight at once instead of each stalling the decision that consumes it.
// When Int31n would reject the first draw and resample (never for a
// power-of-two n), the entry is -1: the caller replays that player
// through a Cursor. n must lie in [1, 2^31) and every assign value must
// be ≥ 0. The buffer is reused by the next call.
func (b *Block) Gather(assign []int32, n int) []int32 {
	rule := newInt31nRule(n)
	m := len(b.states)
	peers := grow(&b.peers, m)
	k := b.k
	raw := b.buf[:m*k]
	for i := range peers {
		peers[i] = rule.peer(assign, raw[i*k])
	}
	return peers
}

// FillCandidates is Fill followed by Gather, restricted to the players
// whose second draw can still move them. Player p in [lo, hi) sits on
// strategy s = assign[p], and its second draw reads as
// f = Float64 = float64(int64(w >> 1)) / 2^63. The player is skipped
// when f ≥ ceil[s], unless Int31n rejects its first draw or f == 1: in
// both cases the decision's Float64 comes from a later draw of the
// stream, so the player is kept. It returns the kept offsets idx,
// ascending (player Lo()+idx[j]), and peers, with peers[j] the entry
// Gather would hold for that player.
//
// The pass runs in three stages. The first reads assign sequentially
// and draws every player's stream seed and second word (and, when n is
// not a power of two, its first word), and keeps or skips the player
// without a data-dependent branch. The second draws the kept players'
// words and continuation states into the block, as Fill would, and the
// third loads their peers, branch-free as in Gather. A skipped player
// costs two SplitMix64 finalizers instead of Fill's three, and writes
// no words. Raw, Cursor and Gather serve the kept players exactly as
// after Fill; a skipped player's slots hold stale words, which nothing
// may read.
//
// The block must buffer K ≥ 2 draws, n and assign are as for Gather,
// and every assign value in the range must index ceil. No ceiling may
// be NaN: the skip test is the sign of f − ceil[s], and +Inf is the
// ceiling that keeps everyone. Both returned buffers are reused by the
// next call.
func (b *Block) FillCandidates(seed, round uint64, lo, hi int, assign []int32, n int, ceil []float64) (idx, peers []int32) {
	rule := newInt31nRule(n)
	if b.k < 2 {
		panic("prng: FillCandidates needs two buffered draws")
	}
	m := b.reset(lo, hi)
	pre := prefix(seed, round)
	idx = grow(&b.cand, m)
	var kept int
	if rule.masks() {
		kept = keepMasked(idx, assign[lo:lo+m], ceil, pre, lo)
	} else {
		kept = keepRejecting(idx, assign[lo:lo+m], ceil, pre, lo, rule)
	}
	idx = idx[:kept]
	k := b.k
	buf, states := b.buf, b.states
	for _, i := range idx {
		// Re-derive the seed: storing every player's seed in the first
		// stage measured no faster.
		s := mixFinalize((pre ^ uint64(lo+int(i))) + gamma)
		base := int(i) * k
		for d := 0; d < k; d++ {
			s += gamma
			buf[base+d] = mixFinalize(s)
		}
		states[i] = s
	}
	// The peer indices come from words already in buf, so every load's
	// address is ready when the loop reaches it.
	peers = grow(&b.peers, m)[:kept]
	for j, i := range idx {
		peers[j] = rule.peer(assign, buf[int(i)*k])
	}
	return idx, peers
}

// keepMasked is FillCandidates' first stage for a power-of-two n, whose
// Int31n never rejects, over the strategies from of the players lo,
// lo+1, …: it draws each player's stream seed Mix(seed, round, p) from
// the (seed, round) prefix pre, and its second word. Every player's
// offset is written at the next kept slot, which only a kept player
// advances, so idx starts with the kept offsets, ascending. It returns
// how many it kept. The loop is a function of its own so that it does
// not compete for registers with FillCandidates' other locals.
func keepMasked(idx []int32, from []int32, ceil []float64, pre uint64, lo int) int {
	idx = idx[:len(from)]
	kept := 0
	for i, s := range from {
		st := mixFinalize((pre ^ uint64(lo+i)) + gamma)
		x := mixFinalize(st+gamma+gamma) >> 1
		idx[kept] = int32(i)
		kept += int(movable(x, ceil[s]))
	}
	return kept
}

// keepRejecting is keepMasked for an n that is not a power of two: it
// also draws each player's first word and keeps the player when Int31n
// rejects it.
func keepRejecting(idx []int32, from []int32, ceil []float64, pre uint64, lo int, rule int31nRule) int {
	idx = idx[:len(from)]
	kept := 0
	for i, s := range from {
		st := mixFinalize((pre ^ uint64(lo+i)) + gamma)
		w0 := mixFinalize(st + gamma)
		x := mixFinalize(st+gamma+gamma) >> 1
		idx[kept] = int32(i)
		kept += int(movable(x, ceil[s]) | rule.rejects(w0))
	}
	return kept
}

// movable is 1 when a player whose second word is w, with x = w >> 1,
// must be kept under the ceiling c, and 0 when its draw rules out every
// move; it takes no data-dependent branch. With f = float64(int64(x)) /
// 2^63, rand.Float64's value before its resample-on-1.0:
//
//   - f < c exactly when f − c has its sign bit set, for any c that is
//     not NaN. IEEE subtraction returns zero only for f == c (with
//     gradual underflow), and rounding never flips the sign of a nonzero
//     difference. A +Inf ceiling keeps everyone.
//   - f == 1 exactly when x ≥ 2^63 − 512: in [2^62, 2^63) a float64 is a
//     multiple of 2^10, and the midpoint 2^63 − 512 ties to the even
//     neighbour 2^63. As x < 2^63, that is when x + 512 has its sign bit
//     set.
func movable(x uint64, c float64) uint64 {
	f := float64(int64(x)) / (1 << 63)
	return (math.Float64bits(f-c) | (x + 512)) >> 63
}

// grow returns (*buf)[:m], reallocating *buf when its capacity is short.
func grow[T any](buf *[]T, m int) []T {
	if cap(*buf) < m {
		*buf = make([]T, m)
	}
	return (*buf)[:m]
}

// Cursor returns a cursor over player p's draws. p must lie in the range
// of the last Fill. The cursor is a value — kernels keep it on the stack
// and pass it by pointer; no allocation.
func (b *Block) Cursor(p int) Cursor {
	i := p - b.lo
	base := i * b.k
	return Cursor{buf: b.buf[base : base+b.k], state: b.states[i]}
}

// Cursor yields one player's decision stream: first the block-buffered
// draws, then — transparently — scalar SplitMix64 draws continuing the
// same stream. Its derived-draw methods (Intn, Int63n, Float64, ...)
// replicate math/rand.Rand over a Source64 bit for bit, so swapping a
// *rand.Rand for a Cursor never changes a trajectory.
type Cursor struct {
	buf   []uint64
	i     int
	state uint64
}

// Uint64 returns the stream's next raw 64 bits.
func (c *Cursor) Uint64() uint64 {
	if c.i < len(c.buf) {
		v := c.buf[c.i]
		c.i++
		return v
	}
	c.state += gamma
	return mixFinalize(c.state)
}

// Int63 matches rand.Rand.Int63 over a prng.Source.
func (c *Cursor) Int63() int64 { return int64(c.Uint64() >> 1) }

// Int31 matches rand.Rand.Int31.
func (c *Cursor) Int31() int32 { return int32(c.Int63() >> 32) }

// Int63n matches rand.Rand.Int63n, including its rejection resampling.
func (c *Cursor) Int63n(n int64) int64 {
	if n <= 0 {
		panic("prng: invalid argument to Int63n")
	}
	if n&(n-1) == 0 { // power of two: mask
		return c.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := c.Int63()
	for v > max {
		v = c.Int63()
	}
	return v % n
}

// Int31n matches rand.Rand.Int31n, including its rejection resampling.
func (c *Cursor) Int31n(n int32) int32 {
	if n <= 0 {
		panic("prng: invalid argument to Int31n")
	}
	if n&(n-1) == 0 { // power of two: mask
		return c.Int31() & (n - 1)
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := c.Int31()
	for v > max {
		v = c.Int31()
	}
	return v % n
}

// Intn matches rand.Rand.Intn: Int31n for n that fits in 31 bits, Int63n
// beyond.
func (c *Cursor) Intn(n int) int {
	if n <= 0 {
		panic("prng: invalid argument to Intn")
	}
	if n <= 1<<31-1 {
		return int(c.Int31n(int32(n)))
	}
	return int(c.Int63n(int64(n)))
}

// Float64 matches rand.Rand.Float64, including the resample-on-1.0 guard.
func (c *Cursor) Float64() float64 {
	for {
		f := float64(c.Int63()) / (1 << 63)
		if f != 1 {
			return f
		}
	}
}
