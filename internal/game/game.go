// Package game implements the core model of atomic congestion games from
// Ackermann, Berenbrink, Fischer, Hoefer, "Concurrent Imitation Dynamics in
// Congestion Games" (PODC 2009): resources with load-dependent latency
// functions, interned strategies (sets of resources), player assignment
// states, and the Rosenthal potential.
//
// Strategies are interned: the game tracks only the strategies that have
// been registered (initially the support of the starting state, plus any
// strategies discovered later by exploration). Imitation dynamics never
// need the full strategy space — which may be exponential for network
// games — so all state is proportional to the support size.
//
// Mutation has three faces with one semantics: State.Move is the
// sequential reference (one player, exact incremental ΔΦ), RoundView is
// the immutable per-round latency snapshot decisions are computed
// against, and Delta/State.ApplyDeltas is the batch path — per-shard
// migration buffers merged in shard order, bit-identical to a sequence
// of Move calls for any shard count (see DESIGN.md §2–§4).
package game

import (
	"errors"
	"fmt"
	"math/rand"

	"congame/internal/latency"
	"congame/internal/prng"
)

// ErrInvalid reports an invalid game construction or operation.
var ErrInvalid = errors.New("game: invalid")

// Resource is a congestible resource (an edge in the network view) with a
// non-decreasing latency function.
type Resource struct {
	// Name identifies the resource in logs and tables. Optional.
	Name string
	// Latency maps congestion to latency; must satisfy the paper's
	// assumptions (non-decreasing, positive for positive load).
	Latency latency.Function
}

// Game is a symmetric atomic congestion game: n players, m resources, and a
// registry of interned strategies (each a non-empty sorted set of resource
// indices). Optional player classes restrict imitation sampling to players
// of the same class, which models the asymmetric extension mentioned at the
// end of Section 3.1 of the paper.
//
// A Game is immutable after construction except for strategy registration,
// which is append-only. It is safe for concurrent readers as long as no
// RegisterStrategy call is in flight; the simulation engine serializes
// registration between rounds.
type Game struct {
	name      string
	resources []Resource         // as constructed or added; ScaleLatency leaves them unscaled
	fns       []latency.Function // the evaluated latencies, flat for the hot loops (see scale)
	scale     []float64          // product of each resource's ScaleLatency factors, 1 = none
	n         int

	// Interned strategies in a flat CSR (compressed sparse row) layout:
	// strategy s occupies stratRes[stratOff[s]:stratOff[s+1]]. The intern
	// table dedupes by integer hashing — no string keys anywhere.
	stratOff     []int32
	stratRes     []int32
	stratTab     internTable
	stratNu      []float64 // ν_P per strategy
	resStrats    [][]int32 // resource -> strategies containing it, ascending
	allSingleton bool      // every registered strategy has exactly one resource
	retired      []bool    // strategy -> retired by a topology event (see dynamic.go)
	numRetired   int

	classOf      []int32 // player -> class (all zero for symmetric games)
	classMembers [][]int32
	numClasses   int

	elasticity float64 // protocol damping bound d ≥ 1
	slopeLoad  int     // ⌈d⌉, the load range for ν
}

// Config describes a game to construct.
type Config struct {
	// Name labels the game in logs and tables. Optional.
	Name string
	// Resources is the resource set; must be non-empty.
	Resources []Resource
	// Players is the number of players n; must be positive.
	Players int
	// Strategies is the initial strategy universe to register. Each entry
	// is a non-empty list of resource indices (duplicates within an entry
	// are rejected). At least one strategy is required.
	Strategies [][]int
	// ClassOf optionally assigns each player to a class for the asymmetric
	// extension: players only imitate members of their own class. If nil,
	// all players form a single class. Class IDs must be dense in [0, C).
	ClassOf []int
	// Elasticity overrides the automatically derived damping bound d. Zero
	// means derive it from the latency functions (floored at 1).
	Elasticity float64
}

// New constructs a game and derives the protocol parameters d (elasticity
// bound) and ν_P (per-strategy slope bound).
func New(cfg Config) (*Game, error) {
	if cfg.Players <= 0 {
		return nil, fmt.Errorf("%w: players = %d, need > 0", ErrInvalid, cfg.Players)
	}
	if len(cfg.Resources) == 0 {
		return nil, fmt.Errorf("%w: no resources", ErrInvalid)
	}
	for i, r := range cfg.Resources {
		if r.Latency == nil {
			return nil, fmt.Errorf("%w: resource %d has nil latency function", ErrInvalid, i)
		}
	}
	if len(cfg.Strategies) == 0 {
		return nil, fmt.Errorf("%w: no strategies", ErrInvalid)
	}

	g := &Game{
		name:         cfg.Name,
		resources:    append([]Resource(nil), cfg.Resources...),
		n:            cfg.Players,
		stratOff:     make([]int32, 1, len(cfg.Strategies)+1),
		resStrats:    make([][]int32, len(cfg.Resources)),
		allSingleton: true,
	}

	if err := g.initClasses(cfg.ClassOf); err != nil {
		return nil, err
	}

	fns := make([]latency.Function, len(g.resources))
	g.scale = make([]float64, len(g.resources))
	for i, r := range g.resources {
		fns[i] = r.Latency
		g.scale[i] = 1
	}
	g.fns = fns
	if cfg.Elasticity > 0 {
		g.elasticity = cfg.Elasticity
	} else {
		g.elasticity = latency.ProtocolElasticity(fns, float64(cfg.Players))
	}
	g.slopeLoad = int(g.elasticity)
	if float64(g.slopeLoad) < g.elasticity {
		g.slopeLoad++
	}
	if g.slopeLoad < 1 {
		g.slopeLoad = 1
	}
	// Congestion never exceeds n, so ν need not look past load n even when
	// the elasticity bound is huge (steep functions near zero load).
	if g.slopeLoad > g.n {
		g.slopeLoad = g.n
	}

	for i, s := range cfg.Strategies {
		if _, _, err := g.RegisterStrategy(s); err != nil {
			return nil, fmt.Errorf("strategy %d: %w", i, err)
		}
	}
	return g, nil
}

func (g *Game) initClasses(classOf []int) error {
	if classOf == nil {
		g.classOf = make([]int32, g.n)
		members := make([]int32, g.n)
		for i := range members {
			members[i] = int32(i)
		}
		g.classMembers = [][]int32{members}
		g.numClasses = 1
		return nil
	}
	if len(classOf) != g.n {
		return fmt.Errorf("%w: ClassOf has %d entries, want %d", ErrInvalid, len(classOf), g.n)
	}
	maxClass := 0
	for p, c := range classOf {
		if c < 0 {
			return fmt.Errorf("%w: player %d has negative class %d", ErrInvalid, p, c)
		}
		if c > maxClass {
			maxClass = c
		}
	}
	g.numClasses = maxClass + 1
	g.classOf = make([]int32, g.n)
	g.classMembers = make([][]int32, g.numClasses)
	for p, c := range classOf {
		g.classOf[p] = int32(c)
		g.classMembers[c] = append(g.classMembers[c], int32(p))
	}
	for c, members := range g.classMembers {
		if len(members) == 0 {
			return fmt.Errorf("%w: class %d has no players (class IDs must be dense)", ErrInvalid, c)
		}
	}
	return nil
}

// RegisterStrategy interns a strategy (a set of resource indices) and
// returns its ID. Registering an already-known strategy returns the
// existing ID with isNew=false. The input is copied and canonicalized
// (sorted); duplicate resources within the strategy are rejected.
func (g *Game) RegisterStrategy(resources []int) (id int, isNew bool, err error) {
	s, err := g.canonicalStrategy(resources)
	if err != nil {
		return 0, false, err
	}
	id, isNew = g.registerCanonical(s)
	return id, isNew, nil
}

// canonicalStrategy validates a resource list and returns its canonical
// (copied, sorted) form.
func (g *Game) canonicalStrategy(resources []int) ([]int32, error) {
	if len(resources) == 0 {
		return nil, fmt.Errorf("%w: empty strategy", ErrInvalid)
	}
	s := make([]int32, len(resources))
	for i, r := range resources {
		if r < 0 || r >= len(g.resources) {
			return nil, fmt.Errorf("%w: strategy references resource %d, have %d resources", ErrInvalid, r, len(g.resources))
		}
		s[i] = int32(r)
	}
	sortInt32(s)
	for i := 1; i < len(s); i++ {
		if s[i] == s[i-1] {
			return nil, fmt.Errorf("%w: strategy contains resource %d twice", ErrInvalid, s[i])
		}
	}
	return s, nil
}

// strat returns strategy s's interned, sorted resource list from the CSR
// arrays. The three-index slice keeps callers from appending into a
// neighbouring strategy.
func (g *Game) strat(s int) []int32 {
	lo, hi := g.stratOff[s], g.stratOff[s+1]
	return g.stratRes[lo:hi:hi]
}

// lookupCanonical returns the id of an already-canonical strategy, or -1.
// It is a pure table probe — safe for concurrent readers while the
// registry is frozen (the decide-phase contract).
func (g *Game) lookupCanonical(s []int32) int32 {
	return g.lookupHash(s, hashResources(s))
}

// lookupHash probes the intern table for a canonical strategy whose hash
// was already computed. Misses usually terminate on an empty slot or a
// single integer compare; only a full 64-bit hash match pays for the
// element-wise comparison against the CSR arrays.
func (g *Game) lookupHash(s []int32, hash uint64) int32 {
	slots := g.stratTab.slots
	if len(slots) == 0 {
		return -1
	}
	mask := uint64(len(slots) - 1)
	for i := hash & mask; ; i = (i + 1) & mask {
		slot := slots[i]
		if slot.id == 0 {
			return -1
		}
		if slot.hash == hash && equalResources(g.strat(int(slot.id-1)), s) {
			return slot.id - 1
		}
	}
}

// registerCanonical interns an already-canonical strategy by copying it
// into the CSR arrays; the caller keeps ownership of the input slice.
func (g *Game) registerCanonical(s []int32) (id int, isNew bool) {
	hash := hashResources(s)
	if got := g.lookupHash(s, hash); got >= 0 {
		return int(got), false
	}
	id = g.NumStrategies()
	g.stratRes = append(g.stratRes, s...)
	g.stratOff = append(g.stratOff, int32(len(g.stratRes)))
	g.stratTab.insert(int32(id), hash)
	g.retired = append(g.retired, false)
	if len(s) != 1 {
		g.allSingleton = false
	}
	nu := 0.0
	for _, e := range s {
		nu += latency.SlopeBound(g.fns[e], g.slopeLoad)
		g.resStrats[e] = append(g.resStrats[e], int32(id))
	}
	g.stratNu = append(g.stratNu, nu)
	return id, true
}

// Name returns the game's label.
func (g *Game) Name() string { return g.name }

// NumPlayers returns n.
func (g *Game) NumPlayers() int { return g.n }

// NumResources returns m.
func (g *Game) NumResources() int { return len(g.resources) }

// NumStrategies returns the number of registered strategies.
func (g *Game) NumStrategies() int { return len(g.stratOff) - 1 }

// Resource returns the resource with the given index. Its Latency is the
// function the game evaluates: once ScaleLatency has fired on e, one
// latency.Amplified around the resource's unscaled function.
func (g *Game) Resource(e int) Resource {
	r := g.resources[e]
	r.Latency = g.fns[e]
	return r
}

// Strategy returns a copy of the resource list of the given strategy.
func (g *Game) Strategy(s int) []int {
	view := g.strat(s)
	out := make([]int, len(view))
	for i, r := range view {
		out[i] = int(r)
	}
	return out
}

// StrategyView returns the interned, sorted resource list of the given
// strategy. Callers must not modify the returned slice.
func (g *Game) StrategyView(s int) []int32 { return g.strat(s) }

// LookupStrategy returns the ID of an already-registered strategy, or
// (-1, false) if the given resource set is not registered. The input need
// not be sorted. Strategies short enough for the stack buffer (all
// network paths and singleton moves in practice) are looked up without
// allocating.
func (g *Game) LookupStrategy(resources []int) (int, bool) {
	var buf [64]int32
	var s []int32
	if len(resources) <= len(buf) {
		s = buf[:len(resources)]
	} else {
		s = make([]int32, len(resources))
	}
	for i, r := range resources {
		if r < 0 || r >= len(g.resources) {
			return -1, false
		}
		s[i] = int32(r)
	}
	sortInt32(s)
	id := g.lookupCanonical(s)
	if id < 0 {
		return -1, false
	}
	return int(id), true
}

// sortInt32 sorts a small resource list in place: insertion sort, which
// beats sort.Slice's interface machinery at strategy sizes and does not
// allocate.
func sortInt32(s []int32) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}

// Elasticity returns the protocol damping bound d ≥ 1.
func (g *Game) Elasticity() float64 { return g.elasticity }

// SlopeLoad returns ⌈d⌉, the load range over which ν is computed.
func (g *Game) SlopeLoad() int { return g.slopeLoad }

// NuOf returns ν_P for the given strategy: the sum over its resources of the
// per-resource slope bounds ν_e.
func (g *Game) NuOf(s int) float64 { return g.stratNu[s] }

// Nu returns ν = max over enabled registered strategies P of ν_P: the
// minimum-gain threshold of the IMITATION PROTOCOL. Retired strategies
// (see RetireStrategy) no longer constrain the threshold.
func (g *Game) Nu() float64 {
	best := 0.0
	for s, nu := range g.stratNu {
		if nu > best && !g.retired[s] {
			best = nu
		}
	}
	return best
}

// MinEmptyLatency returns ℓmin = min_e ℓ_e(1), the minimum latency of an
// almost-empty resource, used by the EXPLORATION PROTOCOL's damping factor.
func (g *Game) MinEmptyLatency() float64 {
	best := g.fns[0].Value(1)
	for _, f := range g.fns[1:] {
		if v := f.Value(1); v < best {
			best = v
		}
	}
	return best
}

// MaxSlope returns β, an upper bound on the maximum one-player latency step
// max_e max_{x∈{1..n}} ℓ_e(x)−ℓ_e(x−1), used by the EXPLORATION PROTOCOL.
func (g *Game) MaxSlope() float64 {
	return latency.MaxSlopeBound(g.fns, g.n)
}

// MaxStrategyLatency returns an upper bound on ℓmax = max_x max_P ℓ_P(x)
// over registered strategies: every resource at full congestion n.
func (g *Game) MaxStrategyLatency() float64 {
	best := 0.0
	for s := 0; s < g.NumStrategies(); s++ {
		sum := 0.0
		for _, e := range g.strat(s) {
			sum += g.fns[e].Value(float64(g.n))
		}
		if sum > best {
			best = sum
		}
	}
	return best
}

// NumClasses returns the number of player classes (1 for symmetric games).
func (g *Game) NumClasses() int { return g.numClasses }

// ClassOf returns the class of the given player.
func (g *Game) ClassOf(p int) int { return int(g.classOf[p]) }

// ClassMembers returns the players in the given class. Callers must not
// modify the returned slice.
func (g *Game) ClassMembers(c int) []int32 { return g.classMembers[c] }

// SamplePeer draws a player uniformly from the given player's class —
// the imitation protocols' peer-sampling step. Symmetric games skip the
// member-table read: their single class's member list is the identity
// permutation by construction (initClasses), so the drawn index IS the
// sampled player and the draw sequence is bit-identical to
// members[rng.Intn(len(members))] without the guaranteed cache miss of
// reading a 4n-byte table at scale.
func (g *Game) SamplePeer(player int, rng *rand.Rand) int {
	if g.numClasses == 1 {
		return rng.Intn(g.n)
	}
	members := g.classMembers[g.classOf[player]]
	return int(members[rng.Intn(len(members))])
}

// SamplePeerCursor is SamplePeer over a block-generator cursor — the
// devirtualized decide kernels' peer-sampling step. The cursor's Intn
// replicates rand.Rand.Intn bit for bit, so both faces draw the same peer
// from the same stream position.
func (g *Game) SamplePeerCursor(player int, c *prng.Cursor) int {
	if g.numClasses == 1 {
		return c.Intn(g.n)
	}
	members := g.classMembers[g.classOf[player]]
	return int(members[c.Intn(len(members))])
}

// IsSingleton reports whether every registered strategy consists of exactly
// one resource (the parallel-links games of Section 5).
func (g *Game) IsSingleton() bool { return g.allSingleton }
