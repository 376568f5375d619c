// Package weighted extends the imitation dynamics to weighted players on
// parallel links — the setting of Berenbrink, Friedetzky, Hajirasouliha,
// Hu (ESA 2007), cited as [5] in the paper's related work: each job i has a
// weight w_i and the congestion of a link is the sum of the weights on it.
//
// The IMITATION PROTOCOL carries over verbatim: sample a uniformly random
// player, anticipate the latency after moving the own weight, migrate with
// probability (λ/d)·gain/ℓ_current. For linear latencies ℓ_e(x) = a_e·x the
// weighted Rosenthal potential
//
//	Φ_w(x) = ½·Σ_e a_e·(W_e² + Σ_{i on e} w_i²)
//
// is exact: moving player i from link e to f changes Φ_w by
// w_i·(ℓ_f(W_f+w_i) − ℓ_e(W_e)), so the dynamics remain a super-martingale
// argument away from convergence; [5] shows pseudopolynomial bounds in the
// maximum weight, which experiment E14 measures.
package weighted

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"congame/internal/latency"
	"congame/internal/pool"
	"congame/internal/prng"
)

// ErrInvalid reports an invalid weighted-game construction or operation.
var ErrInvalid = errors.New("weighted: invalid")

// Game is a weighted singleton congestion game: m parallel links with
// latency functions of the total weight, and n players with positive
// weights.
type Game struct {
	fns     []latency.Function
	weights []float64
	totalW  float64
	d       float64
}

// NewGame validates and builds a weighted game. The elasticity damping d is
// derived from the latency functions over (0, totalWeight].
func NewGame(fns []latency.Function, weights []float64) (*Game, error) {
	if len(fns) == 0 {
		return nil, fmt.Errorf("%w: no links", ErrInvalid)
	}
	if len(weights) == 0 {
		return nil, fmt.Errorf("%w: no players", ErrInvalid)
	}
	total := 0.0
	for i, w := range weights {
		if !(w > 0) {
			return nil, fmt.Errorf("%w: player %d has weight %v, need > 0", ErrInvalid, i, w)
		}
		total += w
	}
	for e, f := range fns {
		if f == nil {
			return nil, fmt.Errorf("%w: link %d has nil latency", ErrInvalid, e)
		}
	}
	return &Game{
		fns:     append([]latency.Function(nil), fns...),
		weights: append([]float64(nil), weights...),
		totalW:  total,
		d:       latency.ProtocolElasticity(fns, total),
	}, nil
}

// NumLinks returns m.
func (g *Game) NumLinks() int { return len(g.fns) }

// NumPlayers returns n.
func (g *Game) NumPlayers() int { return len(g.weights) }

// Weight returns w_i.
func (g *Game) Weight(i int) float64 { return g.weights[i] }

// TotalWeight returns Σ w_i.
func (g *Game) TotalWeight() float64 { return g.totalW }

// Elasticity returns the derived damping bound d ≥ 1.
func (g *Game) Elasticity() float64 { return g.d }

// State assigns each weighted player to a link.
type State struct {
	g      *Game
	assign []int32
	load   []float64 // per link: total weight
}

// NewState builds a state from an explicit assignment (copied).
func NewState(g *Game, assign []int32) (*State, error) {
	if len(assign) != g.NumPlayers() {
		return nil, fmt.Errorf("%w: assignment has %d players, want %d", ErrInvalid, len(assign), g.NumPlayers())
	}
	st := &State{
		g:      g,
		assign: append([]int32(nil), assign...),
		load:   make([]float64, g.NumLinks()),
	}
	for i, e := range assign {
		if e < 0 || int(e) >= g.NumLinks() {
			return nil, fmt.Errorf("%w: player %d on link %d, have %d links", ErrInvalid, i, e, g.NumLinks())
		}
		st.load[e] += g.weights[i]
	}
	return st, nil
}

// NewRandomState assigns every player to a uniformly random link.
func NewRandomState(g *Game, rng *rand.Rand) (*State, error) {
	assign := make([]int32, g.NumPlayers())
	for i := range assign {
		assign[i] = int32(rng.Intn(g.NumLinks()))
	}
	return NewState(g, assign)
}

// Game returns the underlying game.
func (st *State) Game() *Game { return st.g }

// Assign returns player i's link.
func (st *State) Assign(i int) int { return int(st.assign[i]) }

// Load returns the total weight on link e.
func (st *State) Load(e int) float64 { return st.load[e] }

// AssignmentView returns the player-to-link vector. Callers must not
// modify it; it becomes stale after Move.
func (st *State) AssignmentView() []int32 { return st.assign }

// LinkLatency returns ℓ_e(W_e).
func (st *State) LinkLatency(e int) float64 {
	return st.g.fns[e].Value(st.load[e])
}

// PlayerLatency returns the latency player i currently experiences.
func (st *State) PlayerLatency(i int) float64 {
	return st.LinkLatency(int(st.assign[i]))
}

// SwitchLatency returns the latency player i would experience after moving
// to link e (its own weight joins e; if e is its current link, nothing
// changes).
func (st *State) SwitchLatency(i, e int) float64 {
	if int(st.assign[i]) == e {
		return st.LinkLatency(e)
	}
	return st.g.fns[e].Value(st.load[e] + st.g.weights[i])
}

// Gain returns the anticipated improvement of moving player i to link e.
func (st *State) Gain(i, e int) float64 {
	return st.PlayerLatency(i) - st.SwitchLatency(i, e)
}

// Move reassigns player i to link e.
func (st *State) Move(i, e int) {
	from := int(st.assign[i])
	if from == e {
		return
	}
	w := st.g.weights[i]
	st.load[from] -= w
	st.load[e] += w
	st.assign[i] = int32(e)
}

// MaxWeightedGain returns the largest improvement any player could realize
// and whether one exists above the threshold; this is the ε-Nash check.
func (st *State) MaxWeightedGain() float64 {
	best := 0.0
	for i := 0; i < st.g.NumPlayers(); i++ {
		for e := 0; e < st.g.NumLinks(); e++ {
			if g := st.Gain(i, e); g > best {
				best = g
			}
		}
	}
	return best
}

// IsNash reports whether no player can improve by more than eps.
func (st *State) IsNash(eps float64) bool {
	return st.MaxWeightedGain() <= eps
}

// MaxLatency returns the makespan max_e ℓ_e(W_e) over loaded links.
func (st *State) MaxLatency() float64 {
	best := 0.0
	for e := range st.load {
		if st.load[e] > 0 {
			if l := st.LinkLatency(e); l > best {
				best = l
			}
		}
	}
	return best
}

// AvgLatency returns the weight-averaged latency Σ_e (W_e/W)·ℓ_e(W_e).
func (st *State) AvgLatency() float64 {
	sum := 0.0
	for e := range st.load {
		if st.load[e] > 0 {
			sum += st.load[e] * st.LinkLatency(e)
		}
	}
	return sum / st.g.totalW
}

// LinearSlopes extracts the per-link slope a_e for games whose latencies
// are all pure linear ℓ_e(x) = a_e·x; it errors otherwise. The slice is
// freshly allocated — callers on a hot path extract it once (the game is
// immutable) and fold potentials through LinearPotentialWith, avoiding the
// per-round type switches and allocation.
func (g *Game) LinearSlopes() ([]float64, error) {
	slopes := make([]float64, g.NumLinks())
	for e, f := range g.fns {
		switch fn := f.(type) {
		case latency.Affine:
			if fn.B != 0 {
				return nil, fmt.Errorf("%w: link %d has offset %v", ErrInvalid, e, fn.B)
			}
			slopes[e] = fn.A
		case latency.Monomial:
			if fn.D != 1 {
				return nil, fmt.Errorf("%w: link %d has degree %v", ErrInvalid, e, fn.D)
			}
			slopes[e] = fn.A
		default:
			return nil, fmt.Errorf("%w: link %d latency %s is not linear", ErrInvalid, e, f)
		}
	}
	return slopes, nil
}

// LinearPotentialWith folds the exact weighted potential from slopes
// previously extracted by LinearSlopes. The fold order (links ascending,
// then players ascending) matches LinearPotential bit-for-bit.
func (st *State) LinearPotentialWith(slopes []float64) float64 {
	phi := 0.0
	for e := range slopes {
		phi += slopes[e] * st.load[e] * st.load[e]
	}
	for i, e := range st.assign {
		w := st.g.weights[i]
		phi += slopes[e] * w * w
	}
	return phi / 2
}

// LinearPotential returns the exact weighted potential
// ½·Σ_e a_e·(W_e² + Σ_{i on e} w_i²) for games whose latencies are all pure
// linear; it errors otherwise.
func (st *State) LinearPotential() (float64, error) {
	slopes, err := st.g.LinearSlopes()
	if err != nil {
		return 0, err
	}
	return st.LinearPotentialWith(slopes), nil
}

// Clone deep-copies the state.
func (st *State) Clone() *State {
	return &State{
		g:      st.g,
		assign: append([]int32(nil), st.assign...),
		load:   append([]float64(nil), st.load...),
	}
}

// Validate recomputes the load vector and checks consistency.
func (st *State) Validate() error {
	load := make([]float64, st.g.NumLinks())
	for i, e := range st.assign {
		load[e] += st.g.weights[i]
	}
	for e := range load {
		if diff := load[e] - st.load[e]; diff > 1e-9 || diff < -1e-9 {
			return fmt.Errorf("%w: link %d load %v, recomputed %v", ErrInvalid, e, st.load[e], load[e])
		}
	}
	return nil
}

// Protocol is the weighted IMITATION PROTOCOL.
type Protocol struct {
	g      *Game
	lambda float64
	nu     float64
}

// NewProtocol validates the protocol parameters. nu ≥ 0 is the minimum-gain
// threshold (0 disables it, the common choice in [5]-style analyses).
func NewProtocol(g *Game, lambda, nu float64) (*Protocol, error) {
	if lambda == 0 {
		lambda = 0.25
	}
	if lambda < 0 || lambda > 1 || lambda != lambda {
		return nil, fmt.Errorf("%w: lambda = %v", ErrInvalid, lambda)
	}
	if nu < 0 || nu != nu {
		return nil, fmt.Errorf("%w: nu = %v", ErrInvalid, nu)
	}
	return &Protocol{g: g, lambda: lambda, nu: nu}, nil
}

// Engine runs concurrent rounds of the weighted protocol with the same
// deterministic-parallelism contract as core.Engine. Like core.Engine it
// snapshots per-round latency values: every link's current latency
// ℓ_e(W_e) is evaluated once per round instead of once per player. (The
// anticipated latency after a switch still needs a live evaluation because
// it depends on the moving player's own weight.)
//
// With k > 1 workers (the GOMAXPROCS default; see WithWorkers) the
// decision phase is sharded across k goroutines over contiguous player
// ranges — the caller's own plus k−1 persistent pool.Pool workers, so a
// round allocates nothing after warm-up, as in core.Engine; every
// decision is a pure function of the round-start state and its (seed,
// round, player) stream, so the trajectory is bit-identical for every
// worker count. The apply phase stays sequential in player order: link
// loads are float weight sums, so the accumulation order is part of the
// determinism contract, and the per-move work is O(1) anyway.
type Engine struct {
	st      *State
	proto   *Protocol
	seed    uint64
	round   int
	workers int
	linkLat []float64     // per-round cache of ℓ_e(W_e)
	targets []int32       // reusable decision buffer
	blocks  []*prng.Block // one batched PRNG block per worker
	timer   func(StepTimings)
	pool    *pool.Pool[decideJob] // nil until the first sharded Step
}

// StepTimings carries the wall-clock durations of one weighted Step's
// phases: Snapshot covers the per-round link-latency cache fill (the
// weighted analogue of the RoundView sync), Decide the sharded decision
// pass, Apply the sequential move loop, and Step the whole round. The
// mirror of core.StepTimings for the weighted backend.
type StepTimings struct {
	Snapshot time.Duration
	Decide   time.Duration
	Apply    time.Duration
	Step     time.Duration
}

// SetStepTimer installs (or, with nil, removes) a per-round phase timer.
// It runs synchronously after each Step; with none installed the round
// takes no timestamps (nil checks only).
func (e *Engine) SetStepTimer(fn func(StepTimings)) { e.timer = fn }

// Option configures an Engine.
type Option func(*Engine)

// WithWorkers fixes the number of decision goroutines (default
// GOMAXPROCS, like core.WithWorkers; values ≤ 0 keep the default). One
// worker selects the sequential decision loop; the trajectory is the
// same for every value.
func WithWorkers(workers int) Option {
	return func(e *Engine) {
		if workers > 0 {
			e.workers = workers
		}
	}
}

// NewEngine wires a state and protocol.
func NewEngine(st *State, proto *Protocol, seed uint64, opts ...Option) (*Engine, error) {
	if st == nil || proto == nil {
		return nil, fmt.Errorf("%w: engine needs state and protocol", ErrInvalid)
	}
	e := &Engine{st: st, proto: proto, seed: seed, workers: runtime.GOMAXPROCS(0)}
	for _, opt := range opts {
		opt(e)
	}
	return e, nil
}

// State returns the live state.
func (e *Engine) State() *State { return e.st }

// Round returns the number of completed rounds.
func (e *Engine) Round() int { return e.round }

// block returns the lazily allocated batched PRNG block for a worker.
func (e *Engine) block(w int) *prng.Block {
	for len(e.blocks) <= w {
		e.blocks = append(e.blocks, prng.NewBlock(2))
	}
	return e.blocks[w]
}

// decideJob is one pool worker's shard of a round's decide phase.
type decideJob struct {
	e         *Engine
	lo, hi, n int
	blk       *prng.Block
}

// Run decides the job's shard on a pool worker.
func (j decideJob) Run() { j.e.decideRange(j.lo, j.hi, j.n, j.blk) }

// decideRange fills the decision buffer for players [lo, hi) against the
// round-start state, one prng.Tile of players at a time so the worker's
// block never holds more than one tile. Like the core engine's imitation
// kernels, the per-player (seed, round, i) streams are batch-generated
// into the worker's block: Block.Gather turns each first draw into the
// sampled peer's link, and the second is read as Float64 =
// float64(int64(u64 >> 1)) / 2^63. The rare draws these cannot serve —
// Int31n rejection, the Float64 resample-on-1.0 — replay the player
// through a cursor from draw 0, so values and stream consumption match
// the scalar Reset3 + rand.Rand path bit for bit (pinned by
// TestEngineBlockedDecideMatchesScalar).
func (e *Engine) decideRange(lo, hi, n int, blk *prng.Block) {
	for t := lo; t < hi; t += prng.Tile {
		e.decideTile(t, min(t+prng.Tile, hi), n, blk)
	}
}

// decideTile decides one tile in two passes: the branch-free
// Block.Gather of every player's sampled peer link (-1 marks an Int31n
// rejection), then the decision body against the gathered links. Unlike
// the core singleton kernel it reads every player's peer: skipping a
// player by its migration draw would need a bound on the weighted gain
// that is monotone in floating point for each latency family.
func (e *Engine) decideTile(lo, hi, n int, blk *prng.Block) {
	blk.Fill(e.seed, uint64(e.round), lo, hi)
	nu := e.proto.nu
	scale := e.proto.lambda / e.st.g.d
	if n >= 1<<31 {
		for i := lo; i < hi; i++ {
			e.targets[i] = -1
			cur := blk.Cursor(i)
			e.decidePlayerCursor(i, n, &cur, nu, scale)
		}
		return
	}
	assign := e.st.assign
	peers := blk.Gather(assign, n)
	raw := blk.Raw()[:2*len(peers)]
	for k, target32 := range peers {
		i := lo + k
		e.targets[i] = -1
		if target32 < 0 {
			cur := blk.Cursor(i)
			e.decidePlayerCursor(i, n, &cur, nu, scale)
			continue
		}
		target := int(target32)
		from := int(assign[i])
		if target == from {
			continue
		}
		lp := e.linkLat[from]
		gain := lp - e.st.SwitchLatency(i, target)
		if gain <= nu || lp <= 0 {
			continue
		}
		f := float64(int64(raw[2*k+1]>>1)) / (1 << 63)
		if f == 1 {
			cur := blk.Cursor(i)
			e.decidePlayerCursor(i, n, &cur, nu, scale)
			continue
		}
		if f < scale*gain/lp {
			e.targets[i] = int32(target)
		}
	}
}

// decidePlayerCursor is the slow-path twin of decideTile's loop body,
// replaying one player's decision through a cursor positioned at the
// player's first draw.
func (e *Engine) decidePlayerCursor(i, n int, cur *prng.Cursor, nu, scale float64) {
	q := cur.Intn(n)
	target := int(e.st.assign[q])
	from := int(e.st.assign[i])
	if target == from {
		return
	}
	lp := e.linkLat[from]
	gain := lp - e.st.SwitchLatency(i, target)
	if gain <= nu || lp <= 0 {
		return
	}
	if cur.Float64() < scale*gain/lp {
		e.targets[i] = int32(target)
	}
}

// Step executes one concurrent round and returns the number of migrations.
func (e *Engine) Step() int {
	var (
		t     StepTimings
		start time.Time
		mark  time.Time
	)
	if e.timer != nil {
		start = time.Now()
		mark = start
	}
	n := e.st.g.NumPlayers()
	m := e.st.g.NumLinks()
	if cap(e.linkLat) < m {
		e.linkLat = make([]float64, m)
	}
	e.linkLat = e.linkLat[:m]
	for l := 0; l < m; l++ {
		e.linkLat[l] = e.st.g.fns[l].Value(e.st.load[l])
	}
	if cap(e.targets) < n {
		e.targets = make([]int32, n)
	}
	e.targets = e.targets[:n]
	if e.timer != nil {
		now := time.Now()
		t.Snapshot = now.Sub(mark)
		mark = now
	}
	workers := e.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		e.decideRange(0, n, n, e.block(0))
	} else {
		chunk := (n + workers - 1) / workers
		used := (n + chunk - 1) / chunk
		if e.pool == nil {
			e.pool = pool.New[decideJob]()
		}
		e.pool.Grow(used - 1)
		blk0 := e.block(0)
		for w := 1; w < used; w++ {
			e.pool.Go(decideJob{e: e, lo: w * chunk, hi: min(w*chunk+chunk, n), n: n, blk: e.block(w)})
		}
		e.decideRange(0, chunk, n, blk0)
		e.pool.Wait()
	}
	if e.timer != nil {
		now := time.Now()
		t.Decide = now.Sub(mark)
		mark = now
	}
	moves := 0
	for i, to := range e.targets {
		if to >= 0 && int32(to) != e.st.assign[i] {
			e.st.Move(i, int(to))
			moves++
		}
	}
	if e.timer != nil {
		t.Apply = time.Since(mark)
	}
	e.round++
	if e.timer != nil {
		t.Step = time.Since(start)
		e.timer(t)
	}
	return moves
}

// Run executes rounds until the state is an eps-Nash or the budget runs
// out; it returns the rounds used and whether it converged.
func (e *Engine) Run(maxRounds int, eps float64) (int, bool) {
	if e.st.IsNash(eps) {
		return 0, true
	}
	for r := 1; r <= maxRounds; r++ {
		e.Step()
		if e.st.IsNash(eps) {
			return r, true
		}
	}
	return maxRounds, false
}
