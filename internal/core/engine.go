package core

import (
	"fmt"
	"runtime"
	"time"

	"congame/internal/game"
	"congame/internal/pool"
	"congame/internal/prng"
)

// RoundStats summarizes one simulation round.
type RoundStats struct {
	// Round is the 0-based index of the completed round.
	Round int
	// Players is the number of players n the round ran with — read after
	// the pre-round event hook, so under churn schedules observers see the
	// post-event population.
	Players int
	// Movers is the number of players that migrated this round.
	Movers int
	// NewStrategies is the number of previously unregistered strategies
	// discovered by exploration this round.
	NewStrategies int
	// Potential is the Rosenthal potential after the round (maintained
	// incrementally).
	Potential float64
	// AvgLatency is L_av after the round.
	AvgLatency float64
	// MaxLatency is the makespan after the round.
	MaxLatency float64
}

// RunResult summarizes a full Run.
type RunResult struct {
	// Rounds is the number of rounds executed.
	Rounds int
	// Converged reports whether the stop condition fired (as opposed to the
	// round budget running out).
	Converged bool
	// TotalMoves is the total number of migrations over all rounds.
	TotalMoves int
	// Final is the statistics record of the last executed round.
	Final RoundStats
}

// RoundObserver receives per-round statistics; implemented by
// trace.Recorder. Observers run synchronously on the engine's goroutine.
type RoundObserver interface {
	Observe(RoundStats)
}

// StepTimings carries the wall-clock durations of one Step's phases.
// PreRound covers the pre-round event hook (zero when none is installed),
// Sync the incremental RoundView refresh, Decide the sharded
// decide+record pass (the per-shard decision kernels record their
// migrations into private deltas in the same pass, so "decide" includes
// "record"), Apply the delta stage/replay/commit, and Step the whole
// round including stats collection.
type StepTimings struct {
	PreRound time.Duration
	Sync     time.Duration
	Decide   time.Duration
	Apply    time.Duration
	Step     time.Duration
}

// StepTimer receives the completed round's statistics and phase timings.
// It runs synchronously on the engine goroutine after each Step, before
// the RoundObservers. A timer must not mutate the engine or its state;
// like observers, it can never change the trajectory. With no timer
// installed the engine takes no timestamps at all — the nil check is the
// only cost — preserving the zero-overhead-when-disabled contract
// (the dynamics adapter translates these timings into internal/obs's
// phase record; core deliberately does not import obs).
type StepTimer func(stats RoundStats, t StepTimings)

// StopCondition inspects a snapshot of the state after each round and
// reports whether the run should stop. The engine passes a lazily
// refreshed snapshot: equilibrium predicates run on cached RoundView
// latency tables, while conditions that only read RoundStats never pay
// for the rebuild. Conditions must treat the snapshot as read-only.
type StopCondition func(v game.Snapshot, r RoundStats) bool

// Engine executes a protocol for all players concurrently, round by round.
// At the start of every round it refreshes one immutable game.RoundView
// (all resource and strategy latencies — incrementally via Sync, so only
// links whose load changed last round re-evaluate their latency
// functions). Every round is sharded: each worker decides a contiguous
// range of players against the shared view AND accumulates the resulting
// migrations into a private game.Delta, and the shards are then merged in
// shard-index order by game.State.ApplyDeltas (two-phase strategy
// registration, prefix entry loads, parallel ΔΦ replay). With one worker
// the single shard is decided and replayed on the calling goroutine —
// same code path, zero goroutines, zero steady-state allocations.
// Trajectories are bit-identical and deterministic in (seed, protocol,
// initial state) regardless of the worker count or GOMAXPROCS — see
// DESIGN.md §3–§4 and §8.
type Engine struct {
	st        *game.State
	proto     Protocol
	seed      uint64
	round     int
	workers   int
	phi       float64
	moves     int
	observers []RoundObserver
	preRound  PreRoundHook
	timer     StepTimer
	view      *game.RoundView
	streams   []*prng.Reusable // one reusable decision stream per worker
	blocks    []*prng.Block    // one batched PRNG block per worker
	deltas    []*game.Delta    // one private migration buffer per worker

	// Persistent workers for the sharded round's decide and replay
	// fan-outs (see pool.go); nil until the first multi-worker Step.
	pool *pool.Pool[poolJob]
}

// Option configures an Engine.
type Option func(*Engine)

// WithSeed sets the base random seed (default 1).
func WithSeed(seed uint64) Option {
	return func(e *Engine) { e.seed = seed }
}

// WithWorkers fixes the number of worker goroutines per round (default
// GOMAXPROCS). One worker runs the round's single shard inline on the
// calling goroutine; more fan the shards out. The trajectory is
// bit-identical for every worker count.
func WithWorkers(workers int) Option {
	return func(e *Engine) {
		if workers > 0 {
			e.workers = workers
		}
	}
}

// WithObserver registers a per-round observer (e.g. a trace recorder).
func WithObserver(obs RoundObserver) Option {
	return func(e *Engine) {
		if obs != nil {
			e.observers = append(e.observers, obs)
		}
	}
}

// PreRoundHook mutates the engine's state between rounds — the event
// schedule's entry point (internal/events). It runs at the very top of
// Step, before the round's player count is read and before the RoundView
// refresh, on the engine goroutine (never concurrently with workers). It
// returns the exact potential change ΔΦ of its mutations and whether it
// mutated anything; the engine folds ΔΦ into its incrementally maintained
// potential, so a hook that computes ΔΦ incorrectly corrupts the reported
// trajectory (the state itself stays consistent).
type PreRoundHook func(round int, st *game.State) (dphi float64, mutated bool)

// WithPreRound installs a pre-round mutation hook (see PreRoundHook).
func WithPreRound(hook PreRoundHook) Option {
	return func(e *Engine) { e.preRound = hook }
}

// SetPreRound installs (or, with nil, removes) the pre-round mutation hook
// after construction. Rounds already executed are unaffected.
func (e *Engine) SetPreRound(hook PreRoundHook) { e.preRound = hook }

// WithStepTimer installs a per-round phase timer (see StepTimer).
func WithStepTimer(t StepTimer) Option {
	return func(e *Engine) { e.timer = t }
}

// SetStepTimer installs (or, with nil, removes) the step timer after
// construction, replacing any earlier one.
func (e *Engine) SetStepTimer(t StepTimer) { e.timer = t }

// AddObserver registers a per-round observer after construction. Rounds
// already executed are not replayed; observers only see rounds stepped
// after registration.
func (e *Engine) AddObserver(obs RoundObserver) {
	if obs != nil {
		e.observers = append(e.observers, obs)
	}
}

// NewEngine builds an engine over the given state and protocol.
func NewEngine(st *game.State, proto Protocol, opts ...Option) (*Engine, error) {
	if st == nil || proto == nil {
		return nil, fmt.Errorf("%w: engine needs a state and a protocol", ErrInvalid)
	}
	e := &Engine{
		st:      st,
		proto:   proto,
		seed:    1,
		workers: runtime.GOMAXPROCS(0),
		phi:     st.Potential(),
		view:    game.NewRoundView(st),
	}
	for _, opt := range opts {
		opt(e)
	}
	return e, nil
}

// State returns the engine's (live) state.
func (e *Engine) State() *game.State { return e.st }

// Round returns the number of completed rounds.
func (e *Engine) Round() int { return e.round }

// Potential returns the incrementally maintained Rosenthal potential.
func (e *Engine) Potential() float64 { return e.phi }

// Snapshot refreshes the engine's reusable RoundView from the current
// state (incrementally — only entries stale since the last refresh are
// recomputed) and returns it. The returned view is valid until the next
// Step, Snapshot, or direct state mutation.
func (e *Engine) Snapshot() *game.RoundView {
	return e.view.Sync(e.st)
}

// lazySnapshot defers the RoundView rebuild until a stop condition
// actually queries it, so conditions that only read RoundStats (quiet
// detection, potential thresholds) cost nothing per round while
// equilibrium predicates still get cached tables. Run marks it stale
// before every stop invocation; the first query rebuilds at most once.
type lazySnapshot struct {
	e     *Engine
	stale bool
}

var _ game.Snapshot = (*lazySnapshot)(nil)

func (l *lazySnapshot) view() *game.RoundView {
	if l.stale {
		l.e.view.Sync(l.e.st)
		l.stale = false
	}
	return l.e.view
}

func (l *lazySnapshot) Game() *game.Game              { return l.e.st.Game() }
func (l *lazySnapshot) Assign(p int) int              { return l.e.st.Assign(p) }
func (l *lazySnapshot) Count(s int) int64             { return l.e.st.Count(s) }
func (l *lazySnapshot) Load(e int) int64              { return l.e.st.Load(e) }
func (l *lazySnapshot) Support() []int                { return l.e.st.Support() }
func (l *lazySnapshot) ResourceLatency(e int) float64 { return l.view().ResourceLatency(e) }
func (l *lazySnapshot) ResourceJoinLatency(e int) float64 {
	return l.view().ResourceJoinLatency(e)
}
func (l *lazySnapshot) StrategyLatency(s int) float64 { return l.view().StrategyLatency(s) }
func (l *lazySnapshot) JoinLatency(s int) float64     { return l.view().JoinLatency(s) }
func (l *lazySnapshot) SwitchLatency(from, to int) float64 {
	return l.view().SwitchLatency(from, to)
}
func (l *lazySnapshot) SwitchLatencyTo(from int, resources []int) float64 {
	return l.view().SwitchLatencyTo(from, resources)
}
func (l *lazySnapshot) Gain(from, to int) float64   { return l.view().Gain(from, to) }
func (l *lazySnapshot) PlayerLatency(p int) float64 { return l.view().PlayerLatency(p) }
func (l *lazySnapshot) AvgLatency() float64         { return l.view().AvgLatency() }
func (l *lazySnapshot) AvgJoinLatency() float64     { return l.view().AvgJoinLatency() }

// stream returns the lazily allocated reusable PRNG stream for a worker.
func (e *Engine) stream(w int) *prng.Reusable {
	for len(e.streams) <= w {
		e.streams = append(e.streams, prng.NewReusable())
	}
	return e.streams[w]
}

// block returns the lazily allocated batched PRNG block for a worker (the
// devirtualized kernels' per-shard draw buffer).
func (e *Engine) block(w int) *prng.Block {
	for len(e.blocks) <= w {
		e.blocks = append(e.blocks, prng.NewBlock(kernelDraws))
	}
	return e.blocks[w]
}

// delta returns the lazily allocated migration buffer for a worker, reset
// against the current state.
func (e *Engine) delta(w int) *game.Delta {
	for len(e.deltas) <= w {
		e.deltas = append(e.deltas, game.NewDelta(e.st))
	}
	return e.deltas[w].Reset(e.st)
}

// Step executes one concurrent round: the round-start snapshot is
// refreshed once (incrementally — only links whose load changed last
// round re-evaluate their latency functions), every player decides
// against it, and the migrations are merged by the sharded delta apply.
// One worker runs the single shard inline on the calling goroutine with
// zero steady-state allocations; any worker count produces bit-identical
// trajectories. The true sequential reference (player-by-player
// State.Move) lives in package game, where differential tests pin
// ApplyDeltas against it.
func (e *Engine) Step() RoundStats {
	// Phase timing is opt-in: with no timer the only cost per phase is a
	// nil check, keeping the disabled round byte- and allocation-identical
	// to the uninstrumented engine. time.Now() never allocates, so the
	// timed round stays on the zero-steady-state-allocation path too.
	var (
		t     StepTimings
		start time.Time
		mark  time.Time
	)
	if e.timer != nil {
		start = time.Now()
		mark = start
	}

	// Apply scheduled between-round mutations (churn, latency shifts,
	// topology events) before anything reads the round's population or
	// latencies. The hook runs sequentially on this goroutine, so the
	// resulting state — and hence the round — is identical for every
	// worker count.
	if e.preRound != nil {
		if dphi, mutated := e.preRound(e.round, e.st); mutated {
			e.st.EnsureStrategies()
			e.phi += dphi
		}
	}
	if e.timer != nil {
		now := time.Now()
		t.PreRound = now.Sub(mark)
		mark = now
	}
	n := e.st.Game().NumPlayers()

	// One immutable RoundView shared by all workers — the incremental
	// refresh replaces O(n·|S|·|P|) latency-function dispatches. Each
	// worker reuses one stream object, re-seeded per player, so decisions
	// are identical to fresh prng.Stream draws without per-player
	// allocations.
	view := e.view.Sync(e.st)
	if e.timer != nil {
		now := time.Now()
		t.Sync = now.Sub(mark)
		mark = now
	}
	workers := e.workers
	if workers > n {
		workers = n
	}
	var movers, newStrategies int
	if workers <= 1 {
		d := e.delta(0)
		decideRange(e.proto, view, 0, n, d, e.stream(0), e.block(0), e.seed, uint64(e.round))
		if e.timer != nil {
			now := time.Now()
			t.Decide = now.Sub(mark)
			mark = now
		}
		e.phi, movers, newStrategies = e.st.ApplyDeltas(e.phi, e.deltas[:1], 1)
		if e.timer != nil {
			t.Apply = time.Since(mark)
		}
	} else {
		var tp *StepTimings
		if e.timer != nil {
			tp = &t
		}
		movers, newStrategies = e.stepSharded(view, n, workers, tp, &mark)
	}
	e.moves += movers

	stats := RoundStats{
		Round:         e.round,
		Players:       n,
		Movers:        movers,
		NewStrategies: newStrategies,
		Potential:     e.phi,
		AvgLatency:    e.st.AvgLatency(),
		MaxLatency:    e.st.Makespan(),
	}
	e.round++
	if e.timer != nil {
		t.Step = time.Since(start)
		e.timer(stats, t)
	}
	for _, obs := range e.observers {
		obs.Observe(stats)
	}
	return stats
}

// stepSharded is the fully parallel round: each worker decides a
// contiguous shard of players against the shared view and records the
// resulting migrations into its private game.Delta in the same pass; the
// shards are then staged, replayed, and committed by the staged delta
// apply (game.State.StageDeltas / Delta.Replay / CommitDeltas — exactly
// ApplyDeltas with the replay fan-out driven by the engine's persistent
// pool). Shard boundaries never influence the trajectory, so any worker
// count reproduces the single-shard round bit-for-bit. Shards 1..k-1 run
// on pool workers while the calling goroutine handles shard 0; after
// warm-up the whole round allocates nothing (see pool.go). When t is
// non-nil the decide barrier and the commit are timestamped into it,
// advancing *mark (a nil t never touches mark).
func (e *Engine) stepSharded(view *game.RoundView, n, workers int, t *StepTimings, mark *time.Time) (movers, newStrategies int) {
	chunk := (n + workers - 1) / workers
	used := (n + chunk - 1) / chunk
	for w := 0; w < used; w++ {
		e.delta(w) // reset this round's arenas before any shard runs
		e.stream(w)
		e.block(w)
	}
	if e.pool == nil {
		e.pool = pool.New[poolJob]()
	}
	e.pool.Grow(used - 1)

	round := uint64(e.round)
	for w := 1; w < used; w++ {
		hi := w*chunk + chunk
		if hi > n {
			hi = n
		}
		e.pool.Go(poolJob{
			proto: e.proto, view: view,
			lo: w * chunk, hi: hi,
			d: e.deltas[w], stream: e.streams[w], blk: e.blocks[w],
			seed: e.seed, round: round,
		})
	}
	decideRange(e.proto, view, 0, chunk, e.deltas[0], e.streams[0], e.blocks[0], e.seed, round)
	e.pool.Wait()
	if t != nil {
		now := time.Now()
		t.Decide = now.Sub(*mark)
		*mark = now
	}

	newStrategies = e.st.StageDeltas(e.deltas[:used])
	for w := 1; w < used; w++ {
		e.pool.Go(poolJob{replay: true, d: e.deltas[w]})
	}
	e.deltas[0].Replay()
	e.pool.Wait()
	e.phi, movers = e.st.CommitDeltas(e.phi, e.deltas[:used])
	if t != nil {
		now := time.Now()
		t.Apply = now.Sub(*mark)
		*mark = now
	}
	return movers, newStrategies
}

// Run executes rounds until the stop condition fires or maxRounds rounds
// have been executed. A nil stop condition runs exactly maxRounds rounds.
// The stop condition is also evaluated once before the first round, so a
// state that is already stable reports Converged with zero rounds. Stop
// conditions receive a lazily built snapshot of the post-round state:
// latency queries run on cached RoundView tables, and conditions that
// only read RoundStats never pay for the rebuild.
func (e *Engine) Run(maxRounds int, stop StopCondition) RunResult {
	snap := &lazySnapshot{e: e}
	if stop != nil {
		snap.stale = true
		if stop(snap, RoundStats{Round: e.round - 1, Players: e.st.Game().NumPlayers(), Potential: e.phi}) {
			return RunResult{Rounds: 0, Converged: true, TotalMoves: e.moves, Final: e.currentStats()}
		}
	}
	if maxRounds <= 0 {
		// Zero budget: report the current state's statistics rather than a
		// zero-valued RoundStats, mirroring the early-converged path.
		return RunResult{Rounds: 0, Converged: false, TotalMoves: e.moves, Final: e.currentStats()}
	}
	var last RoundStats
	for i := 0; i < maxRounds; i++ {
		last = e.Step()
		snap.stale = true
		if stop != nil && stop(snap, last) {
			return RunResult{Rounds: i + 1, Converged: true, TotalMoves: e.moves, Final: last}
		}
	}
	return RunResult{Rounds: maxRounds, Converged: false, TotalMoves: e.moves, Final: last}
}

// currentStats summarizes the engine's current state as a RoundStats record
// attributed to the last completed round.
func (e *Engine) currentStats() RoundStats {
	return RoundStats{Round: e.round - 1, Players: e.st.Game().NumPlayers(), Potential: e.phi, AvgLatency: e.st.AvgLatency(), MaxLatency: e.st.Makespan()}
}

// TotalMoves returns the lifetime migration count accumulated over every
// executed round (the value Run reports as RunResult.TotalMoves).
func (e *Engine) TotalMoves() int { return e.moves }

// Restore overwrites the engine's round counter, incrementally maintained
// potential, and lifetime move count — the three pieces of engine-level
// trajectory state that are not derivable from the game state alone. It is
// the checkpoint/resume entry point (internal/checkpoint): after the game
// state has been rebuilt to its at-checkpoint value, Restore makes the
// engine continue exactly where the checkpointed one left off. The phi
// passed in must be the checkpointed engine's incrementally maintained
// potential (NOT a freshly recomputed st.Potential(), whose rounding can
// differ), so the resumed trajectory reports bit-identical potentials.
// PRNG state needs no restoring: decision draws are derived statelessly
// from (seed, round, player), so setting the round is sufficient.
func (e *Engine) Restore(round int, phi float64, moves int) error {
	if round < 0 || moves < 0 {
		return fmt.Errorf("%w: restore round %d, moves %d — both must be non-negative", ErrInvalid, round, moves)
	}
	e.round = round
	e.phi = phi
	e.moves = moves
	return nil
}
