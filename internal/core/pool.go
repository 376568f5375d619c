package core

import "congame/internal/game"

// The parallel round used to spawn fresh goroutines every Step (decide
// fan-out, replay fan-out), which cost ~10 heap allocations per round at
// workers=2. The engine instead runs shards 1..k-1 on a persistent
// pool.Pool of poolJob values: after warm-up the sharded round allocates
// nothing, matching the single-worker path (the TestEngineStepZeroAllocs*
// tests and the cmd/bench allocs/op gate pin both at zero). Engines with
// workers ≤ 1 never start a pool.

// poolJob is one unit of sharded round work. The zero phase is a decide
// pass; replay jobs run the shard's ΔΦ replay instead.
type poolJob struct {
	replay bool
	// decide-pass inputs (replay jobs use only d)
	proto  Protocol
	view   *game.RoundView
	lo, hi int
	d      *game.Delta
	sh     *shard
	seed   uint64
	round  uint64
}

// Run executes the job on a pool worker.
func (j poolJob) Run() {
	if j.replay {
		j.d.Replay()
		return
	}
	decideRange(j.proto, j.view, j.lo, j.hi, j.d, j.sh, j.seed, j.round)
}

// decideRange decides players [lo, hi) against the shared round-start view
// and records the resulting migrations into the shard's private delta —
// the same code path for the inline single-worker round, the caller's own
// shard, and every pool worker, so decisions are identical regardless of
// where a shard runs. The imitation-family protocols dispatch, once per
// shard, to the devirtualized blocked kernels (kernels.go), which walk
// the shard in prng.Tile-player tiles so the worker's block stays one
// cache-sized tile whatever the shard size. Everything else — innovative
// protocols with data-dependent draw counts, user protocols — runs the
// generic reference loop over the scalar per-player streams. Both faces
// consume identical draw sequences, and every decision reads only its own
// player's draws and the round-start view, so neither the split nor shard
// or tile edges ever show up in a trajectory.
func decideRange(proto Protocol, view *game.RoundView, lo, hi int, d *game.Delta, sh *shard, seed, round uint64) {
	switch pr := proto.(type) {
	case *Imitation:
		decideImitationRange(pr, view, lo, hi, d, sh, seed, round)
	case *VirtualImitation:
		decideVirtualRange(pr, view, lo, hi, d, sh.blk, seed, round)
	case *UndampedImitation:
		decideUndampedRange(pr, view, lo, hi, d, sh, seed, round)
	default:
		for p := lo; p < hi; p++ {
			dec := proto.Decide(view, p, sh.stream.Reset3(seed, round, uint64(p)))
			if !dec.Move {
				continue
			}
			if dec.NewStrategy != nil {
				d.RecordNewStrategy(p, dec.NewStrategy)
			} else {
				d.RecordMove(p, dec.To)
			}
		}
	}
}
