package core

import (
	"congame/internal/game"
	"congame/internal/prng"
)

// Devirtualized decision kernels for the imitation-family protocols.
//
// The generic decide loop pays, per player, a virtual proto.Decide call, a
// 3-word stream re-seed (Reusable.Reset3) and an interface-dispatched
// Source64 draw inside every rand.Rand method. For the protocols the
// engine actually runs hot — Imitation, VirtualImitation,
// UndampedImitation — decideTile instead type-switches to the
// monomorphic loops below, one prng.Tile of the shard at a time: the
// worker's prng.Block fills the tile's first-2 stream outputs in one tight
// batched pass, and each player's decision consumes those draws through a
// stack cursor in the exact order the scalar path consumes its rand.Rand
// draws. Decisions, draw counts, and float evaluation order are
// identical, so trajectories are bit-identical to the generic path
// (pinned by TestKernelMatchesGeneric and every parity/golden wall), and
// tile edges never show: every player's decision reads only its own
// draws and the round-start view. Exploration, Combined, and
// user-supplied protocols keep the generic path: their draw counts are
// strategy-space dependent, which batching cannot anticipate — the
// reference loop stays the semantic ground truth either way.

// kernelDraws is the per-player draw budget the kernels buffer: one
// sampling draw (peer or virtual agent) plus one migration-probability
// draw. Rejection resampling past the budget falls back to the cursor's
// scalar continuation of the same stream.
const kernelDraws = 2

// decideImitationRange is Imitation.Decide inlined over one tile: sample
// a class peer, adopt its strategy with probability (λ/d)·gain/ℓ_P when
// the gain clears ν. The probability chain evaluates λ/d first (hoisted
// here), then ·gain, then /ℓ_P — the scalar expression's exact
// association.
func decideImitationRange(im *Imitation, view *game.RoundView, lo, hi int, d *game.Delta, blk *prng.Block, seed, round uint64) {
	imitateRange(im.g, view, lo, hi, d, blk, seed, round, im.nu, im.lambda/im.d)
}

// decideUndampedRange is UndampedImitation.Decide inlined over one tile
// (the E5 overshooting ablation): the same loop with the 1/d damping
// dropped from the probability scale.
func decideUndampedRange(u *UndampedImitation, view *game.RoundView, lo, hi int, d *game.Delta, blk *prng.Block, seed, round uint64) {
	imitateRange(u.g, view, lo, hi, d, blk, seed, round, u.nu, u.lambda)
}

// imitateRange is the shared imitation loop over one tile: peer sample,
// anticipated gain against the round-start view, migrate when a Float64
// draw clears scale·gain/ℓ_P. Symmetric singleton games (the
// parallel-links setting all heavy workloads use) take a
// further-specialized variant: the peer sample is a bare Intn (no class
// table) and the switch latency collapses to the O(1) JoinLatency lookup
// — for disjoint singleton strategies ℓ_to(x+1_to−1_from) is exactly
// ℓ⁺_to(x), the same table cell RoundView.SwitchLatency's singleton path
// reads.
func imitateRange(g *game.Game, view *game.RoundView, lo, hi int, d *game.Delta, blk *prng.Block, seed, round uint64, nu, scale float64) {
	blk.Fill(seed, round, lo, hi)
	if g.IsSingleton() && g.NumClasses() == 1 && g.NumPlayers() < 1<<31 {
		imitateSingletonRange(g.NumPlayers(), view, lo, d, blk, nu, scale)
		return
	}
	for p := lo; p < hi; p++ {
		cur := blk.Cursor(p)
		sampled := g.SamplePeerCursor(p, &cur)
		from := view.Assign(p)
		to := view.Assign(sampled)
		if from == to {
			continue
		}
		lp := view.StrategyLatency(from)
		gain := lp - view.SwitchLatency(from, to)
		if gain <= nu || lp <= 0 {
			continue
		}
		if cur.Float64() < scale*gain/lp {
			d.RecordMove(p, to)
		}
	}
}

// imitateSingletonRange is the flattened symmetric-singleton loop over
// one filled tile, in two passes. Block.Gather first loads every player's
// sampled peer strategy into the block's peer buffer in one branch-free
// pass, so the tile's random assign[q] reads — the round's dominant cost
// at large n — overlap instead of each stalling the decision that
// consumes it. The decide pass then runs the decision body against the
// buffer, reading the second word as Float64 = float64(int64(u64 >> 1)) /
// 2^63. The two rare cases that need draws beyond the formulas (Int31n
// rejection, which Gather marks -1, and the 2^-53 Float64
// resample-on-1.0) replay the whole player through a Cursor from draw 0,
// so consumption and values stay exactly the scalar path's.
func imitateSingletonRange(n int, view *game.RoundView, lo int, d *game.Delta, blk *prng.Block, nu, scale float64) {
	assign := view.State().AssignmentView()
	peers := blk.Gather(assign, n)
	raw := blk.Raw()[:kernelDraws*len(peers)]
	for i, to32 := range peers {
		p := lo + i
		if to32 < 0 {
			// Rejection: Int31n needs more draws than the formula covers.
			cur := blk.Cursor(p)
			imitateSingletonPlayer(n, view, p, d, &cur, nu, scale)
			continue
		}
		to := int(to32)
		from := int(assign[p])
		if from == to {
			continue
		}
		lp := view.StrategyLatency(from)
		gain := lp - view.JoinLatency(to)
		if gain <= nu || lp <= 0 {
			continue
		}
		f := float64(int64(raw[kernelDraws*i+1]>>1)) / (1 << 63) // rand.Float64
		if f == 1 {
			// The resample-on-1.0 guard fired; replay through the cursor.
			cur := blk.Cursor(p)
			imitateSingletonPlayer(n, view, p, d, &cur, nu, scale)
			continue
		}
		if f < scale*gain/lp {
			d.RecordMove(p, to)
		}
	}
}

// imitateSingletonPlayer replays one symmetric-singleton decision through
// a cursor positioned at the player's first draw — the slow-path twin of
// imitateSingletonRange's loop body, used when a decision needs draws the
// flattened formulas cannot serve.
func imitateSingletonPlayer(n int, view *game.RoundView, p int, d *game.Delta, cur *prng.Cursor, nu, scale float64) {
	to := view.Assign(cur.Intn(n))
	from := view.Assign(p)
	if from == to {
		return
	}
	lp := view.StrategyLatency(from)
	gain := lp - view.JoinLatency(to)
	if gain <= nu || lp <= 0 {
		return
	}
	if cur.Float64() < scale*gain/lp {
		d.RecordMove(p, to)
	}
}

// decideVirtualRange is VirtualImitation.Decide inlined over one tile:
// sample among n real players plus K virtual agents pinned to the
// registered strategies, then apply the imitation rule. Virtual games are
// symmetric by construction (the constructor enforces one class).
func decideVirtualRange(vi *VirtualImitation, view *game.RoundView, lo, hi int, d *game.Delta, blk *prng.Block, seed, round uint64) {
	n := vi.g.NumPlayers()
	k := vi.g.NumStrategies()
	nu := vi.nu
	scale := vi.lambda / vi.d
	singleton := vi.g.IsSingleton()
	blk.Fill(seed, round, lo, hi)
	for p := lo; p < hi; p++ {
		cur := blk.Cursor(p)
		var to int
		if u := cur.Intn(n + k); u < n {
			to = view.Assign(u)
		} else {
			to = u - n // a virtual agent pinned to strategy u−n
		}
		from := view.Assign(p)
		if from == to {
			continue
		}
		lp := view.StrategyLatency(from)
		var gain float64
		if singleton {
			gain = lp - view.JoinLatency(to)
		} else {
			gain = lp - view.SwitchLatency(from, to)
		}
		if gain <= nu || lp <= 0 {
			continue
		}
		if cur.Float64() < scale*gain/lp {
			d.RecordMove(p, to)
		}
	}
}
