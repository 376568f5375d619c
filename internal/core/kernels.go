package core

import (
	"math"

	"congame/internal/game"
	"congame/internal/prng"
)

// Devirtualized decision kernels for the imitation-family protocols.
//
// The generic decide loop pays, per player, a virtual proto.Decide call, a
// 3-word stream re-seed (Reusable.Reset3) and an interface-dispatched
// Source64 draw inside every rand.Rand method. For the protocols the
// engine actually runs hot — Imitation, VirtualImitation,
// UndampedImitation — decideRange instead type-switches, once per shard,
// to the monomorphic loops below, which walk the shard one prng.Tile at a
// time: the worker's prng.Block fills the tile's first-2 stream outputs in
// one tight batched pass, and each player's decision consumes those draws
// through a stack cursor in the exact order the scalar path consumes its
// rand.Rand draws. The symmetric-singleton loop instead draws each
// player's migration word first and skips, before deriving its peer
// word or reading any peer, every player whose migration draw already
// rules out a move (moveCeilings, prng.Block.FillCandidates); a skipped
// player would have stayed, so skipping it is invisible. Decisions, draw
// counts, and float evaluation order are identical, so trajectories are
// bit-identical to the generic path (pinned by TestKernelMatchesGeneric
// and every parity/golden wall), and tile edges never show: every
// player's decision reads only its own draws and the round-start view.
// Exploration, Combined, and user-supplied protocols keep the generic
// path: their draw counts are strategy-space dependent, which batching
// cannot anticipate — the reference loop stays the semantic ground truth
// either way.

// kernelDraws is the per-player draw budget the kernels buffer: one
// sampling draw (peer or virtual agent) plus one migration-probability
// draw. Rejection resampling past the budget falls back to the cursor's
// scalar continuation of the same stream.
const kernelDraws = 2

// decideImitationRange is Imitation.Decide inlined over one shard: sample
// a class peer, adopt its strategy with probability (λ/d)·gain/ℓ_P when
// the gain clears ν. The probability chain evaluates λ/d first (hoisted
// here), then ·gain, then /ℓ_P — the scalar expression's exact
// association.
func decideImitationRange(im *Imitation, view *game.RoundView, lo, hi int, d *game.Delta, sh *shard, seed, round uint64) {
	imitateRange(im.g, view, lo, hi, d, sh, seed, round, im.nu, im.lambda/im.d)
}

// decideUndampedRange is UndampedImitation.Decide inlined over one shard
// (the E5 overshooting ablation): the same loop with the 1/d damping
// dropped from the probability scale.
func decideUndampedRange(u *UndampedImitation, view *game.RoundView, lo, hi int, d *game.Delta, sh *shard, seed, round uint64) {
	imitateRange(u.g, view, lo, hi, d, sh, seed, round, u.nu, u.lambda)
}

// imitateRange is the shared imitation loop over one shard, one prng.Tile
// at a time: peer sample, anticipated gain against the round-start view,
// migrate when a Float64 draw clears scale·gain/ℓ_P. Symmetric singleton
// games (the parallel-links setting all heavy workloads use) take a
// further-specialized variant: the peer sample is a bare Intn (no class
// table) and the switch latency collapses to the O(1) JoinLatency lookup
// — for disjoint singleton strategies ℓ_to(x+1_to−1_from) is exactly
// ℓ⁺_to(x), the same table cell RoundView.SwitchLatency's singleton path
// reads. That variant first computes the shard's move ceilings, once per
// round, and returns before any fill when nobody can move; otherwise
// each tile runs one fused Block.FillCandidates pass instead of Fill.
func imitateRange(g *game.Game, view *game.RoundView, lo, hi int, d *game.Delta, sh *shard, seed, round uint64, nu, scale float64) {
	n := g.NumPlayers()
	singleton := g.IsSingleton() && g.NumClasses() == 1 && n < 1<<31
	if singleton {
		var movable bool
		if sh.ceil, movable = moveCeilings(view, nu, scale, sh.ceil); !movable {
			return
		}
	}
	blk := sh.blk
	for t := lo; t < hi; t += prng.Tile {
		end := min(t+prng.Tile, hi)
		if singleton {
			idx, peers := blk.FillCandidates(seed, round, t, end, view.State().AssignmentView(), n, sh.ceil)
			imitateSingletonTile(n, view, t, d, blk, idx, peers, nu, scale)
			continue
		}
		blk.Fill(seed, round, t, end)
		for p := t; p < end; p++ {
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
}

// moveCeilings sets ceil[s], for every registered strategy s, to a bound
// on the move probability scale·gain/ℓ_s of any player on s this round,
// and reports whether a player on any support strategy can move at all.
// It grows ceil to the strategy count and returns it.
//
// Imitation cannot discover unused strategies: a sampled peer holds a
// strategy in the support, so gain = ℓ_s − ℓ⁺_to ≤ ℓ_s − minJoin, with
// minJoin the least JoinLatency over the strategies with Count > 0 (an
// empty strategy with a lower join latency is no peer's). IEEE
// subtraction is monotone, and so are multiplication and division by a
// positive number, so ceil[s] = scale·(ℓ_s − minJoin)/ℓ_s, evaluated in
// the kernel's association, is at least the kernel's scale·gain/ℓ_s for
// every peer. A player whose second draw f satisfies f ≥ ceil[s] stays,
// whatever its peer. When ℓ_s − minJoin ≤ ν or ℓ_s ≤ 0, every gain fails
// the kernel's gain > ν, ℓ_s > 0 test, and ceil[s] = −1 (below every f).
// Where the expression evaluates to NaN (an infinite latency), ceil[s] is
// +Inf, which excludes nobody: Block.FillCandidates tests the sign of
// f − ceil[s], which a NaN would leave undefined.
func moveCeilings(view *game.RoundView, nu, scale float64, ceil []float64) ([]float64, bool) {
	k := view.Game().NumStrategies()
	if cap(ceil) < k {
		ceil = make([]float64, k)
	}
	ceil = ceil[:k]
	minJoin := math.Inf(1)
	for s := range ceil {
		if j := view.JoinLatency(s); j < minJoin && view.Count(s) > 0 {
			minJoin = j
		}
	}
	movable := false
	for s := range ceil {
		lp := view.StrategyLatency(s)
		best := lp - minJoin
		if best <= nu || lp <= 0 {
			ceil[s] = -1
			continue
		}
		if c := scale * best / lp; c == c {
			ceil[s] = c
		} else {
			ceil[s] = math.Inf(1) // NaN (an infinite latency) keeps everyone
		}
		movable = movable || view.Count(s) > 0
	}
	return ceil, movable
}

// imitateSingletonTile is the flattened symmetric-singleton decision
// over one tile starting at player lo, run on the kept offsets idx and
// peers that Block.FillCandidates returned for it. That pass skips every
// player whose second draw f is at least its strategy's ceiling
// (moveCeilings): such a player stays whatever its peer, so neither its
// peer word nor its peer is derived, and it is never stored. Only the
// kept players (7% on rush-4m) get their two words and continuation
// state written to the block, and their sampled peer's strategy
// assign[q] loaded into peers, branch-free, so those random reads — the
// round's dominant cost at large n before the filter — overlap instead
// of each stalling the decision that consumes it. This loop runs the
// decision body on the kept players against the buffer, reading the
// second word as Float64 = float64(int64(u64 >> 1)) / 2^63. The two rare
// cases that need draws beyond the formulas (Int31n rejection, which the
// gather marks -1, and the 2^-53 Float64 resample-on-1.0) are always kept
// and replay the whole player through a Cursor from draw 0, so
// consumption and values stay exactly the scalar path's. Skipping a
// player changes nobody else's draws: each player's draws are its own
// counter-based stream (DESIGN.md §4).
func imitateSingletonTile(n int, view *game.RoundView, lo int, d *game.Delta, blk *prng.Block, idx, peers []int32, nu, scale float64) {
	assign := view.State().AssignmentView()
	raw := blk.Raw()
	for j, to32 := range peers {
		i := int(idx[j])
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
// imitateSingletonTile's loop body, used when a decision needs draws the
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

// decideVirtualRange is VirtualImitation.Decide inlined over one shard,
// one prng.Tile at a time: sample among n real players plus K virtual
// agents pinned to the registered strategies, then apply the imitation
// rule. Virtual games are symmetric by construction (the constructor
// enforces one class).
func decideVirtualRange(vi *VirtualImitation, view *game.RoundView, lo, hi int, d *game.Delta, blk *prng.Block, seed, round uint64) {
	n := vi.g.NumPlayers()
	k := vi.g.NumStrategies()
	nu := vi.nu
	scale := vi.lambda / vi.d
	singleton := vi.g.IsSingleton()
	for t := lo; t < hi; t += prng.Tile {
		end := min(t+prng.Tile, hi)
		blk.Fill(seed, round, t, end)
		for p := t; p < end; p++ {
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
}
