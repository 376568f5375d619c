package weighted

// Blocked-decide parity: the engine's decide phase consumes batched block
// draws with math/rand's derivation formulas inlined. This differential
// test re-implements the scalar reference round — per-player
// Reset3 + rand.Rand draws, round-start link-latency cache, apply in
// player order — and pins the engine against it, trajectory-for-
// trajectory, at several player counts (power-of-two and not, within one
// prng.Tile and spanning several tiles with a ragged last one) and worker
// counts.

import (
	"testing"

	"congame/internal/latency"
	"congame/internal/prng"
)

// scalarStep is the pre-block reference round over a cloned state.
func scalarStep(st *State, proto *Protocol, seed uint64, round int) int {
	g := st.Game()
	n := g.NumPlayers()
	m := g.NumLinks()
	linkLat := make([]float64, m)
	for l := 0; l < m; l++ {
		linkLat[l] = g.fns[l].Value(st.load[l])
	}
	targets := make([]int32, n)
	stream := prng.NewReusable()
	for i := 0; i < n; i++ {
		targets[i] = -1
		rng := stream.Reset3(seed, uint64(round), uint64(i))
		q := rng.Intn(n)
		target := int(st.assign[q])
		from := int(st.assign[i])
		if target == from {
			continue
		}
		lp := linkLat[from]
		gain := lp - st.SwitchLatency(i, target)
		if gain <= proto.nu || lp <= 0 {
			continue
		}
		if rng.Float64() < proto.lambda/g.d*gain/lp {
			targets[i] = int32(target)
		}
	}
	moves := 0
	for i, to := range targets {
		if to >= 0 && to != st.assign[i] {
			st.Move(i, int(to))
			moves++
		}
	}
	return moves
}

func TestEngineBlockedDecideMatchesScalar(t *testing.T) {
	for _, n := range []int{256, 250, 509, 3*prng.Tile + 517} {
		for _, workers := range []int{1, 2, 3} {
			fns := make([]latency.Function, 12)
			for e := range fns {
				f, err := latency.NewLinear(1 + float64(e)/3)
				if err != nil {
					t.Fatal(err)
				}
				fns[e] = f
			}
			rng := prng.New(4)
			weights := make([]float64, n)
			for i := range weights {
				weights[i] = 1 + rng.Float64()*5
			}
			g, err := NewGame(fns, weights)
			if err != nil {
				t.Fatal(err)
			}
			initial, err := NewRandomState(g, rng)
			if err != nil {
				t.Fatal(err)
			}
			proto, err := NewProtocol(g, 0.25, 0)
			if err != nil {
				t.Fatal(err)
			}
			const seed = 6
			eng, err := NewEngine(initial.Clone(), proto, seed, WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			ref := initial.Clone()
			for round := 0; round < 30; round++ {
				gotMoves := eng.Step()
				wantMoves := scalarStep(ref, proto, seed, round)
				if gotMoves != wantMoves {
					t.Fatalf("n=%d workers=%d round %d: %d moves, scalar reference %d",
						n, workers, round, gotMoves, wantMoves)
				}
				for i := range ref.assign {
					if ref.assign[i] != eng.State().assign[i] {
						t.Fatalf("n=%d workers=%d round %d: player %d on link %d, scalar reference %d",
							n, workers, round, i, eng.State().assign[i], ref.assign[i])
					}
				}
			}
		}
	}
}
