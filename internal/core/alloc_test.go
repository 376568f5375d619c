package core

// Allocation-regression tests: the single-worker engine round is a
// zero-steady-state-allocation path (the bench-gate CI job also pins this
// via cmd/bench compare, but the tests fail faster and closer to the
// cause). Warm-up rounds let the reusable buffers (delta moves, entry
// loads, view tables, each worker's draw and peer tile) reach their
// high-water marks first. The player count spans several decide tiles
// with a ragged last one, so the steady state covers tile refills.

import (
	"testing"

	"congame/internal/prng"
	"congame/internal/workload"
)

// allocTestPlayers puts more than one decide tile in every shard at
// workers 1 and 2.
const allocTestPlayers = 4*prng.Tile + 1001

// TestEngineStepZeroAllocsWorkers1 pins the engine's one-worker round at
// zero allocations per step on the heavy-traffic workload.
func TestEngineStepZeroAllocsWorkers1(t *testing.T) {
	inst, err := workload.HeavyTraffic(allocTestPlayers, 32, prng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	im, err := NewImitation(inst.Game, ImitationConfig{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(inst.State, im, WithSeed(1), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		e.Step() // reach buffer high-water marks
	}
	allocs := testing.AllocsPerRun(20, func() { e.Step() })
	if allocs != 0 {
		t.Fatalf("engine step at workers=1 allocated %.1f times per round, want 0", allocs)
	}
}

// TestEngineStepZeroAllocsWorkers2 pins the sharded round at zero
// allocations per step: the persistent worker pool and the staged delta
// apply replace the per-round goroutine spawns (closures, WaitGroups)
// that used to cost ~10 allocations per parallel round.
func TestEngineStepZeroAllocsWorkers2(t *testing.T) {
	inst, err := workload.HeavyTraffic(allocTestPlayers, 32, prng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	im, err := NewImitation(inst.Game, ImitationConfig{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(inst.State, im, WithSeed(1), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		e.Step() // reach buffer high-water marks, spawn the pool
	}
	allocs := testing.AllocsPerRun(20, func() { e.Step() })
	if allocs != 0 {
		t.Fatalf("engine step at workers=2 allocated %.1f times per round, want 0", allocs)
	}
}
