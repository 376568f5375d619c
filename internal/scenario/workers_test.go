package scenario

import (
	"runtime"
	"testing"
)

// TestEngineWorkersAuto pins the auto engine worker count: replications
// that run in parallel get sequential engines, a lone replication — one
// rep, or par 1 — keeps the engine's own auto count (0), and an explicit
// count always wins.
func TestEngineWorkersAuto(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	autoPar := 0 // par 0 runs GOMAXPROCS replications at once
	if procs > 1 {
		autoPar = 1
	}
	for _, tc := range []struct {
		par, reps, workers, want int
	}{
		{par: 1, reps: 8, want: 0},
		{par: 2, reps: 1, want: 0},
		{par: 2, reps: 2, want: 1},
		{par: 4, reps: 3, want: 1},
		{par: 0, reps: 1, want: 0},
		{par: 0, reps: 8, want: autoPar},
		{par: 2, reps: 8, workers: 3, want: 3},
		{par: 1, reps: 1, workers: 2, want: 2},
	} {
		s := &Spec{Par: tc.par, Reps: tc.reps, Workers: tc.workers}
		if got := s.engineWorkers(); got != tc.want {
			t.Errorf("par=%d reps=%d workers=%d: engineWorkers = %d, want %d", tc.par, tc.reps, tc.workers, got, tc.want)
		}
	}
}
