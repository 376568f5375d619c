package scenario

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"congame/internal/checkpoint"
	"congame/internal/dynamics"
	"congame/internal/events"
	"congame/internal/workload"
)

// cancelAfter is a real cancellation that fires on the (limit+1)-th Err
// poll. Unlike limitedCtx it closes Done, so it also reaches the context
// runner.Map derives for its parallel workers and stops their dispatch.
// The replications of a parallel run share the poll budget, so where each
// one is interrupted depends on scheduling. Each poll yields the
// processor, so the replications overlap before the budget runs out even
// at GOMAXPROCS 1.
type cancelAfter struct {
	context.Context
	cancel context.CancelFunc
	calls  atomic.Int64
	limit  int64
}

func newCancelAfter(polls int) *cancelAfter {
	ctx, cancel := context.WithCancel(context.Background())
	return &cancelAfter{Context: ctx, cancel: cancel, limit: int64(polls)}
}

func (c *cancelAfter) Err() error {
	runtime.Gosched()
	if c.calls.Add(1) > c.limit {
		c.cancel()
	}
	return c.Context.Err()
}

// parallelPars are the replication parallelisms the parallel resume tests
// run at: 2 and GOMAXPROCS, when that is larger.
func parallelPars() []int {
	if g := runtime.GOMAXPROCS(0); g > 2 {
		return []int{2, g}
	}
	return []int{2}
}

// suspendAndResumeParallel drives a checkpointed Run at the given par to
// completion through repeated kills, each after `polls` Err polls shared
// by the running replications. Returns the completed result, the number
// of suspended attempts, and the largest number of in-flight snapshots a
// suspension left in the manifest.
func suspendAndResumeParallel(t *testing.T, spec func() *Spec, par, every, polls int) (*Result, int, int) {
	t.Helper()
	cfg := CheckpointConfig{Dir: t.TempDir(), Every: every}
	maxSnaps := 0
	for attempt := 0; attempt < 2000; attempt++ {
		ctx := newCancelAfter(polls)
		res, err := Run(ctx, spec(), Options{Par: par, Checkpoint: &cfg})
		ctx.cancel()
		if err == nil {
			return res, attempt, maxSnaps
		}
		if !errors.Is(err, ErrSuspended) || !errors.Is(err, context.Canceled) {
			t.Fatalf("attempt %d: %v, want a suspension wrapping context.Canceled", attempt, err)
		}
		m, err := loadManifest(filepath.Join(cfg.Dir, manifestName))
		if err != nil {
			t.Fatal(err)
		}
		maxSnaps = max(maxSnaps, len(m.Snaps))
	}
	t.Fatal("run never completed within 2000 kill-and-resume attempts")
	return nil, 0, 0
}

// TestCheckpointedKillAndResumeParallel kills and resumes checkpointed
// runs whose replications run in parallel. Every run must finish
// bit-identical to the uninterrupted one, and some suspension must have
// left two or more replications' snapshots in the manifest at once, so
// the test cannot pass with replications that never overlapped.
func TestCheckpointedKillAndResumeParallel(t *testing.T) {
	for _, tc := range []struct {
		name         string
		spec         func() *Spec
		every, polls int
	}{
		{"exact", ckptSpec, 5, 3},
		{"fluid", fluidCkptSpec, 4, 3},
	} {
		want, err := Run(context.Background(), tc.spec(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range parallelPars() {
			t.Run(fmt.Sprintf("%s/par%d", tc.name, par), func(t *testing.T) {
				got, attempts, maxSnaps := suspendAndResumeParallel(t, tc.spec, par, tc.every, tc.polls)
				t.Logf("%d suspensions, up to %d in-flight snapshots at once", attempts, maxSnaps)
				if attempts == 0 {
					t.Fatal("run completed without a single suspension")
				}
				if maxSnaps < 2 {
					t.Errorf("over %d suspensions the manifest never held more than %d in-flight snapshots, want ≥ 2", attempts, maxSnaps)
				}
				assertSameResult(t, got, want)
			})
		}
	}
}

// restoreSpy is a checkpointable, evented dynamics that reports every
// Restore with the replication's dynamics seed.
type restoreSpy struct {
	dynamics.Dynamics
	seed     uint64
	restored func(seed uint64)
}

func (d restoreSpy) Capture(streak int) *checkpoint.Snapshot {
	return d.Dynamics.(dynamics.Checkpointable).Capture(streak)
}

func (d restoreSpy) Restore(s *checkpoint.Snapshot) error {
	d.restored(d.seed)
	return d.Dynamics.(dynamics.Checkpointable).Restore(s)
}

func (d restoreSpy) TotalMoves() int { return d.Dynamics.(dynamics.Checkpointable).TotalMoves() }

func (d restoreSpy) SetEvents(s *events.Schedule, obs ...events.FiringObserver) error {
	return d.Dynamics.(dynamics.Evented).SetEvents(s, obs...)
}

// TestCheckpointedCorruptOneOfSeveralSnapshots: with several replications
// in flight, a snapshot that fails its CRC check restarts its own
// replication from round 0 and no other. Every intact snapshot is
// restored exactly once, and the result still matches an uninterrupted
// run.
func TestCheckpointedCorruptOneOfSeveralSnapshots(t *testing.T) {
	var mu sync.Mutex
	restored := map[uint64]int{}
	RegisterDynamics(DynKind{
		Name: "test-restore-spy", Desc: "imitation that reports each Restore", Group: GroupEngine,
		Build: func(inst *workload.Instance, p Params, seed uint64, workers int) (Built, error) {
			b, err := dynKinds["imitation"].Build(inst, p, seed, workers)
			b.Dyn = restoreSpy{Dynamics: b.Dyn, seed: seed, restored: func(s uint64) {
				mu.Lock()
				defer mu.Unlock()
				restored[s]++
			}}
			return b, err
		},
	})
	t.Cleanup(func() { delete(dynKinds, "test-restore-spy") })
	spec := func() *Spec {
		s := ckptSpec()
		s.Dynamics.Kind = "test-restore-spy"
		return s
	}
	want, err := Run(context.Background(), spec(), Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Kill fresh runs until one suspension leaves several snapshots.
	var (
		cfg CheckpointConfig
		m   *manifest
	)
	for try := 0; m == nil || len(m.Snaps) < 2; try++ {
		if try == 50 {
			t.Fatal("no suspension left two or more in-flight snapshots")
		}
		cfg = CheckpointConfig{Dir: t.TempDir(), Every: 5}
		ctx := newCancelAfter(3)
		_, err := Run(ctx, spec(), Options{Par: 2, Checkpoint: &cfg})
		ctx.cancel()
		if !errors.Is(err, ErrSuspended) {
			t.Fatalf("kill did not suspend the run: %v", err)
		}
		if m, err = loadManifest(filepath.Join(cfg.Dir, manifestName)); err != nil {
			t.Fatal(err)
		}
	}
	data := m.Snaps[0].Data
	data[len(data)/2] ^= 0xff
	victim := m.Snaps[0]
	m.path = filepath.Join(cfg.Dir, manifestName)
	if err := m.save(); err != nil {
		t.Fatal(err)
	}
	s := spec()
	cells, err := Grid(s, false)
	if err != nil {
		t.Fatal(err)
	}
	wantRestored := map[uint64]int{}
	for _, r := range m.Snaps[1:] {
		wantRestored[s.DynamicsSeed(cells[r.Cell], r.Rep)] = 1
	}
	clear(restored)
	t.Logf("corrupted cell %d rep %d of %d in-flight snapshots", victim.Cell, victim.Rep, len(m.Snaps))

	got, err := Run(context.Background(), spec(), Options{Par: 2, Checkpoint: &cfg})
	if err != nil {
		t.Fatalf("resume over one corrupt snapshot failed: %v", err)
	}
	assertSameResult(t, got, want)
	if !maps.Equal(restored, wantRestored) {
		t.Errorf("resume restored %v (dynamics seed → count), want %v: only cell %d rep %d may restart from round 0",
			restored, wantRestored, victim.Cell, victim.Rep)
	}
}

// failFast fails its replication at once: Run returns without stepping,
// and Err reports the failure.
type failFast struct{ dynamics.Dynamics }

func (failFast) Run(int, dynamics.StopCondition) dynamics.RunResult { return dynamics.RunResult{} }

func (failFast) Err() error { return errors.New("policy failed") }

// TestCheckpointedSiblingFailureIsNotSuspension: when one replication
// fails while another is still stepping, the run reports the failure, not
// a suspension, and the replication that was stepping finishes and is
// recorded.
func TestCheckpointedSiblingFailureIsNotSuspension(t *testing.T) {
	var failSeed uint64
	RegisterDynamics(DynKind{
		Name: "test-fail-rep1", Desc: "imitation whose replication 1 fails at once", Group: GroupEngine,
		Build: func(inst *workload.Instance, p Params, seed uint64, workers int) (Built, error) {
			b, err := dynKinds["imitation"].Build(inst, p, seed, workers)
			if seed == failSeed {
				b.Dyn = failFast{b.Dyn}
			}
			return b, err
		},
	})
	t.Cleanup(func() { delete(dynKinds, "test-fail-rep1") })
	spec := minimalSpec()
	spec.Dynamics = DynamicsSpec{Kind: "test-fail-rep1"}
	spec.Rounds = 3000
	cells, err := Grid(spec, false)
	if err != nil {
		t.Fatal(err)
	}
	failSeed = spec.DynamicsSeed(cells[0], 1)

	dir := t.TempDir()
	_, err = Run(context.Background(), spec, Options{Par: 2, Checkpoint: &CheckpointConfig{Dir: dir}})
	if err == nil || errors.Is(err, ErrSuspended) || !strings.Contains(err.Error(), "policy failed") {
		t.Fatalf("run error %v, want replication 1's failure", err)
	}
	m, err := loadManifest(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	if m == nil {
		t.Fatal("no manifest written")
	}
	if len(m.Done) != 1 || m.Done[0].Rep != 0 || len(m.Snaps) != 0 {
		t.Errorf("manifest holds completed %+v and %d snapshots, want replication 0 only and none", m.Done, len(m.Snaps))
	}
}
