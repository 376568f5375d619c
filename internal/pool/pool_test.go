package pool

import (
	"runtime"
	"testing"
	"time"
)

// owner stands in for an engine: it holds the pool, and its jobs point
// back at it.
type owner struct {
	p      *Pool[countJob]
	counts []int
}

func newOwner(workers int) *owner {
	o := &owner{p: New[countJob](), counts: make([]int, workers)}
	o.p.Grow(workers)
	return o
}

// round hands out one job per counter slot and joins them.
func (o *owner) round() {
	for i := range o.counts {
		o.p.Go(countJob{o: o, i: i})
	}
	o.p.Wait()
}

// countJob bumps one slot of its owner's counters; jobs of one round
// touch disjoint slots.
type countJob struct {
	o *owner
	i int
}

func (j countJob) Run() { j.o.counts[j.i]++ }

// TestPoolRunsEveryJob pins Go/Wait as a barrier: after Wait, every job
// handed out in the round has run exactly once, and a steady-state round
// allocates nothing.
func TestPoolRunsEveryJob(t *testing.T) {
	o := newOwner(3)
	for r := 1; r <= 5; r++ {
		o.round()
		for i, c := range o.counts {
			if c != r {
				t.Fatalf("round %d: job %d ran %d times, want %d", r, i, c, r)
			}
		}
	}
	if allocs := testing.AllocsPerRun(20, o.round); allocs != 0 {
		t.Fatalf("a round of 3 jobs allocated %.1f times, want 0", allocs)
	}
}

// TestPoolExitsWhenUnreachable pins the lifecycle: workers hold no
// reference to their Pool, nor to a finished job's owner, between jobs,
// so dropping the owner lets the finalizer close the channel and every
// worker goroutine exits.
func TestPoolExitsWhenUnreachable(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		o := newOwner(4)
		o.round()
		o.round()
		if got := runtime.NumGoroutine(); got < before+4 {
			t.Fatalf("%d goroutines with 4 workers live, want at least %d", got, before+4)
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the pool's owner became unreachable, want %d", runtime.NumGoroutine(), before)
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}
