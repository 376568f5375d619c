package runner

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"congame/internal/core"
	"congame/internal/dynamics"
	"congame/internal/prng"
	"congame/internal/workload"
)

// TestMapOrdersResults: results come back in job-index order for every
// parallelism.
func TestMapOrdersResults(t *testing.T) {
	for _, par := range []int{1, 2, 3, 7, 32} {
		got, err := Map(context.Background(), 20, par, func(_ context.Context, i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("par %d: %v", par, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("par %d: result[%d] = %d, want %d", par, i, v, i*i)
			}
		}
	}
}

// TestMapDeterministicAcrossParallelism is the determinism contract: a
// simulation-shaped workload (each job runs a replication and returns its
// aggregate) must produce bit-identical fold inputs for parallelism
// 1/2/3/GOMAXPROCS crossed with engine workers 1/GOMAXPROCS.
func TestMapDeterministicAcrossParallelism(t *testing.T) {
	gmp := runtime.GOMAXPROCS(0)
	job := func(workers int) func(ctx context.Context, rep int) (dynamics.RunResult, error) {
		return func(_ context.Context, rep int) (dynamics.RunResult, error) {
			inst, err := workload.LinearSingletons(6, 120, 4, prng.Stream(99, uint64(rep)))
			if err != nil {
				return dynamics.RunResult{}, err
			}
			im, err := core.NewImitation(inst.Game, core.ImitationConfig{})
			if err != nil {
				return dynamics.RunResult{}, err
			}
			e, err := core.NewEngine(inst.State, im, core.WithSeed(prng.Mix(7, uint64(rep))), core.WithWorkers(workers))
			if err != nil {
				return dynamics.RunResult{}, err
			}
			return dynamics.FromEngine(e).Run(200, dynamics.FromCore(core.StopWhenApproxEq(0.1, 0.1, im.Nu()))), nil
		}
	}
	var want []dynamics.RunResult
	for _, workers := range []int{1, gmp} {
		for _, par := range []int{1, 2, 3, gmp} {
			got, err := Map(context.Background(), 12, par, job(workers))
			if err != nil {
				t.Fatalf("par %d workers %d: %v", par, workers, err)
			}
			if want == nil {
				want = got
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("par %d workers %d: aggregates differ from par 1 workers 1", par, workers)
			}
		}
	}
}

// TestMapBoundsParallelism: no more than par jobs run at once.
func TestMapBoundsParallelism(t *testing.T) {
	const par = 3
	var active, peak int64
	var mu sync.Mutex
	_, err := Map(context.Background(), 24, par, func(_ context.Context, i int) (struct{}, error) {
		cur := atomic.AddInt64(&active, 1)
		mu.Lock()
		if cur > peak {
			peak = cur
		}
		mu.Unlock()
		time.Sleep(time.Millisecond)
		atomic.AddInt64(&active, -1)
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak > par {
		t.Errorf("peak concurrency %d exceeds par %d", peak, par)
	}
}

// TestMapError: a failing job aborts the run and the error surfaces;
// with parallelism 1 the first failing index is reported.
func TestMapError(t *testing.T) {
	boom := errors.New("boom")
	var ran int64
	_, err := Map(context.Background(), 100, 1, func(_ context.Context, i int) (int, error) {
		atomic.AddInt64(&ran, 1)
		if i == 3 {
			return 0, fmt.Errorf("job %d: %w", i, boom)
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error = %v, want wrapped boom", err)
	}
	if err.Error() != "job 3: boom" {
		t.Errorf("error = %q, want the first failing index", err)
	}
	if ran != 4 {
		t.Errorf("%d jobs ran after failure at index 3, want 4", ran)
	}

	_, err = Map(context.Background(), 100, 4, func(_ context.Context, i int) (int, error) {
		if i%10 == 3 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("parallel error = %v, want boom", err)
	}
}

// TestMapCancellation: canceling the context stops new jobs from starting
// and returns ctx.Err.
func TestMapCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started int64
	release := make(chan struct{})
	done := make(chan struct{})
	var err error
	go func() {
		defer close(done)
		_, err = Map(ctx, 1000, 2, func(_ context.Context, i int) (int, error) {
			atomic.AddInt64(&started, 1)
			<-release
			return i, nil
		})
	}()
	// Let the two workers pick up jobs, then cancel and release them.
	for atomic.LoadInt64(&started) < 2 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	close(release)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Map did not return after cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if n := atomic.LoadInt64(&started); n > 4 {
		t.Errorf("%d jobs started after cancellation, want at most the in-flight pool", n)
	}
}

// TestMapSequentialCancellation covers the par=1 fast path.
func TestMapSequentialCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ran := 0
	_, err := Map(ctx, 100, 1, func(_ context.Context, i int) (int, error) {
		ran++
		if i == 5 {
			cancel()
		}
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if ran != 6 {
		t.Errorf("%d jobs ran, want 6 (cancel checked before each job)", ran)
	}
}

// TestMapValidation rejects invalid inputs.
func TestMapValidation(t *testing.T) {
	if _, err := Map[int](context.Background(), -1, 1, nil); !errors.Is(err, ErrInvalid) {
		t.Errorf("negative n: err = %v", err)
	}
	if _, err := Map[int](context.Background(), 1, 1, nil); !errors.Is(err, ErrInvalid) {
		t.Errorf("nil job: err = %v", err)
	}
	if got, err := Map(context.Background(), 0, 4, func(_ context.Context, i int) (int, error) { return i, nil }); err != nil || len(got) != 0 {
		t.Errorf("n=0: got %v, %v", got, err)
	}
}

// TestSummarizeEmpty: the zero aggregate.
func TestSummarizeEmpty(t *testing.T) {
	if agg := Summarize(nil); agg != (Aggregate{}) {
		t.Errorf("Summarize(nil) = %+v", agg)
	}
}
