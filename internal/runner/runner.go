// Package runner executes replicated simulations concurrently. The
// paper's claims are statistical — expected potential drops, expected
// convergence times — so every experiment averages over many independent
// replications. The engines parallelize a single round (intra-round
// sharding); this package adds the orthogonal axis: it fans whole
// replications out across a bounded worker pool and folds the results
// back in replication-index order, so every aggregate is bit-identical
// regardless of scheduling, worker count, or GOMAXPROCS.
//
// Map is the one entry point: n independent jobs, bounded parallelism,
// results in index order, deterministic error selection, context
// cancellation. Summarize folds a cell's RunResults into an Aggregate.
//
// Cancellation is cooperative at replication granularity: a canceled
// context stops new replications from starting; in-flight ones run to
// completion so partial aggregates never mix half-finished trajectories.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"congame/internal/dynamics"
	"congame/internal/obs"
)

// ErrInvalid reports an invalid runner configuration.
var ErrInvalid = errors.New("runner: invalid")

// metrics is the package-level worker-pool instrumentation. Map is called
// from many layers (scenario cells, cmd fan-outs), so the hook is process
// global rather than threaded through every call site; nil (the default)
// keeps Map on its uninstrumented path — no timestamps, no atomics.
var metrics atomic.Pointer[obs.RunnerMetrics]

// SetMetrics installs (or, with nil, removes) the pool instrumentation:
// jobs completed, per-job wall time, queue wait between dispatch and
// pickup, and total busy time. Metrics never affect results — jobs, fold
// order, and error selection are identical with and without them.
func SetMetrics(m *obs.RunnerMetrics) { metrics.Store(m) }

// Parallelism resolves a parallelism knob: values ≤ 0 select GOMAXPROCS,
// matching the engines' worker-count convention.
func Parallelism(par int) int {
	if par > 0 {
		return par
	}
	return runtime.GOMAXPROCS(0)
}

// Map runs jobs 0..n-1 across a worker pool of the given parallelism
// (≤ 0 = GOMAXPROCS) and returns their results in job-index order. Jobs
// must be independent; the fold order — and therefore every float
// accumulation a caller performs over the results — is the job index, not
// completion order, so outputs are bit-identical for every parallelism.
//
// If jobs fail, dispatching stops and the error with the smallest failing
// index among the jobs that ran is returned (with parallelism 1 this is
// always the first failure). If ctx is canceled first, ctx.Err() is
// returned.
func Map[T any](ctx context.Context, n, par int, job func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("%w: n = %d", ErrInvalid, n)
	}
	if job == nil {
		return nil, fmt.Errorf("%w: nil job", ErrInvalid)
	}
	results := make([]T, n)
	par = Parallelism(par)
	if par > n {
		par = n
	}

	m := metrics.Load()
	if par <= 1 {
		// Sequential fast path: no goroutines, same contract.
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return results, err
			}
			var start time.Time
			if m != nil {
				start = time.Now()
			}
			r, err := job(ctx, i)
			if m != nil {
				d := time.Since(start)
				m.Jobs.Inc()
				m.JobSec.ObserveDuration(d)
				m.QueueWait.Observe(0)
				m.BusyNanos.Add(uint64(d.Nanoseconds()))
			}
			if err != nil {
				return results, err
			}
			results[i] = r
		}
		return results, nil
	}

	jobCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	type dispatchItem struct {
		i   int
		enq time.Time // zero when metrics are off
	}
	indices := make(chan dispatchItem)
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range indices {
				var start time.Time
				if m != nil {
					start = time.Now()
					m.QueueWait.ObserveDuration(start.Sub(it.enq))
				}
				r, err := job(jobCtx, it.i)
				if m != nil {
					d := time.Since(start)
					m.Jobs.Inc()
					m.JobSec.ObserveDuration(d)
					m.BusyNanos.Add(uint64(d.Nanoseconds()))
				}
				if err != nil {
					errs[it.i] = err
					cancel() // stop dispatching further jobs
					continue
				}
				results[it.i] = r
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		it := dispatchItem{i: i}
		if m != nil {
			it.enq = time.Now()
		}
		select {
		case indices <- it:
		case <-jobCtx.Done():
			break dispatch
		}
	}
	close(indices)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	if err := ctx.Err(); err != nil {
		return results, err
	}
	return results, nil
}

// Aggregate summarizes a slice of replication results.
type Aggregate struct {
	// Reps is the number of replications summarized.
	Reps int
	// Converged counts replications whose stop condition fired.
	Converged int
	// MeanRounds, MeanMoves, MeanFinalPotential, MeanFinalAvgLatency, and
	// MeanFinalMaxLatency average over replications in index order.
	MeanRounds          float64
	MeanMoves           float64
	MeanFinalPotential  float64
	MeanFinalAvgLatency float64
	MeanFinalMaxLatency float64
}

// Summarize folds RunResults in replication order.
func Summarize(results []dynamics.RunResult) Aggregate {
	agg := Aggregate{Reps: len(results)}
	if agg.Reps == 0 {
		return agg
	}
	for _, r := range results {
		if r.Converged {
			agg.Converged++
		}
		agg.MeanRounds += float64(r.Rounds)
		agg.MeanMoves += float64(r.TotalMoves)
		agg.MeanFinalPotential += r.Final.Potential
		agg.MeanFinalAvgLatency += r.Final.AvgLatency
		agg.MeanFinalMaxLatency += r.Final.MaxLatency
	}
	n := float64(agg.Reps)
	agg.MeanRounds /= n
	agg.MeanMoves /= n
	agg.MeanFinalPotential /= n
	agg.MeanFinalAvgLatency /= n
	agg.MeanFinalMaxLatency /= n
	return agg
}
