// Package pool runs the engines' sharded round work on persistent worker
// goroutines.
//
// Spawning fresh goroutines every round costs heap allocations — the
// closures, their captured WaitGroups, and the goroutine start frames. A
// Pool instead feeds long-lived workers plain job values through a
// channel, so after warm-up a sharded round allocates nothing (the
// engines' zero-allocation tests and the cmd/bench allocs/op gate pin
// this).
//
// Workers reference only the job channel and the round barrier, never the
// Pool or the engine that owns it, and hold a job's pointers only while
// the job runs. An unreachable Pool is therefore collected normally; its
// finalizer closes the channel and the workers drain out.
package pool

import (
	"runtime"
	"sync"
)

// Job is one unit of sharded round work. Jobs travel by value, so nothing
// escapes per round; a job type is a small struct of pointers and
// indices.
type Job interface{ Run() }

// Pool is a set of persistent workers running jobs of type J, with one
// reusable barrier. It serves one caller at a time: Go hands out a
// round's jobs, Wait joins them.
type Pool[J Job] struct {
	jobs chan J
	wg   *sync.WaitGroup
	size int
}

// New returns a pool with no workers; Grow starts them.
func New[J Job]() *Pool[J] {
	p := &Pool[J]{jobs: make(chan J), wg: new(sync.WaitGroup)}
	runtime.SetFinalizer(p, func(p *Pool[J]) { close(p.jobs) })
	return p
}

// Grow guarantees at least k workers.
func (p *Pool[J]) Grow(k int) {
	for ; p.size < k; p.size++ {
		go work(p.jobs, p.wg)
	}
}

// Go hands j to a worker, blocking until one takes it.
func (p *Pool[J]) Go(j J) {
	p.wg.Add(1)
	p.jobs <- j
}

// Wait blocks until every job handed out since the last Wait has run.
func (p *Pool[J]) Wait() { p.wg.Wait() }

// work drains jobs until the channel closes. It is a top-level function
// over the channel and the barrier alone, so a worker never keeps its
// Pool reachable.
func work[J Job](jobs <-chan J, wg *sync.WaitGroup) {
	for j := range jobs {
		j.Run()
		wg.Done()
	}
}
