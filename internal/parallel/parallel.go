// Package parallel is the repo's deterministic data-parallel execution layer:
// a bounded worker pool whose helpers fan independent work items out across
// goroutines while keeping every observable result bit-identical for every
// worker count.
//
// The determinism contract has two halves:
//
//   - Scheduling independence: a work function may write only to state owned
//     by its index (a slot of a results slice, a per-index RNG, a per-worker
//     replica), never to state shared across indices.
//   - Ordered reduction: Map returns results in index order and ForEachErr
//     the error of the lowest failing index; callers fold results in index
//     order, so floating-point sums do not depend on completion order.
//
// Everything concurrent in this repository (corpus labeling, mini-batch
// gradients, similarity precomputation, evaluation) goes through this package
// rather than raw goroutines.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Workers resolves a requested worker count: values <= 0 select one worker
// per available CPU (GOMAXPROCS). This is the meaning of the `-workers 0`
// default everywhere a worker knob is exposed.
func Workers(requested int) int {
	if requested <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return requested
}

// ForEach runs fn(i) for every i in [0, n) on at most workers goroutines.
// Scheduling order is unspecified; fn must write only to state owned by index
// i so the outcome is independent of the worker count. With one worker (or
// n <= 1) the calls run inline on the caller's goroutine, without the
// worker-slot closure wrapper or pool machinery — on a single-core host every
// hot loop in the repo takes this path, so it must cost no more than a plain
// for loop.
func ForEach(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if n == 1 || Workers(workers) == 1 {
		if reg := obs.Metrics(); reg != nil {
			reg.Counter("parallel.inline.calls").Add(1)
			reg.Counter("parallel.inline.items").Add(int64(n))
		}
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	ForEachWorker(workers, n, func(_, i int) { fn(i) })
}

// ForEachWorker is ForEach for callers that keep per-worker state (model
// replicas, scratch buffers): fn additionally receives the worker slot w in
// [0, min(workers, n)) executing the call. Calls sharing a slot are
// sequential; calls on different slots are concurrent.
func ForEachWorker(workers, n int, fn func(w, i int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	// With a live metrics registry, wrap the pooled run in utilization
	// accounting: per-worker busy time is accumulated in a slot-owned cell
	// (no cross-worker state, preserving the determinism contract) and folded
	// after the barrier. The registry check costs one atomic load; everything
	// time-related is skipped entirely in the default no-op configuration.
	reg := obs.Metrics()
	var busy []time.Duration
	var start time.Time
	if reg != nil {
		reg.Counter("parallel.pool.calls").Add(1)
		reg.Counter("parallel.pool.items").Add(int64(n))
		busy = make([]time.Duration, workers)
		start = time.Now()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			var wt0 time.Time
			if busy != nil {
				wt0 = time.Now()
			}
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					break
				}
				fn(w, i)
			}
			if busy != nil {
				busy[w] = time.Since(wt0)
			}
		}(w)
	}
	wg.Wait()
	if reg != nil {
		wall := time.Since(start)
		var total time.Duration
		for _, b := range busy {
			total += b
		}
		reg.Counter("parallel.pool.wall_us").Add(wall.Microseconds())
		reg.Counter("parallel.pool.busy_us").Add(total.Microseconds())
		if wall > 0 {
			// Fraction of worker-seconds spent inside fn vs. the pooled span:
			// 1.0 means every worker was busy from spawn to barrier; the gap is
			// queue wait (spawn latency, tail imbalance on the atomic queue).
			util := float64(total) / (float64(wall) * float64(workers))
			reg.Histogram("parallel.pool.utilization", []float64{0.25, 0.5, 0.75, 0.9, 0.95, 0.99}).Observe(util)
		}
	}
}

// ForEachErr is ForEach for fallible work. All n calls run regardless of
// failures; the returned error is the one reported at the lowest index, so
// the result is deterministic under any scheduling.
func ForEachErr(workers, n int, fn func(i int) error) error {
	errs := make([]error, n)
	ForEach(workers, n, func(i int) { errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Map runs fn over [0, n) and collects the results in index order.
func Map[T any](workers, n int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEach(workers, n, func(i int) { out[i] = fn(i) })
	return out
}
