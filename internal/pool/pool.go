// Package pool provides the bounded worker pool underneath every
// concurrent code path in the repo: model fits and inference, the
// profiler, the CSV tokenizer, the bench harness's experiment cells and
// the public ParallelPipGen batch API all fan out over it. It is the one
// place that decides concurrency: a batch runs on runtime.GOMAXPROCS(0)
// workers, capped at its size, so GOMAXPROCS bounds every fan-out in the
// process. The contract that makes concurrency safe to adopt everywhere
// is determinism: results come back in index order, and the error
// returned is the one a serial loop over the same cells would have hit
// first, so a caller cannot observe scheduling order through the API. A
// task that panics fails like a task that returns an error (PanicError),
// on the serial path and on the parallel one alike, so a panic on a pool
// goroutine never takes the process down.
package pool

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"catdb/internal/obs"
)

// PanicError is the error Map and Each return for a task that panicked.
type PanicError struct {
	Index int    // the task's index
	Value any    // the value the task panicked with
	Stack []byte // the panicking goroutine's stack (debug.Stack)
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("pool: task %d panicked: %v", e.Index, e.Value)
}

// recoverTask turns a panic in fn into a *PanicError result.
func recoverTask[T any](fn func(i int) (T, error)) func(i int) (T, error) {
	return func(i int) (v T, err error) {
		defer func() {
			if r := recover(); r != nil {
				var zero T
				v, err = zero, &PanicError{Index: i, Value: r, Stack: debug.Stack()}
			}
		}()
		return fn(i)
	}
}

// poolMetrics is the process-wide observability registry for the pool.
// Map and Each record batch/task counts, live queue depth and
// active-worker gauges, the peak worker count, and cumulative worker busy
// time into it. Recording never affects scheduling, result order, or the
// error semantics — with no registry installed the only cost per batch is
// one atomic load.
var poolMetrics atomic.Pointer[obs.Registry]

// SetMetrics installs (or, with nil, removes) the registry Map/Each
// record into. The pool is shared process-wide infrastructure, so its
// metrics sink is too.
func SetMetrics(r *obs.Registry) { poolMetrics.Store(r) }

// Map runs fn(0..n-1) on min(GOMAXPROCS, n) goroutines and returns the
// results in index order. With one worker it runs inline on the caller.
//
// Error semantics match a serial loop: when calls fail, Map returns the
// error of the lowest-indexed failing call and nil results. Indices are
// dispatched in increasing order and a failure stops new dispatches, so
// every index below the returned one has completed — the reported error
// is exactly the one the serial harness would have surfaced. A call that
// panics fails with a *PanicError.
func Map[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	out := make([]T, n)
	if n == 0 {
		return out, nil
	}
	// Recovery wraps the task innermost, so a panic returns through
	// observedTask like an error and its gauges move back.
	fn = recoverTask(fn)
	if reg := poolMetrics.Load(); reg != nil {
		reg.Counter("catdb_pool_batches_total").Inc()
		reg.Counter("catdb_pool_tasks_total").Add(int64(n))
		reg.Gauge("catdb_pool_workers_peak").Max(int64(workers))
		reg.Gauge("catdb_pool_queue_depth").Add(int64(n))
		fn = observedTask(reg, fn)
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			v, err := fn(i)
			if err != nil {
				drainQueueGauge(n - i - 1)
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	var (
		mu       sync.Mutex
		next     int
		errIdx   = -1
		firstErr error
	)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next >= n || errIdx >= 0 {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()
				v, err := fn(i)
				if err != nil {
					mu.Lock()
					if errIdx < 0 || i < errIdx {
						errIdx, firstErr = i, err
					}
					mu.Unlock()
					return
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	drainQueueGauge(n - next) // tasks never dispatched after an abort
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// drainQueueGauge removes tasks that will never run (batch aborted on an
// error) from the live queue-depth gauge so it converges back to the
// depth of the batches still in flight.
func drainQueueGauge(undispatched int) {
	if undispatched <= 0 {
		return
	}
	if reg := poolMetrics.Load(); reg != nil {
		reg.Gauge("catdb_pool_queue_depth").Add(-int64(undispatched))
	}
}

// observedTask wraps a task function with per-task metric recording:
// active-worker and queue-depth gauges move around the call, and the
// task's wall time accumulates into the busy-time counter (worker
// utilization = busy_ns / (workers x wall time)).
func observedTask[T any](reg *obs.Registry, fn func(i int) (T, error)) func(i int) (T, error) {
	active := reg.Gauge("catdb_pool_active_workers")
	queue := reg.Gauge("catdb_pool_queue_depth")
	busy := reg.Counter("catdb_pool_worker_busy_ns_total")
	return func(i int) (T, error) {
		active.Add(1)
		start := obs.Now()
		v, err := fn(i)
		busy.Add(int64(obs.Since(start)))
		active.Add(-1)
		queue.Add(-1)
		return v, err
	}
}

// Each is Map for cell functions with no result value.
func Each(n int, fn func(i int) error) error {
	_, err := Map(n, func(i int) (struct{}, error) {
		return struct{}{}, fn(i)
	})
	return err
}

// DeriveSeed mixes a base seed with string parts (dataset, model, ...)
// and an iteration index into a new seed. Runs that derive their RNGs and
// LLM clients from (seed, dataset, model, iteration) this way are
// independent of worker scheduling: the cell's identity, not its
// execution order, determines its randomness.
func DeriveSeed(base int64, iteration int, parts ...string) int64 {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return base*1_000_003 + int64(iteration)*9_176_867 + int64(h.Sum64()&0x7fffffff)
}
