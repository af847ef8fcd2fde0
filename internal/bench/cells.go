package bench

import (
	"fmt"
	"sync"
	"time"

	"catdb/internal/core"
	"catdb/internal/obs"
	"catdb/internal/pool"
)

// mapCells fans one experiment phase's cells over the worker pool, so at
// most GOMAXPROCS cells run at once. Every runner fans its independent
// (dataset, model, iteration) cells out through it and reassembles
// results in the paper's row order; each cell derives its own LLM client
// and RNG from the cell identity, so output is bit-for-bit identical at
// any GOMAXPROCS, and GOMAXPROCS=1 reproduces the serial harness. It adds
// optional observability: a "bench:<phase>" root span with one "cell"
// child per cell, per-cell latency/count/error metrics (catdb_bench_*),
// and live progress lines. With no Tracer, Metrics, or Progress
// configured it collapses to exactly the untraced pool.Map fan-out, so
// unobserved benches keep bit-identical behavior and zero overhead.
// Result order and error semantics are pool.Map's in both modes.
func mapCells[T any](cfg Config, phase string, n int, fn func(i int, sp *obs.Span) (T, error)) ([]T, error) {
	if cfg.Tracer == nil && cfg.Metrics == nil && cfg.Progress == nil {
		return pool.Map(n, func(i int) (T, error) { return fn(i, nil) })
	}
	root := cfg.Tracer.Root("bench:" + phase)
	root.SetInt("cells", int64(n))
	defer root.End()
	var (
		mu   sync.Mutex
		done int
	)
	return pool.Map(n, func(i int) (T, error) {
		sp := root.Child("cell")
		sp.SetStr("phase", phase)
		sp.SetInt("index", int64(i))
		start := obs.Now()
		v, err := fn(i, sp)
		d := obs.Since(start)
		if err != nil {
			sp.SetStr("error", err.Error())
		}
		sp.End()
		if cfg.Metrics != nil {
			cfg.Metrics.Counter("catdb_bench_cells_total", "phase", phase).Inc()
			cfg.Metrics.Histogram("catdb_bench_cell_seconds", obs.DefBuckets, "phase", phase).Observe(d.Seconds())
			if err != nil {
				cfg.Metrics.Counter("catdb_bench_cell_errors_total", "phase", phase).Inc()
			}
		}
		if cfg.Progress != nil {
			// One completion line per cell; the mutex keeps concurrent
			// lines whole and the done counter monotone. With metrics on,
			// the line carries running p50/p99 cell latencies interpolated
			// from the shared histogram.
			quantiles := ""
			if cfg.Metrics != nil {
				h := cfg.Metrics.Histogram("catdb_bench_cell_seconds", obs.DefBuckets, "phase", phase)
				quantiles = fmt.Sprintf(", p50=%.2fs p99=%.2fs", h.Quantile(0.5), h.Quantile(0.99))
			}
			mu.Lock()
			done++
			fmt.Fprintf(cfg.Progress, "[%s] cell %d/%d done (index %d, %s%s)\n",
				phase, done, n, i, d.Round(time.Millisecond), quantiles)
			mu.Unlock()
		}
		return v, err
	})
}

// instrument attaches the config's observability sinks to a runner so
// its Run nests a full span subtree under the cell's span, records into
// the shared registry, and appends completed runs to the persistent
// ledger. With observability off (nil span, nil registry, nil ledger)
// it leaves the runner's behavior untouched.
func (c Config) instrument(r *core.Runner, sp *obs.Span) {
	r.TraceParent = sp
	r.Metrics = c.Metrics
	if c.Ledger != nil {
		r.OnResult = func(opts core.Options, res *core.Result) {
			// Append errors are retained by the writer and reported once
			// at Close; a full disk must not fail the experiment cell.
			_ = c.Ledger.Append(c.ledgerRecord(opts, res))
		}
	}
}
