package pipescript

import (
	"sync"
	"time"

	"catdb/internal/data"
	"catdb/internal/obs"
	"catdb/internal/pool"
)

// This file is the row-shard execution engine: the second parallelism
// axis next to the statement DAG (schedule.go). Elementwise op bodies —
// loops where output row i depends only on input row i — never touch
// the pool directly (`make lint-shard` enforces it); they hand their
// per-row loop to a sharder, which splits the row range into chunks of
// at most shardRows rows and fans the chunks out over internal/pool.
//
// Determinism contract: whether a loop shards, and into how many
// tasks, depends only on (row count, shardRows) — never on the worker
// count — so the catdb_shard_tasks_total counters are identical at any
// Workers setting, and every shard writes a disjoint row range of a
// column prepared with BeginShardWrite (see internal/data/shard.go),
// so results are bit-identical to the serial loop.
//
// Oversubscription contract: one workerBudget is shared per execution
// between the DAG wave scheduler and every nested sharder. The caller
// of a fan-out always runs one chunk itself (its own slot) and may
// borrow up to budget.free extra slots, so waves × shards never exceed
// the executor's Workers in total, even when shard fan-outs fire
// inside concurrently running DAG nodes.

// defaultShardRows is the chunk size elementwise loops shard at unless
// a test overrides shardRows. Columns at or under this length
// run serially — the fan-out overhead only pays for itself on slabs
// well past L2 size.
const defaultShardRows = 32768

// workerBudget is a non-blocking counting semaphore over "extra" worker
// slots. It is created with workers-1 free slots: the executing
// goroutine always holds one implicit slot, and a fan-out that borrows
// k extras runs on 1+k pool workers while the borrower blocks, keeping
// the process-wide total at or below the configured worker count.
type workerBudget struct {
	mu   sync.Mutex
	free int
}

// newWorkerBudget sizes a budget for the given worker count
// (<= 0 means pool.DefaultWorkers()).
func newWorkerBudget(workers int) *workerBudget {
	if workers <= 0 {
		workers = pool.DefaultWorkers()
	}
	return &workerBudget{free: workers - 1}
}

// tryAcquire takes up to max free slots and returns how many it got
// (possibly zero). It never blocks — a starved fan-out degrades to the
// caller running its chunks serially, which is always correct.
func (b *workerBudget) tryAcquire(max int) int {
	if b == nil || max <= 0 {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	n := b.free
	if n > max {
		n = max
	}
	b.free -= n
	return n
}

// release returns n slots to the budget.
func (b *workerBudget) release(n int) {
	if b == nil || n <= 0 {
		return
	}
	b.mu.Lock()
	b.free += n
	b.mu.Unlock()
}

// sharder fans elementwise row loops out over the pool. A nil sharder
// runs every body serially in the caller — helpers never need to
// special-case the serial path.
type sharder struct {
	shardRows int
	budget    *workerBudget
	metrics   *obs.Registry
}

// newSharder builds the per-execution sharder. shardRows == 0 selects
// defaultShardRows; shardRows < 0 disables row sharding entirely (nil
// sharder), which is the serial reference the equivalence tests and the
// shard benchmark's baseline pass run.
// The budget is shared with the DAG wave scheduler by the caller.
func newSharder(shardRows int, budget *workerBudget, metrics *obs.Registry) *sharder {
	if shardRows < 0 {
		return nil
	}
	if shardRows == 0 {
		shardRows = defaultShardRows
	}
	return &sharder{shardRows: shardRows, budget: budget, metrics: metrics}
}

// transform runs an elementwise in-place body over col. Short columns
// (and a nil sharder) run the body directly on the live column; long
// columns are promoted once (BeginShardWrite), the body runs on
// disjoint ShardViews across pool workers, and the stats version bumps
// once after the join (EndShardWrite). The body must write only
// through row i of the view it is given.
func (sh *sharder) transform(op string, col *data.Column, body func(v *data.Column)) {
	if sh == nil || col.Len() <= sh.shardRows {
		body(col)
		return
	}
	start := obs.Now()
	ranges := data.ShardRanges(col.Len(), sh.shardRows)
	col.BeginShardWrite()
	extra := sh.budget.tryAcquire(len(ranges) - 1)
	pool.Each(1+extra, len(ranges), func(k int) error {
		body(col.ShardView(ranges[k][0], ranges[k][1]))
		return nil
	})
	sh.budget.release(extra)
	col.EndShardWrite()
	sh.record(op, len(ranges), start)
}

// ranges runs a disjoint-write fill loop over [0, n): builders that
// populate fresh output slabs (one-hot indicators, feature matrices,
// keep masks) receive [lo, hi) chunks and must write only indices
// inside their chunk. Reads of existing columns are safe to share —
// every accessor used here is a pure read.
func (sh *sharder) ranges(op string, n int, body func(lo, hi int)) {
	if sh == nil || n <= sh.shardRows {
		body(0, n)
		return
	}
	start := obs.Now()
	ranges := data.ShardRanges(n, sh.shardRows)
	extra := sh.budget.tryAcquire(len(ranges) - 1)
	pool.Each(1+extra, len(ranges), func(k int) error {
		body(ranges[k][0], ranges[k][1])
		return nil
	})
	sh.budget.release(extra)
	sh.record(op, len(ranges), start)
}

// record books the per-op shard metrics. Task counts depend only on
// row counts and shardRows, so they are deterministic at any worker
// count; only the duration histogram values vary run to run.
func (sh *sharder) record(op string, tasks int, start time.Time) {
	if sh.metrics == nil {
		return
	}
	sh.metrics.Counter("catdb_shard_tasks_total", "op", op).Add(int64(tasks))
	sh.metrics.Histogram("catdb_shard_seconds", obs.DefBuckets, "op", op).Observe(obs.Since(start).Seconds())
}
