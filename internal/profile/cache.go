package profile

import (
	"fmt"
	"sync"

	"catdb/internal/data"
	"catdb/internal/obs"
)

// Cache memoizes profiles by table *content* and profiling inputs, so
// benchmark cells that profile the same (dataset, scale, seed, options)
// combination share one computation instead of redoing Algorithm 1 per
// cell. Content keying makes it sound regardless of which cell computes
// first: profiling is a pure function of the table content and options
// (CramersV walks its contingency grid in sorted order precisely so this
// holds bit-for-bit), and a mutated copy of a dataset hashes to a
// different key. Returned profiles are shared across callers and must be
// treated as read-only.
type Cache struct {
	mu      sync.Mutex
	entries map[cacheKey]*cacheEntry
	hits    int
	misses  int
	metrics *obs.Registry
}

// cacheKey identifies one profiling computation.
type cacheKey struct {
	content uint64 // data.Table.ContentHash
	rows    int
	cols    int
	dataset string
	target  string
	task    data.Task
	opts    Options
}

type cacheEntry struct {
	once sync.Once
	prof *Profile
	err  error
}

// NewCache returns an empty profile cache safe for concurrent use.
func NewCache() *Cache {
	return &Cache{entries: map[cacheKey]*cacheEntry{}}
}

// SetMetrics attaches an observability registry: lookups are recorded as
// catdb_profile_cache_{hits,misses}_total. Nil detaches.
func (c *Cache) SetMetrics(r *obs.Registry) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.metrics = r
	c.mu.Unlock()
}

// Table returns the memoized profile of t, computing it at most once per
// distinct (content, target, task, options) key even under concurrent
// callers: racing lookups share a single in-flight computation.
func (c *Cache) Table(t *data.Table, target string, task data.Task, opts Options) (*Profile, error) {
	if c == nil {
		return Table(t, target, task, opts)
	}
	norm := opts.withDefaults()
	key := cacheKey{
		content: t.ContentHash(),
		rows:    t.NumRows(),
		cols:    len(t.Cols),
		dataset: t.Name,
		target:  target,
		task:    task,
		opts:    norm,
	}
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &cacheEntry{}
		c.entries[key] = e
		c.misses++
	} else {
		c.hits++
	}
	m := c.metrics
	c.mu.Unlock()
	if ok {
		m.Counter("catdb_profile_cache_hits_total").Inc()
	} else {
		m.Counter("catdb_profile_cache_misses_total").Inc()
	}
	e.once.Do(func() {
		e.prof, e.err = Table(t, target, task, opts)
	})
	return e.prof, e.err
}

// Dataset is the cached counterpart of profile.Dataset: it consolidates
// the dataset and profiles the result through the cache.
func (c *Cache) Dataset(ds *data.Dataset, opts Options) (*Profile, error) {
	if c == nil {
		return Dataset(ds, opts)
	}
	t, err := ds.Consolidate()
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := c.Table(t, ds.Target, ds.Task, opts)
	if err != nil {
		return nil, err
	}
	if p.Dataset != ds.Name {
		// Shared profiles are read-only; rename on a shallow copy.
		cp := *p
		cp.Dataset = ds.Name
		return &cp, nil
	}
	return p, nil
}

// Stats reports cache hits and misses so benchmarks can verify sharing.
func (c *Cache) Stats() (hits, misses int) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
