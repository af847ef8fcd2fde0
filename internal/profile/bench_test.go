package profile

import (
	"fmt"
	"testing"

	"catdb/internal/data"
)

// benchTable loads and consolidates a registered dataset once per scale so
// benchmark iterations measure profiling only, not generation.
func benchTable(b *testing.B, name string, scale float64) (*data.Table, *data.Dataset) {
	b.Helper()
	ds, err := data.Load(name, scale)
	if err != nil {
		b.Fatal(err)
	}
	t, err := ds.Consolidate()
	if err != nil {
		b.Fatal(err)
	}
	return t, ds
}

// benchProfile measures a cold profiling pass: the table is re-cloned with
// the timer stopped each iteration, so memoized column summaries never
// carry over between iterations and the numbers stay comparable to the
// pre-memoization baseline in BENCH_profile.json.
func benchProfile(b *testing.B, name string, scale float64, opts Options) {
	t0, ds := benchTable(b, name, scale)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		t := t0.Clone()
		b.StartTimer()
		if _, err := Table(t, ds.Target, ds.Task, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProfileKDD98 profiles the largest registered dataset (478
// columns, heavy missingness) — the profiler's worst case, dominated by
// the pairwise similarity/inclusion/association loops. Default workers
// (GOMAXPROCS).
func BenchmarkProfileKDD98(b *testing.B) {
	benchProfile(b, "KDD98", 0.2, Options{Seed: 7})
}

// BenchmarkProfileKDD98Serial runs at GOMAXPROCS 1, so the pool profiles
// on one worker: the single-threaded win from memoized summaries and
// inclusion pruning alone.
func BenchmarkProfileKDD98Serial(b *testing.B) {
	setProcs(b, 1)
	benchProfile(b, "KDD98", 0.2, Options{Seed: 7})
}

// BenchmarkProfileKDD98Warm re-profiles the same table instance: column
// summaries stay memoized across iterations, isolating the non-summary
// cost (sampling, embeddings, pairwise loops).
func BenchmarkProfileKDD98Warm(b *testing.B) {
	t, ds := benchTable(b, "KDD98", 0.2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Table(t, ds.Target, ds.Task, Options{Seed: 7}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProfileKDD98CacheHit measures the cross-cell cache path after
// the first computation: one content hash of the table plus a map lookup.
func BenchmarkProfileKDD98CacheHit(b *testing.B) {
	t, ds := benchTable(b, "KDD98", 0.2)
	c := NewCache()
	if _, err := c.Table(t, ds.Target, ds.Task, Options{Seed: 7}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Table(t, ds.Target, ds.Task, Options{Seed: 7}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProfileSuite profiles a spread of registry shapes (wide sparse,
// wide dense numeric, mixed multi-table) at a smaller scale.
func BenchmarkProfileSuite(b *testing.B) {
	for _, name := range []string{"Volkert", "Yelp", "Financial"} {
		name := name
		b.Run(fmt.Sprintf("dataset=%s", name), func(b *testing.B) {
			benchProfile(b, name, 0.1, Options{Seed: 7})
		})
	}
}
