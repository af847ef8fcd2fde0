package profile

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"catdb/internal/data"
)

func newTestRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// setProcs sets GOMAXPROCS to n until tb ends (for a benchmark, outside
// its timer). The pool sizes the profiler's fan-out from GOMAXPROCS, so
// this is how a test or benchmark picks its worker count.
func setProcs(tb testing.TB, n int) {
	prev := runtime.GOMAXPROCS(n)
	tb.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// normalized strips the wall-clock field so profiles can be compared
// structurally: Elapsed is the only field that legitimately varies between
// bit-identical computations.
func normalized(p *Profile) Profile {
	cp := *p
	cp.Elapsed = 0
	return cp
}

func financialTable(t *testing.T) *data.Table {
	t.Helper()
	ds, err := data.Load("Financial", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := ds.Consolidate()
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// The profiler must be bit-identical at any worker count: every column
// derives its RNG from (seed, index, name) and all shared state is warmed
// read-only before the fan-out.
func TestParallelMatchesSerial(t *testing.T) {
	for _, tab := range []*data.Table{salaryLikeTable(), financialTable(t)} {
		setProcs(t, 1)
		serial, err := Table(tab, tab.Cols[len(tab.Cols)-1].Name, data.Regression, Options{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 8} {
			setProcs(t, workers)
			par, err := Table(tab, tab.Cols[len(tab.Cols)-1].Name, data.Regression, Options{Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(normalized(serial), normalized(par)) {
				t.Fatalf("%s: profile at workers=%d differs from serial", tab.Name, workers)
			}
		}
	}
}

func TestCacheBitIdenticalAndShared(t *testing.T) {
	tab := financialTable(t)
	target := tab.Cols[len(tab.Cols)-1].Name
	opts := Options{Seed: 7}

	direct, err := Table(tab, target, data.Regression, opts)
	if err != nil {
		t.Fatal(err)
	}

	c := NewCache()
	p1, err := c.Table(tab, target, data.Regression, opts)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.Table(tab, target, data.Regression, opts)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("cache hit must return the shared profile pointer")
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("stats = %d hits / %d misses, want 1/1", hits, misses)
	}
	if !reflect.DeepEqual(normalized(direct), normalized(p1)) {
		t.Fatal("cached profile differs from direct computation")
	}

	// A second load of the same dataset produces a content-identical table
	// — a different *Table instance must still hit.
	tab2 := financialTable(t)
	p3, err := c.Table(tab2, target, data.Regression, opts)
	if err != nil {
		t.Fatal(err)
	}
	if p3 != p1 {
		t.Fatal("content-identical table from a second load must hit the cache")
	}

	// The worker count must not fragment the cache: the output is
	// worker-invariant.
	setProcs(t, 3)
	p4, err := c.Table(tab, target, data.Regression, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if p4 != p1 {
		t.Fatal("a lookup at another GOMAXPROCS must hit the cache")
	}
}

func TestCacheKeysOnContentAndOptions(t *testing.T) {
	tab := financialTable(t)
	target := tab.Cols[len(tab.Cols)-1].Name
	c := NewCache()
	p1, err := c.Table(tab, target, data.Regression, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}

	// A mutated copy must miss: corruption experiments profile altered
	// tables and must never alias the clean profile.
	mut := tab.Clone()
	for _, col := range mut.Cols {
		if col.Kind.IsNumeric() {
			col.SetNum(0, col.Num(0)+1000)
			break
		}
	}
	p2, err := c.Table(mut, target, data.Regression, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if p2 == p1 {
		t.Fatal("mutated table content must not hit the clean entry")
	}

	// Different seed must miss too: samples are seed-dependent.
	p3, err := c.Table(tab, target, data.Regression, Options{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Fatal("different seed must not share an entry")
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 3 {
		t.Fatalf("stats = %d hits / %d misses, want 0/3", hits, misses)
	}
}

func TestSampleValuesReservoir(t *testing.T) {
	n := 5000
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i)
	}
	c := data.NewNumeric("x", vals)
	c.SetMissing(0)
	rng := newTestRNG(99)
	got := sampleValues(c, 10, rng)
	if len(got) != 10 {
		t.Fatalf("sample size = %d, want 10", len(got))
	}
	seen := map[string]bool{}
	for _, v := range got {
		if v == "" {
			t.Fatal("missing cell sampled")
		}
		if seen[v] {
			t.Fatalf("duplicate sample %q (reservoir must be without replacement)", v)
		}
		seen[v] = true
	}
	// Fewer present values than budget: return them all.
	small := data.NewNumeric("y", []float64{1, 2, 3})
	small.SetMissing(1)
	if got := sampleValues(small, 10, newTestRNG(1)); len(got) != 2 {
		t.Fatalf("under-budget sample = %v, want both present values", got)
	}
	if got := sampleValues(small, 0, newTestRNG(1)); got != nil {
		t.Fatalf("zero budget must sample nothing, got %v", got)
	}
}
