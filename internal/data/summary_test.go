package data

import (
	"math"
	"testing"
)

// statsEqual compares Stats field-by-field, treating NaN as equal to NaN.
func statsEqual(a, b Stats) bool {
	eq := func(x, y float64) bool {
		if math.IsNaN(x) && math.IsNaN(y) {
			return true
		}
		return x == y
	}
	return a.Count == b.Count && eq(a.Min, b.Min) && eq(a.Max, b.Max) &&
		eq(a.Mean, b.Mean) && eq(a.Median, b.Median) && eq(a.Std, b.Std) &&
		eq(a.Q1, b.Q1) && eq(a.Q3, b.Q3)
}

// assertSummaryFresh checks that a column's memoized statistics match a
// from-scratch recomputation (a Clone starts with an empty cache).
func assertSummaryFresh(t *testing.T, c *Column, ctx string) {
	t.Helper()
	fresh := c.Clone()
	if got, want := c.MissingCount(), fresh.MissingCount(); got != want {
		t.Errorf("%s: MissingCount = %d, fresh recompute = %d", ctx, got, want)
	}
	// MissingCount counts the mask directly, so the memoized Summary's
	// own gap count needs its own staleness check.
	if got, want := c.Summary().Missing, fresh.Summary().Missing; got != want {
		t.Errorf("%s: Summary().Missing = %d, fresh recompute = %d (stale summary)", ctx, got, want)
	}
	if got, want := c.MissingCount(), c.Summary().Missing; got != want {
		t.Errorf("%s: MissingCount = %d, Summary().Missing = %d", ctx, got, want)
	}
	if got, want := c.DistinctCount(), fresh.DistinctCount(); got != want {
		t.Errorf("%s: DistinctCount = %d, fresh recompute = %d (stale summary)", ctx, got, want)
	}
	if got, want := c.NumericStats(), fresh.NumericStats(); !statsEqual(got, want) {
		t.Errorf("%s: NumericStats = %+v, fresh recompute = %+v (stale summary)", ctx, got, want)
	}
}

func TestSummaryMemoized(t *testing.T) {
	c := NewNumeric("x", []float64{3, 1, 2, 2})
	s1 := c.Summary()
	if s2 := c.Summary(); s2 != s1 {
		t.Fatal("unchanged column must return the cached summary pointer")
	}
	if s1.Rows != 4 || s1.Missing != 0 || s1.DistinctCount() != 3 {
		t.Fatalf("summary content wrong: %+v", s1)
	}
	if got := s1.Stats.Median; got != 2 {
		t.Fatalf("median = %g, want 2", got)
	}
	c.SetNum(0, c.Num(0)) // even a value-preserving write bumps the version
	if s3 := c.Summary(); s3 == s1 {
		t.Fatal("SetNum must invalidate the cached summary")
	}
}

func TestSummaryMutatingHelpersInvalidate(t *testing.T) {
	c := NewNumeric("x", []float64{1, 2, 3, 4})
	_ = c.Summary() // warm
	c.SetMissing(0)
	assertSummaryFresh(t, c, "SetMissing")

	src := NewNumeric("x", []float64{9})
	c.AppendFrom(src, 0)
	assertSummaryFresh(t, c, "AppendFrom")

	c.AppendMissing()
	assertSummaryFresh(t, c, "AppendMissing")
}

func TestSummaryBulkAppendInvalidates(t *testing.T) {
	c := NewNumeric("x", []float64{1, 2})
	if got := c.NumericStats().Count; got != 2 {
		t.Fatalf("warm count = %d", got)
	}
	c.AppendNums(3)
	if got := c.NumericStats().Count; got != 3 {
		t.Fatalf("count after AppendNums = %d, want 3", got)
	}
	assertSummaryFresh(t, c, "AppendNums")

	s := NewString("s", []string{"a"})
	if s.DistinctCount() != 1 {
		t.Fatal("warm distinct wrong")
	}
	s.AppendStrs("b", "c")
	if got := s.DistinctCount(); got != 3 {
		t.Fatalf("DistinctCount after AppendStrs = %d, want 3", got)
	}
	assertSummaryFresh(t, s, "AppendStrs")
}

func TestSummarySetterInvalidates(t *testing.T) {
	c := NewString("s", []string{"a", "a", "a"})
	if c.DistinctCount() != 1 {
		t.Fatal("warm distinct wrong")
	}
	c.SetStr(0, "b")
	if got := c.DistinctCount(); got != 2 {
		t.Fatalf("DistinctCount after SetStr = %d, want 2", got)
	}
	assertSummaryFresh(t, c, "SetStr")
}

func TestSummaryKindChangeInvalidates(t *testing.T) {
	// The Kind field stays exported (type conversions in pipescript flip
	// it); the cache entry pins the kind so Distinct re-renders without any
	// setter call.
	c := NewNumeric("x", []float64{0, 1})
	c.Kind = KindInt
	if got := c.Distinct(); len(got) != 2 || got[0] != "0" {
		t.Fatalf("int distinct = %v", got)
	}
	c.Kind = KindBool
	if got := c.Distinct(); len(got) != 2 || got[0] != "false" {
		t.Fatalf("bool distinct after kind change = %v (stale summary)", got)
	}
}

func TestSummaryStringColumn(t *testing.T) {
	c := NewString("s", []string{"b", "a", "b"})
	c.SetMissing(2)
	s := c.Summary()
	if s.Missing != 1 || s.Present() != 2 || s.DistinctCount() != 2 {
		t.Fatalf("summary = %+v", s)
	}
	if !s.Contains("a") || s.Contains("zzz") {
		t.Fatal("Contains wrong")
	}
	if !math.IsNaN(s.Quantile(0.5)) {
		t.Fatal("string quantile must be NaN")
	}
	if s.Stats.Count != 0 {
		t.Fatal("string stats must be zero")
	}
}

// The corruption injectors rewrite cells through the setters; they must
// leave every touched column's summary consistent with a from-scratch
// recompute.
func TestCorruptionInvalidatesSummaries(t *testing.T) {
	mk := func() *Table {
		tab := NewTable("corrupt")
		n := 200
		a := make([]float64, n)
		y := make([]float64, n)
		for i := range a {
			a[i] = float64(i % 13)
			y[i] = float64(i % 7)
		}
		tab.MustAddColumn(NewNumeric("a", a))
		tab.MustAddColumn(NewNumeric("y", y))
		return tab
	}

	tab := mk()
	for _, c := range tab.Cols {
		_ = c.Summary() // warm every cache before corrupting
	}
	if n := InjectOutliers(tab, "y", 0.3, 11); n == 0 {
		t.Fatal("no outliers injected")
	}
	for _, c := range tab.Cols {
		assertSummaryFresh(t, c, "InjectOutliers "+c.Name)
	}

	tab = mk()
	for _, c := range tab.Cols {
		_ = c.Summary()
	}
	if n := InjectTargetOutliers(tab, "y", 0.3, 11); n == 0 {
		t.Fatal("no target outliers injected")
	}
	assertSummaryFresh(t, tab.Col("y"), "InjectTargetOutliers")

	tab = mk()
	for _, c := range tab.Cols {
		_ = c.Summary()
	}
	if n := InjectMissing(tab, "y", 0.3, 11); n == 0 {
		t.Fatal("no missing injected")
	}
	for _, c := range tab.Cols {
		assertSummaryFresh(t, c, "InjectMissing "+c.Name)
	}
}
