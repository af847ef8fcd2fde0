package data

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"strconv"
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

// refSummary is the historical map-based summary, kept as the reference
// the sorted-copy Summary must reproduce: every present value is rendered
// through ValueString into a set, and the set is sorted.
type refSummary struct {
	rows, missing int
	distinct      []string
	set           map[string]struct{}
	stats         Stats
	sorted        []float64
}

func referenceSummary(c *Column) *refSummary {
	n := c.Len()
	s := &refSummary{rows: n, set: make(map[string]struct{})}
	numeric := c.Kind != KindString
	var vals []float64
	if numeric {
		vals = make([]float64, 0, n)
	}
	for i := 0; i < n; i++ {
		if c.IsMissing(i) {
			s.missing++
			continue
		}
		s.set[c.ValueString(i)] = struct{}{}
		if numeric {
			vals = append(vals, c.Num(i))
		}
	}
	s.distinct = make([]string, 0, len(s.set))
	for v := range s.set {
		s.distinct = append(s.distinct, v)
	}
	sort.Strings(s.distinct)
	if !numeric || len(vals) == 0 {
		return s
	}

	st := Stats{Count: len(vals), Min: math.Inf(1), Max: math.Inf(-1)}
	sum := 0.0
	for _, v := range vals {
		sum += v
		if v < st.Min {
			st.Min = v
		}
		if v > st.Max {
			st.Max = v
		}
	}
	st.Mean = sum / float64(len(vals))
	varsum := 0.0
	for _, v := range vals {
		d := v - st.Mean
		varsum += d * d
	}
	st.Std = math.Sqrt(varsum / float64(len(vals)))
	sort.Float64s(vals)
	mid := len(vals) / 2
	if len(vals)%2 == 1 {
		st.Median = vals[mid]
	} else {
		st.Median = (vals[mid-1] + vals[mid]) / 2
	}
	st.Q1 = quantileSorted(vals, 0.25)
	st.Q3 = quantileSorted(vals, 0.75)
	s.stats = st
	s.sorted = vals
	return s
}

func (s *refSummary) quantile(q float64) float64 {
	if len(s.sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return s.sorted[0]
	}
	if q >= 1 {
		return s.sorted[len(s.sorted)-1]
	}
	return quantileSorted(s.sorted, q)
}

// requireSummaryMatchesReference compares a fresh Summary of c with the
// reference field by field, floats by their bits.
func requireSummaryMatchesReference(t *testing.T, c *Column, label string) {
	t.Helper()
	want := referenceSummary(c)
	got := c.computeSummary()
	if got.Rows != want.rows || got.Missing != want.missing {
		t.Fatalf("%s: rows/missing %d/%d, want %d/%d", label, got.Rows, got.Missing, want.rows, want.missing)
	}
	if got.DistinctCount() != len(want.distinct) {
		t.Fatalf("%s: DistinctCount %d, want %d (%q)", label, got.DistinctCount(), len(want.distinct), want.distinct)
	}
	d := got.Distinct()
	if d == nil || len(d) != len(want.distinct) {
		t.Fatalf("%s: Distinct %q, want %q", label, d, want.distinct)
	}
	for i := range d {
		if d[i] != want.distinct[i] {
			t.Fatalf("%s: Distinct %q, want %q", label, d, want.distinct)
		}
	}
	for _, v := range want.distinct {
		if !got.Contains(v) {
			t.Fatalf("%s: Contains(%q) false", label, v)
		}
	}
	for _, v := range []string{"", "absent", "-", "1e+400"} {
		if _, in := want.set[v]; got.Contains(v) != in {
			t.Fatalf("%s: Contains(%q) = %v, want %v", label, v, got.Contains(v), in)
		}
	}
	bits := func(st Stats) [7]uint64 {
		return [7]uint64{math.Float64bits(st.Min), math.Float64bits(st.Max), math.Float64bits(st.Mean),
			math.Float64bits(st.Median), math.Float64bits(st.Std), math.Float64bits(st.Q1), math.Float64bits(st.Q3)}
	}
	if got.Stats.Count != want.stats.Count || bits(got.Stats) != bits(want.stats) {
		t.Fatalf("%s: Stats %+v, want %+v", label, got.Stats, want.stats)
	}
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.9, 1} {
		if g, w := got.Quantile(q), want.quantile(q); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: Quantile(%g) = %v, want %v", label, q, g, w)
		}
	}
}

// The values whose renderings do not follow float identity: signed zeros,
// NaN payloads, infinities, the int64 range edges, fractional and huge
// ints, and bool cells holding anything but 0 and 1.
var summarySpecials = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, -0.5, 1.2, 1.7, -2.5, 2.5,
	math.NaN(), math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8000000000000),
	math.Float64frombits(0x7ff0000000000001), math.Inf(1), math.Inf(-1),
	0x1p63, -0x1p63, 0x1p63 - 1024, -0x1p63 - 2048, 1e300, -1e300, 1e18, 1e18 + 1, 2,
}

func TestSummaryMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, kind := range []Kind{KindInt, KindFloat, KindBool, KindString} {
		for _, n := range []int{0, 1, 2, 7, 100, 2000} {
			for _, pool := range []int{3, len(summarySpecials), 1 << 30} {
				vals := make([]float64, n)
				strs := make([]string, n)
				for i := range vals {
					switch {
					case pool == 1<<30:
						vals[i] = rng.NormFloat64() * 1e3
					default:
						vals[i] = summarySpecials[rng.Intn(pool)]
					}
					strs[i] = strconv.FormatFloat(vals[i], 'g', 3, 64)
				}
				c := &Column{Name: "c", Kind: kind, store: &colStore{nums: vals, missing: make([]bool, n)}}
				if kind == KindString {
					c.store = &colStore{strs: strs, missing: make([]bool, n)}
				}
				for i := 0; i < n/5; i++ {
					c.SetMissing(rng.Intn(n))
				}
				label := kind.String() + " n=" + strconv.Itoa(n) + " pool=" + strconv.Itoa(pool)
				requireSummaryMatchesReference(t, c, label)
				if n > 1 {
					rev := make([]int, n)
					for i := range rev {
						rev[i] = n - 1 - i
					}
					requireSummaryMatchesReference(t, c.Select(rev), label+" reversed view")
				}
			}
		}
	}
}

// Distinct and Contains render from the summary's own sorted copy and
// kind: a column written after its summary was taken does not change it.
func TestSummaryDistinctIgnoresLaterWrites(t *testing.T) {
	c := NewInt("x", []float64{3, 1, 3})
	s := c.Summary()
	c.SetNum(0, 7)
	c.Kind = KindFloat
	if got := s.Distinct(); len(got) != 2 || got[0] != "1" || got[1] != "3" || s.Contains("7") {
		t.Fatalf("Distinct = %q after later writes, want [1 3]", got)
	}
}

// fuzzSummaryInput packs float64 values as the little-endian bit patterns
// FuzzSummary decodes.
func fuzzSummaryInput(vals ...float64) []byte {
	raw := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(v))
	}
	return raw
}

// FuzzSummary checks Summary against the map-based reference on columns
// of any kind built from raw float64 bit patterns and a missing mask (one
// bit per row; a short mask leaves the remaining rows present). String
// columns hold the rendered values, so equal floats collide.
func FuzzSummary(f *testing.F) {
	negZero := math.Copysign(0, -1)
	nan := math.NaN()
	payload := math.Float64frombits(0x7ff8000000000001)
	seeds := []struct {
		kind uint8
		vals []float64
		mask []byte
	}{
		{uint8(KindFloat), []float64{0, negZero, 0, negZero, 1}, nil},
		{uint8(KindFloat), []float64{nan, payload, math.Float64frombits(0xfff8000000000000), 1.5, nan}, []byte{0x10}},
		{uint8(KindFloat), []float64{math.Inf(1), math.Inf(-1), 3, math.Inf(1)}, nil},
		{uint8(KindInt), []float64{0x1p63, -0x1p63, 0x1p63 - 1024, nan, math.Inf(1), math.Inf(-1), -0x1p63, 0}, nil},
		{uint8(KindInt), []float64{1.2, 1.7, -0.5, 0.5, negZero, 2.5, -2.5, 1e300, -1e300, 1e18, 1e18 + 1}, []byte{0x02}},
		{uint8(KindBool), []float64{nan, 0, negZero, 1, 2, -1}, nil},
		{uint8(KindBool), []float64{nan, nan}, nil},
		{uint8(KindString), []float64{1, 1, 2, nan, payload, 0, negZero}, []byte{0x01}},
		{uint8(KindFloat), nil, nil},
		{uint8(KindInt), []float64{1, 2, 3}, []byte{0x07}},
	}
	for _, s := range seeds {
		f.Add(s.kind, fuzzSummaryInput(s.vals...), s.mask)
	}
	f.Fuzz(func(t *testing.T, kind uint8, raw, mask []byte) {
		// Rows past 256 reach no new code; bigger inputs only slow each
		// run and the minimizer.
		n := min(len(raw)/8, 256)
		k := Kind(kind % 4)
		st := &colStore{missing: make([]bool, min(n, 8*len(mask)))}
		for i := range st.missing {
			st.missing[i] = mask[i/8]>>(i%8)&1 == 1
		}
		nums := make([]float64, n)
		for i := range nums {
			nums[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		if k == KindString {
			st.strs = make([]string, n)
			for i, v := range nums {
				st.strs[i] = strconv.FormatFloat(v, 'g', -1, 64)
			}
		} else {
			st.nums = nums
		}
		requireSummaryMatchesReference(t, &Column{Name: "f", Kind: k, store: st}, "fuzz "+k.String())
	})
}
