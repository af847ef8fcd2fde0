package data

import (
	"math"
	"slices"
	"sort"
	"sync"
)

// Summary is the memoized statistics bundle of a column: the missing-cell
// count, the distinct-value count, and (for numeric kinds) the full Stats
// plus the sorted non-missing values that quantile queries interpolate
// over. It is computed once per column mutation generation by
// Column.Summary and shared by every caller, which turns the profiler's
// repeated Distinct/MissingCount/NumericStats calls — formerly a full
// column scan each — into pointer loads.
//
// Numeric kinds never render a value to count it: the distinct count is
// read off the sorted copy under ValueString's rules (see eachDistinct).
// The rendered distinct strings are built only when a caller asks for
// them (Distinct, Contains), from the summary's own sorted copy and kind,
// so they describe the column as it was when the summary was computed.
//
// A Summary is immutable after construction apart from that lazily built
// string slice, which sync.Once guards. Callers must treat every returned
// value, including the Distinct slice, as read-only: the same instance is
// handed to concurrent profiler workers.
type Summary struct {
	// Rows is the total cell count at computation time.
	Rows int
	// Missing is the number of missing cells.
	Missing int
	// Stats summarizes the numeric values (zero for string columns).
	Stats Stats

	kind     Kind
	distinct int
	sorted   []float64           // ascending non-missing values, numeric kinds only
	strSet   map[string]struct{} // distinct values, string kind only

	once sync.Once
	strs []string // Distinct(), built on first use
}

// DistinctCount returns the number of distinct non-missing values, counted
// as ValueString renders them.
func (s *Summary) DistinctCount() int { return s.distinct }

// Present returns the number of non-missing cells.
func (s *Summary) Present() int { return s.Rows - s.Missing }

// Distinct returns the distinct non-missing values rendered as strings,
// sorted ascending. The slice is built on first use and shared — do not
// modify it.
func (s *Summary) Distinct() []string {
	s.once.Do(s.buildDistinct)
	return s.strs
}

// Contains reports whether v is one of the distinct non-missing values.
// String columns look v up in their distinct set; numeric columns search
// the sorted Distinct slice, so no second set is built.
func (s *Summary) Contains(v string) bool {
	if s.kind == KindString {
		_, ok := s.strSet[v]
		return ok
	}
	_, ok := slices.BinarySearch(s.Distinct(), v)
	return ok
}

// Quantile interpolates the q-quantile of the non-missing numeric values,
// or NaN for string/empty columns (same contract as Column.Quantile).
func (s *Summary) Quantile(q float64) float64 {
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

// buildDistinct renders each distinct value once and sorts the strings.
func (s *Summary) buildDistinct() {
	s.strs = make([]string, 0, s.distinct)
	if s.kind == KindString {
		for v := range s.strSet {
			s.strs = append(s.strs, v)
		}
	} else {
		eachDistinct(s.kind, s.sorted, func(v float64) {
			s.strs = append(s.strs, formatNum(s.kind, v))
		})
	}
	sort.Strings(s.strs)
}

// eachDistinct calls fn once per distinct ValueString rendering among the
// ascending values of a numeric column (sort.Float64s order, NaNs first),
// passing one value that renders it. It follows formatNum, not float
// identity:
//
//   - float: −0 and +0 render differently ("-0", "0") although they
//     compare equal, and every NaN renders "NaN";
//   - int: values render as their truncated int64, so 1.2 and 1.7 are one
//     value; the conversion of NaN, ±Inf and values outside
//     [−2⁶³, 2⁶³) is platform-defined, so those are looked up by their
//     converted value rather than by position;
//   - bool: every value renders "false" (zero) or "true" (anything else,
//     NaN included).
func eachDistinct(k Kind, sorted []float64, fn func(float64)) {
	switch k {
	case KindBool:
		var f, t bool
		for _, v := range sorted {
			if v == 0 {
				f = true
			} else {
				t = true
			}
		}
		if f {
			fn(0)
		}
		if t {
			fn(1)
		}
	case KindInt:
		lo := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= -0x1p63 })
		hi := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= 0x1p63 })
		// Inside [−2⁶³, 2⁶³) truncation is monotone, so equal renderings
		// are adjacent.
		mid := sorted[lo:hi]
		for i, v := range mid {
			if i == 0 || int64(v) != int64(mid[i-1]) {
				fn(v)
			}
		}
		var seen []int64
		for _, edge := range [2][]float64{sorted[:lo], sorted[hi:]} {
			for _, v := range edge {
				iv := int64(v)
				j := sort.Search(len(mid), func(i int) bool { return int64(mid[i]) >= iv })
				if (j < len(mid) && int64(mid[j]) == iv) || slices.Contains(seen, iv) {
					continue
				}
				seen = append(seen, iv)
				fn(v)
			}
		}
	default:
		i := 0
		for i < len(sorted) && math.IsNaN(sorted[i]) {
			i++
		}
		if i > 0 {
			fn(sorted[0])
		}
		for i < len(sorted) {
			x := sorted[i]
			j := i + 1
			for j < len(sorted) && sorted[j] == x {
				j++
			}
			if x != 0 {
				fn(x)
			} else {
				neg, pos := false, false
				for _, z := range sorted[i:j] {
					if math.Signbit(z) {
						neg = true
					} else {
						pos = true
					}
				}
				if neg {
					fn(math.Copysign(0, -1))
				}
				if pos {
					fn(0)
				}
			}
			i = j
		}
	}
}

// summaryEntry pins a computed Summary to the column state it was computed
// from: the mutation version, the row count, and the column kind. Since all
// cell storage is behind mutating accessors that bump the version, the only
// out-of-band change the key must catch is a rewrite of the exported Kind
// field (pipescript type conversions flip it after recoding values), which
// changes how values render in Distinct.
type summaryEntry struct {
	version uint64
	rows    int
	kind    Kind
	sum     *Summary
}

// Summary returns the cached statistics of the column, computing them if
// the column mutated since the last call. Invalidation is automatic: every
// mutating accessor (SetNum, SetStr, SetMissing, ClearMissing, the Append*
// family) bumps the version this cache is keyed on — there is no manual
// Touch() contract. Concurrent readers are safe (the cache is a single
// atomic pointer; racing computations produce identical summaries and the
// last store wins). Mutations must not run concurrently with readers —
// the same rule that governs all column access.
func (c *Column) Summary() *Summary {
	v := c.version.Load()
	if e := c.cache.Load(); e != nil && e.version == v && e.rows == c.Len() && e.kind == c.Kind {
		return e.sum
	}
	sum := c.computeSummary()
	c.cache.Store(&summaryEntry{version: v, rows: c.Len(), kind: c.Kind, sum: sum})
	return sum
}

// computeSummary builds the Summary in one row-order pass over the column.
// String columns collect their distinct set; numeric columns collect the
// present values and their moments, then sort that one copy for the order
// statistics and count distinct values from it.
func (c *Column) computeSummary() *Summary {
	n := c.Len()
	s := &Summary{Rows: n, kind: c.Kind}
	if n == 0 {
		return s
	}
	mask := c.store.missing
	if c.Kind == KindString {
		set := make(map[string]struct{})
		strs := c.store.strs
		for i := 0; i < n; i++ {
			j := c.at(i)
			if j < len(mask) && mask[j] {
				s.Missing++
				continue
			}
			set[strs[j]] = struct{}{}
		}
		s.strSet, s.distinct = set, len(set)
		return s
	}

	nums := c.store.nums
	vals := make([]float64, 0, n)
	st := Stats{Min: math.Inf(1), Max: math.Inf(-1)}
	sum := 0.0
	for i := 0; i < n; i++ {
		j := c.at(i)
		if j < len(mask) && mask[j] {
			s.Missing++
			continue
		}
		v := nums[j]
		vals = append(vals, v)
		sum += v
		if v < st.Min {
			st.Min = v
		}
		if v > st.Max {
			st.Max = v
		}
	}
	if len(vals) == 0 {
		return s
	}
	st.Count = len(vals)
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
	s.Stats = st
	s.sorted = vals
	eachDistinct(c.Kind, vals, func(float64) { s.distinct++ })
	return s
}
