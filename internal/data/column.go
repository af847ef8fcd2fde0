// Package data provides the tabular-data substrate for the CatDB
// reproduction: typed columns with missing-value masks, single tables,
// multi-table datasets with relations, CSV serialization, synthetic
// generators for the paper's twenty evaluation datasets, and the
// corruption injectors used by the robustness experiments (Figure 14).
package data

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync/atomic"
)

// Kind is the physical storage type of a column.
type Kind int

// Physical column kinds. Feature types (categorical, list, sentence, ...)
// are a catalog-level notion layered on top of these by internal/profile
// and internal/catalog.
const (
	KindString Kind = iota
	KindInt
	KindFloat
	KindBool
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// IsNumeric reports whether the kind stores numbers (ints, floats, bools).
func (k Kind) IsNumeric() bool { return k == KindInt || k == KindFloat || k == KindBool }

// colStore is the physical cell storage of a column: a float64 slab for
// numeric kinds, a string slab for string columns, and the missing mask
// (which may be shorter than the value slabs; absent entries mean
// present). Several Column views may alias one store: the shared flag is
// set the moment a view is handed out and every mutating accessor
// promotes (copies) a column whose store is shared before writing —
// classic copy-on-write.
type colStore struct {
	nums    []float64
	strs    []string
	missing []bool
	// shared is set (and never cleared) once another Column aliases this
	// store. Atomic so concurrent read-only view creation is race-free.
	shared atomic.Bool
}

// ensureMask grows the missing mask to cover n cells.
func (s *colStore) ensureMask(n int) {
	if len(s.missing) < n {
		m := make([]bool, n)
		copy(m, s.missing)
		s.missing = m
	}
}

// Column is a single named column. Numeric kinds (int, float, bool) store
// values in a float64 slab; string columns store values in a string slab;
// missing cells are masked and their storage slot is zero-valued.
//
// The storage is encapsulated: reads go through Num/Str/IsMissing (or the
// bulk NumsView/StrsView), writes through SetNum/SetStr/SetMissing/
// ClearMissing/Append*. Every mutating accessor bumps the version counter
// that guards the memoized Summary, so — unlike the old exported-slice
// representation — it is impossible to mutate a column without its
// statistics invalidating; the former Touch() contract is gone.
//
// A Column may be a *view*: an index-mapped window onto a store shared
// with other columns. Table.SelectRows/Head/Sample/Split/StratifiedSplit
// and Clone hand these out in O(1) per column; reads map through the
// index, and the first write promotes just that column to private dense
// storage (copy-on-write), leaving the base bytes untouched.
//
// Statistics (Distinct, NumericStats, Quantile, IsConstant) are served
// from the memoized one-pass Summary (see summary.go). MissingCount is
// not memoized: it counts the missing mask through the view mapping on
// every call, so gap checks never pay for a Summary.
type Column struct {
	Name string
	Kind Kind

	store *colStore
	rows  []int // view row mapping into store; nil = identity over the full store

	version atomic.Uint64                // bumped by every mutating accessor
	cache   atomic.Pointer[summaryEntry] // last computed Summary, if current
}

// NewNumeric returns a float column over vals with no missing cells; it
// takes ownership of vals.
func NewNumeric(name string, vals []float64) *Column {
	return &Column{Name: name, Kind: KindFloat, store: &colStore{nums: vals, missing: make([]bool, len(vals))}}
}

// NewInt returns an int column over vals with no missing cells.
func NewInt(name string, vals []float64) *Column {
	return &Column{Name: name, Kind: KindInt, store: &colStore{nums: vals, missing: make([]bool, len(vals))}}
}

// NewString returns a string column over vals with no missing cells; it
// takes ownership of vals.
func NewString(name string, vals []string) *Column {
	return &Column{Name: name, Kind: KindString, store: &colStore{strs: vals, missing: make([]bool, len(vals))}}
}

// NewBool returns a bool column; true is stored as 1, false as 0.
func NewBool(name string, vals []bool) *Column {
	nums := make([]float64, len(vals))
	for i, v := range vals {
		if v {
			nums[i] = 1
		}
	}
	return &Column{Name: name, Kind: KindBool, store: &colStore{nums: nums, missing: make([]bool, len(vals))}}
}

// ensureStore lazily allocates storage for a zero-value column. Only
// mutation and view-creation paths call it; plain reads treat a nil store
// as an empty column.
func (c *Column) ensureStore() *colStore {
	if c.store == nil {
		c.store = &colStore{}
	}
	return c.store
}

// Len returns the number of rows in the column.
func (c *Column) Len() int {
	if c.rows != nil {
		return len(c.rows)
	}
	if c.store == nil {
		return 0
	}
	if c.Kind == KindString {
		return len(c.store.strs)
	}
	return len(c.store.nums)
}

// at maps a view-relative row index to its storage slot.
func (c *Column) at(i int) int {
	if c.rows != nil {
		return c.rows[i]
	}
	return i
}

// Num returns the numeric value at row i (0 when the cell is missing).
func (c *Column) Num(i int) float64 { return c.store.nums[c.at(i)] }

// Str returns the string value at row i ("" when the cell is missing).
func (c *Column) Str(i int) string { return c.store.strs[c.at(i)] }

// IsMissing reports whether row i has no value.
func (c *Column) IsMissing(i int) bool {
	if c.store == nil {
		return false
	}
	j := c.at(i)
	return j < len(c.store.missing) && c.store.missing[j]
}

// own gives the column exclusive dense storage: views gather their mapped
// rows into fresh slabs, shared-dense columns copy theirs. A column that
// already owns its store returns immediately, so steady-state mutation
// costs one boolean load. After own, row index == storage index.
func (c *Column) own() {
	st := c.ensureStore()
	if c.rows == nil && !st.shared.Load() {
		return
	}
	n := c.Len()
	ns := &colStore{missing: make([]bool, n)}
	if st.strs != nil {
		ns.strs = make([]string, n)
	}
	if st.nums != nil {
		ns.nums = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		j := c.at(i)
		if ns.strs != nil {
			ns.strs[i] = st.strs[j]
		}
		if ns.nums != nil {
			ns.nums[i] = st.nums[j]
		}
		ns.missing[i] = j < len(st.missing) && st.missing[j]
	}
	c.store, c.rows = ns, nil
}

// touch bumps the mutation version, invalidating the memoized Summary.
func (c *Column) touch() { c.version.Add(1) }

// SetNum writes the numeric value at row i. The missing mask is left
// untouched — pair with ClearMissing when imputing a missing cell.
func (c *Column) SetNum(i int, v float64) {
	c.own()
	c.store.nums[c.at(i)] = v
	c.touch()
}

// SetStr writes the string value at row i. The missing mask is left
// untouched — pair with ClearMissing when imputing a missing cell.
func (c *Column) SetStr(i int, v string) {
	c.own()
	c.store.strs[c.at(i)] = v
	c.touch()
}

// SetMissing marks row i as missing and zeroes its storage slot.
func (c *Column) SetMissing(i int) {
	c.own()
	c.store.ensureMask(c.Len())
	j := c.at(i)
	c.store.missing[j] = true
	if c.Kind == KindString {
		c.store.strs[j] = ""
	} else {
		c.store.nums[j] = 0
	}
	c.touch()
}

// ClearMissing marks row i as present without changing its stored value.
func (c *Column) ClearMissing(i int) {
	c.own()
	c.store.ensureMask(c.Len())
	c.store.missing[c.at(i)] = false
	c.touch()
}

// MissingCount returns the number of missing cells. It counts the
// missing mask through the view mapping on every call (the mask may be
// shorter than the column; absent entries are present cells) instead of
// building a Summary, so it always agrees with Summary().Missing.
func (c *Column) MissingCount() int {
	if c.store == nil {
		return 0
	}
	mask := c.store.missing
	n := 0
	if c.rows != nil {
		for _, j := range c.rows {
			if j < len(mask) && mask[j] {
				n++
			}
		}
		return n
	}
	if l := c.Len(); len(mask) > l {
		mask = mask[:l]
	}
	for _, m := range mask {
		if m {
			n++
		}
	}
	return n
}

// MissingRatio returns the fraction of missing cells in [0,1].
func (c *Column) MissingRatio() float64 {
	if c.Len() == 0 {
		return 0
	}
	return float64(c.MissingCount()) / float64(c.Len())
}

// ValueString renders the value at row i as a string ("" when missing).
func (c *Column) ValueString(i int) string {
	if c.IsMissing(i) {
		return ""
	}
	if c.Kind == KindString {
		return c.Str(i)
	}
	return formatNum(c.Kind, c.Num(i))
}

// formatNum renders a numeric cell of kind k: ints as their truncated
// int64, bools as "true" for any non-zero value, everything else in the
// shortest 'g' form. Summary counts distinct values by the same rules.
func formatNum(k Kind, v float64) string {
	switch k {
	case KindInt:
		return strconv.FormatInt(int64(v), 10)
	case KindBool:
		if v != 0 {
			return "true"
		}
		return "false"
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// NumsView returns the column's numeric values as a read-only slice:
// dense columns return their live storage (callers must not modify it),
// views gather into a fresh dense slice. Missing cells hold 0. Callers
// that need an owned, mutable copy should copy the result.
func (c *Column) NumsView() []float64 {
	if c.store == nil {
		return nil
	}
	if c.rows == nil {
		return c.store.nums
	}
	out := make([]float64, len(c.rows))
	for i, r := range c.rows {
		out[i] = c.store.nums[r]
	}
	return out
}

// StrsView returns the column's string values as a read-only slice, under
// the same contract as NumsView.
func (c *Column) StrsView() []string {
	if c.store == nil {
		return nil
	}
	if c.rows == nil {
		return c.store.strs
	}
	out := make([]string, len(c.rows))
	for i, r := range c.rows {
		out[i] = c.store.strs[r]
	}
	return out
}

// AppendNums appends present (non-missing) numeric values in bulk.
func (c *Column) AppendNums(vals ...float64) {
	c.own()
	c.store.ensureMask(c.Len())
	c.store.nums = append(c.store.nums, vals...)
	c.store.missing = append(c.store.missing, make([]bool, len(vals))...)
	c.touch()
}

// AppendStrs appends present (non-missing) string values in bulk.
func (c *Column) AppendStrs(vals ...string) {
	c.own()
	c.store.ensureMask(c.Len())
	c.store.strs = append(c.store.strs, vals...)
	c.store.missing = append(c.store.missing, make([]bool, len(vals))...)
	c.touch()
}

// Distinct returns the distinct non-missing values rendered as strings,
// sorted ascending for determinism. The slice is the memoized Summary's —
// shared across callers and must not be modified.
func (c *Column) Distinct() []string { return c.Summary().Distinct() }

// DistinctCount returns the number of distinct non-missing values.
func (c *Column) DistinctCount() int { return c.Summary().DistinctCount() }

// DistinctRatio returns distinct/non-missing in [0,1] (1 when all unique).
func (c *Column) DistinctRatio() float64 {
	n := c.Len() - c.MissingCount()
	if n == 0 {
		return 0
	}
	return float64(c.DistinctCount()) / float64(n)
}

// Stats summarizes a numeric column. All fields ignore missing cells.
type Stats struct {
	Count  int
	Min    float64
	Max    float64
	Mean   float64
	Median float64
	Std    float64
	Q1     float64 // first quartile (robust to outliers)
	Q3     float64 // third quartile
}

// NumericStats returns summary statistics over the non-missing cells of a
// numeric column (memoized; see Summary). It returns a zero Stats for
// string columns or columns with no present values.
func (c *Column) NumericStats() Stats {
	if c.Kind == KindString {
		return Stats{}
	}
	return c.Summary().Stats
}

// quantileSorted interpolates the q-quantile of an ascending slice.
func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Quantile returns the q-quantile (0<=q<=1) of the non-missing values using
// linear interpolation, or NaN for string/empty columns (memoized; the
// sorted value slice is built once per mutation generation).
func (c *Column) Quantile(q float64) float64 {
	if c.Kind == KindString {
		return math.NaN()
	}
	return c.Summary().Quantile(q)
}

// Clone returns an independent copy of the column in O(1): the clone is a
// copy-on-write view sharing the original's storage, and the first write
// to either side promotes the writer to private storage. Observable
// semantics are those of the old deep copy (pinned by the equivalence
// tests in view_test.go), minus the O(cells) allocation.
func (c *Column) Clone() *Column {
	st := c.ensureStore()
	st.shared.Store(true)
	return &Column{Name: c.Name, Kind: c.Kind, store: st, rows: c.rows}
}

// Select returns a view containing only the given row indexes, sharing
// the receiver's storage (copy-on-write on first mutation). The rows
// slice is not retained.
func (c *Column) Select(rows []int) *Column {
	idx := make([]int, len(rows))
	if c.rows != nil {
		for i, r := range rows {
			idx[i] = c.rows[r]
		}
	} else {
		copy(idx, rows)
	}
	return c.viewAt(idx)
}

// viewAt wraps pre-composed storage indexes into a view column. The idx
// slice must already be storage-relative and is retained (views never
// mutate it).
func (c *Column) viewAt(idx []int) *Column {
	st := c.ensureStore()
	st.shared.Store(true)
	return &Column{Name: c.Name, Kind: c.Kind, store: st, rows: idx}
}

// AppendFrom appends row i of src (which must have the same kind) to c.
// Appending promotes a view or shared column to private storage first, so
// growth is never visible through other views of the same store.
func (c *Column) AppendFrom(src *Column, i int) {
	c.own()
	c.store.ensureMask(c.Len())
	if c.Kind == KindString {
		c.store.strs = append(c.store.strs, src.Str(i))
	} else {
		c.store.nums = append(c.store.nums, src.Num(i))
	}
	c.store.missing = append(c.store.missing, src.IsMissing(i))
	c.touch()
}

// AppendMissing appends a missing cell to c.
func (c *Column) AppendMissing() {
	c.own()
	c.store.ensureMask(c.Len())
	if c.Kind == KindString {
		c.store.strs = append(c.store.strs, "")
	} else {
		c.store.nums = append(c.store.nums, 0)
	}
	c.store.missing = append(c.store.missing, true)
	c.touch()
}

// IsConstant reports whether all present values are identical (and at least
// one value is present).
func (c *Column) IsConstant() bool {
	s := c.Summary()
	return s.DistinctCount() == 1 && s.Present() > 0
}

// InferKind guesses the narrowest kind that can represent every non-empty
// string in vals: bool, int, float, then string.
func InferKind(vals []string) Kind {
	isBool, isInt, isFloat := true, true, true
	any := false
	for _, v := range vals {
		v = strings.TrimSpace(v)
		if v == "" {
			continue
		}
		any = true
		lv := strings.ToLower(v)
		if lv != "true" && lv != "false" {
			isBool = false
		}
		if _, err := strconv.ParseInt(v, 10, 64); err != nil {
			isInt = false
		}
		if _, err := strconv.ParseFloat(v, 64); err != nil {
			isFloat = false
		}
		if !isBool && !isInt && !isFloat {
			return KindString
		}
	}
	if !any {
		return KindString
	}
	switch {
	case isBool:
		return KindBool
	case isInt:
		return KindInt
	case isFloat:
		return KindFloat
	default:
		return KindString
	}
}

// ParseColumn builds a column of the given kind from raw strings; empty or
// unparseable cells become missing.
func ParseColumn(name string, kind Kind, vals []string) *Column {
	st := &colStore{missing: make([]bool, len(vals))}
	c := &Column{Name: name, Kind: kind, store: st}
	if kind == KindString {
		st.strs = make([]string, len(vals))
		for i, v := range vals {
			if strings.TrimSpace(v) == "" {
				st.missing[i] = true
				continue
			}
			st.strs[i] = v
		}
		return c
	}
	st.nums = make([]float64, len(vals))
	for i, v := range vals {
		v = strings.TrimSpace(v)
		if v == "" {
			st.missing[i] = true
			continue
		}
		switch kind {
		case KindBool:
			st.nums[i] = 0
			if strings.EqualFold(v, "true") {
				st.nums[i] = 1
			}
		default:
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				st.missing[i] = true
				continue
			}
			st.nums[i] = f
		}
	}
	return c
}
