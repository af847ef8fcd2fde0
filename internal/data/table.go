package data

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
)

// Table is an ordered collection of equal-length columns.
//
// Col, ColIndex and AddColumn's duplicate check resolve names through an
// index the table owns (see nameIndex): built on the first lookup, and
// kept current by AddColumn, DropColumn and ReplaceColumn; a Clone or
// SelectRows result builds its own. The index is only as current as
// those writers, so outside this package Cols is read-only (`make
// lint-encapsulation` fails on assignment, index assignment, append or
// reorder of it; a lookup rebuilds an index whose column count differs
// from len(Cols)), and a column's Name must not change while the column
// belongs to a table. A Table must not be copied by value.
type Table struct {
	Name string
	Cols []*Column

	idx atomic.Pointer[nameIndex] // nil until the first lookup
}

// NewTable returns an empty table with the given name.
func NewTable(name string) *Table { return &Table{Name: name} }

// NumRows returns the row count (0 for a table with no columns).
func (t *Table) NumRows() int {
	if len(t.Cols) == 0 {
		return 0
	}
	return t.Cols[0].Len()
}

// NumCols returns the column count.
func (t *Table) NumCols() int { return len(t.Cols) }

// Col returns the first column with the given name, or nil if absent.
func (t *Table) Col(name string) *Column {
	if i := t.index().find(t.Cols, name); i >= 0 {
		return t.Cols[i]
	}
	return nil
}

// ColIndex returns the position of the first column with the given
// name, or -1.
func (t *Table) ColIndex(name string) int { return t.index().find(t.Cols, name) }

// ColumnNames returns the column names in order.
func (t *Table) ColumnNames() []string {
	out := make([]string, len(t.Cols))
	for i, c := range t.Cols {
		out[i] = c.Name
	}
	return out
}

// AddColumn appends a column; it returns an error on row-count mismatch or
// duplicate name.
func (t *Table) AddColumn(c *Column) error {
	if len(t.Cols) > 0 && c.Len() != t.NumRows() {
		return fmt.Errorf("data: column %q has %d rows, table %q has %d", c.Name, c.Len(), t.Name, t.NumRows())
	}
	h := nameHash(c.Name)
	if _, pos := t.index().probe(t.Cols, c.Name, h); pos >= 0 {
		return fmt.Errorf("data: duplicate column %q in table %q", c.Name, t.Name)
	}
	t.Cols = append(t.Cols, c)
	if ix := t.writableIndex(); ix != nil {
		ix.insert(t.Cols, len(t.Cols)-1, h)
		ix.cols++
	}
	return nil
}

// MustAddColumn is AddColumn that panics on error; for construction of
// literal tables in tests and generators where the invariant is known.
func (t *Table) MustAddColumn(c *Column) {
	if err := t.AddColumn(c); err != nil {
		panic(err)
	}
}

// DropColumn removes the first column with the given name; it reports
// whether one was present.
func (t *Table) DropColumn(name string) bool {
	i := t.ColIndex(name)
	if i < 0 {
		return false
	}
	if ix := t.writableIndex(); ix != nil {
		ix.unlink(t.Cols, i)
		ix.shiftDown(i)
		ix.cols--
	}
	t.Cols = append(t.Cols[:i], t.Cols[i+1:]...)
	return true
}

// ReplaceColumn swaps the first column with the given name for c (same
// name requirement is not enforced; c keeps its own name, which may
// repeat another column's). It reports whether name was present.
func (t *Table) ReplaceColumn(name string, c *Column) bool {
	i := t.ColIndex(name)
	if i < 0 {
		return false
	}
	if c.Name != name {
		if ix := t.writableIndex(); ix != nil {
			if ix.find(t.Cols, c.Name) >= 0 {
				t.idx.Store(nil) // the rename repeats a name: rebuild on the next lookup
			} else {
				ix.unlink(t.Cols, i)
				t.Cols[i] = c
				ix.insert(t.Cols, i, nameHash(c.Name))
				return true
			}
		}
	}
	t.Cols[i] = c
	return true
}

// Clone returns an independent copy of the table in O(columns): each
// column is a copy-on-write view of the original's storage (see
// Column.Clone), so cell slabs are copied only if and when mutated.
func (t *Table) Clone() *Table {
	out := &Table{Name: t.Name, Cols: make([]*Column, len(t.Cols))}
	for i, c := range t.Cols {
		out.Cols[i] = c.Clone()
	}
	return out
}

// hashSeed keys ContentHash for the life of the process.
var hashSeed = maphash.MakeSeed()

// hashChunk is how many bytes ContentHash batches before each write to
// the hash.
const hashChunk = 4096

// ContentHash returns a hash of the table's name and, per column, its
// name, kind and visible cells, read in one pass over each column's
// storage (through the row mapping of a view). Within one process equal
// visible content gives equal hashes; the seed is per process, so a hash
// must not be stored. A missing cell contributes only its flag, never
// its stored slot. Content-keyed caches key on it.
func (t *Table) ContentHash() uint64 {
	var h maphash.Hash
	h.SetSeed(hashSeed)
	b := appendHashString(make([]byte, 0, 2*hashChunk), t.Name)
	for _, c := range t.Cols {
		b = c.appendCells(&h, b)
	}
	h.Write(b)
	return h.Sum64()
}

// appendCells appends the column's name, kind and length to b, then per
// cell a missing flag and, for a present cell, its value bits or its
// string, writing b to h whenever it reaches hashChunk bytes.
func (c *Column) appendCells(h *maphash.Hash, b []byte) []byte {
	b = appendHashString(b, c.Name)
	b = binary.LittleEndian.AppendUint64(b, uint64(c.Kind))
	n := c.Len()
	b = binary.LittleEndian.AppendUint64(b, uint64(n))
	if n == 0 {
		return b
	}
	mask, nums, strs := c.store.missing, c.store.nums, c.store.strs
	for i := 0; i < n; i++ {
		if len(b) >= hashChunk {
			h.Write(b)
			b = b[:0]
		}
		j := c.at(i)
		switch {
		case j < len(mask) && mask[j]:
			b = append(b, 1)
		case c.Kind == KindString:
			b = appendHashString(append(b, 0), strs[j])
		default:
			b = binary.LittleEndian.AppendUint64(append(b, 0), math.Float64bits(nums[j]))
		}
	}
	return b
}

// appendHashString appends s's length, then its bytes.
func appendHashString(b []byte, s string) []byte {
	return append(binary.LittleEndian.AppendUint64(b, uint64(len(s))), s...)
}

// SelectRows returns a table containing only the given row indexes. The
// result is a zero-copy view: columns share the receiver's cell storage
// through an index mapping and promote to private storage only on their
// first mutation. Cost is O(columns) plus a single O(len(rows)) index
// copy shared by all dense columns (view columns of a stacked selection
// compose their mappings, memoized per distinct source mapping), not the
// old O(cells) deep copy. The rows slice is not retained.
func (t *Table) SelectRows(rows []int) *Table {
	out := &Table{Name: t.Name, Cols: make([]*Column, len(t.Cols))}
	var dense []int // defensive copy of rows, shared by all identity columns
	var srcRows, composed []int
	for i, c := range t.Cols {
		if c.rows == nil {
			if dense == nil {
				dense = make([]int, len(rows))
				copy(dense, rows)
			}
			out.Cols[i] = c.viewAt(dense)
			continue
		}
		// View column: compose its mapping with rows. Tables sliced from a
		// common parent share one mapping slice across columns, so compare
		// by identity and reuse the last composition.
		if !sameSlice(c.rows, srcRows) {
			srcRows = c.rows
			composed = make([]int, len(rows))
			for j, r := range rows {
				composed[j] = srcRows[r]
			}
		}
		out.Cols[i] = c.viewAt(composed)
	}
	return out
}

// sameSlice reports whether two slices are the identical array window
// (same backing start and length), not merely equal element-wise.
func sameSlice(a, b []int) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// Head returns the first n rows (or all rows if n exceeds the row count).
func (t *Table) Head(n int) *Table {
	if n > t.NumRows() {
		n = t.NumRows()
	}
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	return t.SelectRows(rows)
}

// Sample returns up to n rows drawn without replacement using rng. The
// permutation is always drawn, even when n covers the whole table (where
// the result keeps the original row order, as before), so the RNG is
// consumed identically regardless of the table's size and downstream
// draws from the same rng do not diverge on small tables.
func (t *Table) Sample(n int, rng *rand.Rand) *Table {
	perm := rng.Perm(t.NumRows())
	if n >= t.NumRows() {
		return t.Clone()
	}
	return t.SelectRows(perm[:n])
}

// Split partitions the table into train/test with the given train fraction,
// shuffling with the seed. It mirrors the paper's 70/30 split.
func (t *Table) Split(trainFrac float64, seed int64) (train, test *Table) {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(t.NumRows())
	cut := int(trainFrac * float64(len(perm)))
	// Training on nothing is never useful: any non-empty table keeps at
	// least one train row, even a single-row table (test then stays empty).
	if cut < 1 && len(perm) > 0 {
		cut = 1
	}
	return t.SelectRows(perm[:cut]), t.SelectRows(perm[cut:])
}

// StratifiedSplit splits the table keeping the per-class proportions of the
// target column close to the original; it falls back to Split when target is
// missing or numeric with high cardinality.
func (t *Table) StratifiedSplit(target string, trainFrac float64, seed int64) (train, test *Table) {
	col := t.Col(target)
	if col == nil {
		return t.Split(trainFrac, seed)
	}
	groups := map[string][]int{}
	for i := 0; i < t.NumRows(); i++ {
		groups[col.ValueString(i)] = append(groups[col.ValueString(i)], i)
	}
	if len(groups) > t.NumRows()/2 {
		return t.Split(trainFrac, seed)
	}
	rng := rand.New(rand.NewSource(seed))
	var trainRows, testRows []int
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		rows := groups[k]
		rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		cut := int(trainFrac * float64(len(rows)))
		if cut < 1 && len(rows) > 1 {
			cut = 1
		}
		trainRows = append(trainRows, rows[:cut]...)
		testRows = append(testRows, rows[cut:]...)
	}
	// All-singleton classes can leave the train side empty; reclaim one row
	// so downstream training always has data.
	if len(trainRows) == 0 && len(testRows) > 0 {
		trainRows = append(trainRows, testRows[0])
		testRows = testRows[1:]
	}
	rng.Shuffle(len(trainRows), func(i, j int) { trainRows[i], trainRows[j] = trainRows[j], trainRows[i] })
	rng.Shuffle(len(testRows), func(i, j int) { testRows[i], testRows[j] = testRows[j], testRows[i] })
	return t.SelectRows(trainRows), t.SelectRows(testRows)
}

// AppendRows appends all rows of src to t; the tables must share the same
// column names and kinds in order.
func (t *Table) AppendRows(src *Table) error {
	if len(t.Cols) != len(src.Cols) {
		return fmt.Errorf("data: append: column count mismatch %d vs %d", len(t.Cols), len(src.Cols))
	}
	for i, c := range t.Cols {
		s := src.Cols[i]
		if c.Name != s.Name || c.Kind != s.Kind {
			return fmt.Errorf("data: append: column %d mismatch (%s %s vs %s %s)", i, c.Name, c.Kind, s.Name, s.Kind)
		}
	}
	for i, c := range t.Cols {
		s := src.Cols[i]
		for r := 0; r < s.Len(); r++ {
			c.AppendFrom(s, r)
		}
		_ = i
	}
	return nil
}
