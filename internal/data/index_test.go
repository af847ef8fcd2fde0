package data

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// scanFirst is the reference the name index must match: each name's
// first position in a linear scan of t.Cols.
func scanFirst(t *Table) map[string]int {
	first := make(map[string]int, len(t.Cols))
	for i, c := range t.Cols {
		if _, ok := first[c.Name]; !ok {
			first[c.Name] = i
		}
	}
	return first
}

// checkAgainstScan fails unless Col and ColIndex answer as a linear
// first-match scan for every name of the table and for absent names.
func checkAgainstScan(t *testing.T, ctx string, tb *Table, absent []string) {
	t.Helper()
	first := scanFirst(tb)
	for name, i := range first {
		if got := tb.ColIndex(name); got != i {
			t.Fatalf("%s: ColIndex(%q) = %d, scan finds %d", ctx, name, got, i)
		}
		if got := tb.Col(name); got != tb.Cols[i] {
			t.Fatalf("%s: Col(%q) is not the column at %d", ctx, name, i)
		}
	}
	for _, name := range absent {
		if _, ok := first[name]; ok {
			continue
		}
		if got := tb.ColIndex(name); got != -1 {
			t.Fatalf("%s: ColIndex(%q) = %d for an absent name", ctx, name, got)
		}
		if tb.Col(name) != nil {
			t.Fatalf("%s: Col(%q) found an absent name", ctx, name)
		}
	}
}

// indexedTable is one table of the property run and the column names it
// must have, kept apart from the table so a write to one table that
// leaked into another would show.
type indexedTable struct {
	tb   *Table
	want []string
}

// TestNameIndexMatchesScan applies random AddColumn (duplicates
// included, which must be refused), DropColumn, ReplaceColumn (renames
// onto fresh and existing names included), Clone, SelectRows, Head and
// Split steps to tables of 0-200 columns. After every step, Col and
// ColIndex on every table made so far, the one written and every earlier
// clone or view, must answer as a linear first-match scan, and each
// table must still hold exactly its own column names.
func TestNameIndexMatchesScan(t *testing.T) {
	absent := []string{"", "absent", "c-1", "n9999"}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Names come from a pool a bit larger than the table, or half the
		// time from the table being written, so adds, drops and renames
		// meet existing and repeated names often. Every other seed keeps
		// the table narrow, where repeats are the likeliest.
		width := rng.Intn(201)
		if seed%2 == 0 {
			width = rng.Intn(8)
		}
		pool := width + 1 + rng.Intn(20)
		var cur *indexedTable
		name := func() string {
			if len(cur.want) > 0 && rng.Intn(2) == 0 {
				return cur.want[rng.Intn(len(cur.want))]
			}
			return fmt.Sprintf("c%d", rng.Intn(pool))
		}
		rows := 1 + rng.Intn(6)
		col := func(n int) *Column { return NewNumeric(name(), make([]float64, n)) }

		base := NewTable("prop")
		cur = &indexedTable{tb: base}
		for base.NumCols() < width {
			_ = base.AddColumn(NewNumeric(fmt.Sprintf("c%d", rng.Intn(pool)), make([]float64, rows)))
		}
		cur.want = base.ColumnNames()
		tables := []*indexedTable{cur}
		for step := 0; step < 60; step++ {
			k := rng.Intn(len(tables))
			cur = tables[k]
			tb := cur.tb
			ctx := fmt.Sprintf("seed %d step %d table %d", seed, step, k)
			if step%7 == 0 {
				// Look names up first, so the write meets an index.
				tb.ColIndex(name())
			}
			// Writes outnumber new tables, so most writes meet a private index.
			switch op := rng.Intn(12); {
			case op <= 2:
				c := col(tb.NumRows())
				dup := slices.Contains(cur.want, c.Name)
				if err := tb.AddColumn(c); (err != nil) != dup {
					t.Fatalf("%s: AddColumn(%q) err = %v, duplicate = %v", ctx, c.Name, err, dup)
				}
				if !dup {
					cur.want = append(cur.want, c.Name)
				}
			case op <= 5:
				n := name()
				i := slices.Index(cur.want, n)
				if got := tb.DropColumn(n); got != (i >= 0) {
					t.Fatalf("%s: DropColumn(%q) = %v, present = %v", ctx, n, got, i >= 0)
				}
				if i >= 0 {
					cur.want = slices.Delete(cur.want, i, i+1)
				}
			case op <= 8:
				n := name()
				i := slices.Index(cur.want, n)
				c := col(tb.NumRows())
				if rng.Intn(4) == 0 {
					c.Name = n // same-name replacement
				}
				if got := tb.ReplaceColumn(n, c); got != (i >= 0) {
					t.Fatalf("%s: ReplaceColumn(%q) = %v, present = %v", ctx, n, got, i >= 0)
				}
				if i >= 0 {
					cur.want[i] = c.Name
				}
			case op == 9:
				tables = append(tables, &indexedTable{tb: tb.Clone(), want: slices.Clone(cur.want)})
			case op == 10:
				var pick []int
				for r := 0; r < tb.NumRows(); r++ {
					if rng.Intn(2) == 0 {
						pick = append(pick, r)
					}
				}
				tables = append(tables, &indexedTable{tb: tb.SelectRows(pick), want: slices.Clone(cur.want)})
			default:
				if rng.Intn(2) == 0 {
					tables = append(tables, &indexedTable{tb: tb.Head(rng.Intn(rows + 1)), want: slices.Clone(cur.want)})
					break
				}
				tr, te := tb.Split(0.5, seed)
				tables = append(tables,
					&indexedTable{tb: tr, want: slices.Clone(cur.want)},
					&indexedTable{tb: te, want: slices.Clone(cur.want)})
			}
			for j, it := range tables {
				if got := it.tb.ColumnNames(); !slices.Equal(got, it.want) {
					t.Fatalf("%s: table %d names changed:\n got %v\nwant %v", ctx, j, got, it.want)
				}
				checkAgainstScan(t, fmt.Sprintf("%s, table %d", ctx, j), it.tb, absent)
			}
		}
	}
}

// TestNameIndexRepeatedNames pins the first-match rule on a table that
// repeats a name (built directly, or by a rename onto an existing name):
// lookups find the first, and writes keep finding the first that is left.
func TestNameIndexRepeatedNames(t *testing.T) {
	a1, b, a2 := NewNumeric("a", []float64{1}), NewNumeric("b", []float64{2}), NewNumeric("a", []float64{3})
	tb := &Table{Name: "dup", Cols: []*Column{a1, b, a2}}
	if tb.Col("a") != a1 || tb.ColIndex("a") != 0 {
		t.Fatal("a repeated name must resolve to its first column")
	}
	if !tb.DropColumn("a") || tb.Col("a") != a2 || tb.ColIndex("a") != 1 {
		t.Fatal("after dropping the first, the second must be found")
	}
	c := NewNumeric("c", []float64{4})
	tb.MustAddColumn(c)
	if !tb.ReplaceColumn("c", NewNumeric("b", []float64{5})) || tb.Col("b") != b {
		t.Fatal("a rename onto an earlier name must leave the earlier first")
	}
	checkAgainstScan(t, "after rename", tb, []string{"c", "z"})
	if !tb.DropColumn("b") || tb.ColIndex("b") != 1 || tb.Col("b").Num(0) != 5 {
		t.Fatal("after dropping the first b, the renamed one must be found")
	}
}

// TestNameIndexFollowsColsLength pins the guard against writes to Cols
// that bypass the table's methods: an index over another column count
// is rebuilt on the next lookup, so an appended column is found and a
// truncated one is not read past.
func TestNameIndexFollowsColsLength(t *testing.T) {
	tb := NewTable("direct")
	for i := 0; i < 5; i++ {
		tb.MustAddColumn(NewNumeric(fmt.Sprintf("c%d", i), []float64{1}))
	}
	tb.ColIndex("c0")
	extra := NewNumeric("extra", []float64{2})
	tb.Cols = append(tb.Cols, extra)
	if tb.Col("extra") != extra || tb.ColIndex("extra") != 5 {
		t.Fatal("a column appended to Cols directly must be found")
	}
	tb.Cols = tb.Cols[:2]
	checkAgainstScan(t, "after truncation", tb, []string{"c2", "c3", "c4", "extra"})
}

// TestNameIndexConcurrentReaders calls Col, ColIndex, Clone and
// SelectRows on one shared table from several goroutines, each of which
// then writes its own clones; `make race` runs it under the race
// detector.
func TestNameIndexConcurrentReaders(t *testing.T) {
	shared := NewTable("shared")
	for i := 0; i < 120; i++ {
		shared.Cols = append(shared.Cols, NewNumeric(fmt.Sprintf("c%d", i), []float64{float64(i), 1, 2}))
	}
	names := shared.ColumnNames()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				for i, n := range names {
					if shared.ColIndex(n) != i || shared.Col(n) != shared.Cols[i] {
						errs <- fmt.Errorf("goroutine %d: %q resolves wrongly", g, n)
						return
					}
				}
				cl := shared.Clone()
				view := shared.SelectRows([]int{2, 0})
				cl.DropColumn(names[(g+round)%len(names)])
				if err := cl.AddColumn(NewNumeric(fmt.Sprintf("g%d", g), make([]float64, 3))); err != nil {
					errs <- err
					return
				}
				for _, tb := range []*Table{cl, view} {
					for i, c := range tb.Cols {
						if tb.ColIndex(c.Name) != i {
							errs <- fmt.Errorf("goroutine %d: %q misplaced in a clone or view", g, c.Name)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := shared.ColumnNames(); !slices.Equal(got, names) {
		t.Fatal("writes to clones changed the shared table")
	}
}
