package data

import (
	"fmt"
	"math/rand"
	"testing"
)

func sampleTable() *Table {
	t := NewTable("t")
	t.MustAddColumn(NewNumeric("x", []float64{1, 2, 3, 4, 5, 6}))
	t.MustAddColumn(NewString("s", []string{"a", "b", "a", "b", "a", "b"}))
	return t
}

func TestTableBasics(t *testing.T) {
	tb := sampleTable()
	if tb.NumRows() != 6 || tb.NumCols() != 2 {
		t.Fatalf("shape = %dx%d", tb.NumRows(), tb.NumCols())
	}
	if tb.Col("x") == nil || tb.Col("nope") != nil {
		t.Fatal("Col lookup broken")
	}
	if tb.ColIndex("s") != 1 || tb.ColIndex("nope") != -1 {
		t.Fatal("ColIndex broken")
	}
	names := tb.ColumnNames()
	if names[0] != "x" || names[1] != "s" {
		t.Fatalf("names = %v", names)
	}
	if NewTable("empty").NumRows() != 0 {
		t.Fatal("empty table rows")
	}
}

func TestAddColumnErrors(t *testing.T) {
	tb := sampleTable()
	if err := tb.AddColumn(NewNumeric("y", []float64{1})); err == nil {
		t.Fatal("row mismatch must error")
	}
	if err := tb.AddColumn(NewNumeric("x", make([]float64, 6))); err == nil {
		t.Fatal("duplicate name must error")
	}
}

func TestDropReplaceColumn(t *testing.T) {
	tb := sampleTable()
	if !tb.DropColumn("x") || tb.NumCols() != 1 {
		t.Fatal("DropColumn broken")
	}
	if tb.DropColumn("x") {
		t.Fatal("double drop must report false")
	}
	if !tb.ReplaceColumn("s", NewString("s2", []string{"q", "q", "q", "q", "q", "q"})) {
		t.Fatal("ReplaceColumn must find s")
	}
	if tb.Col("s2") == nil {
		t.Fatal("replacement not applied")
	}
}

func TestSelectRowsHeadSample(t *testing.T) {
	tb := sampleTable()
	sel := tb.SelectRows([]int{5, 0})
	if sel.NumRows() != 2 || sel.Col("x").Num(0) != 6 {
		t.Fatal("SelectRows wrong")
	}
	if tb.Head(3).NumRows() != 3 || tb.Head(100).NumRows() != 6 {
		t.Fatal("Head wrong")
	}
	rng := rand.New(rand.NewSource(1))
	if tb.Sample(4, rng).NumRows() != 4 {
		t.Fatal("Sample size wrong")
	}
	if tb.Sample(100, rng).NumRows() != 6 {
		t.Fatal("oversample must clone")
	}
}

func TestSplit(t *testing.T) {
	tb := sampleTable()
	tr, te := tb.Split(0.7, 42)
	if tr.NumRows()+te.NumRows() != 6 {
		t.Fatalf("split sizes %d+%d", tr.NumRows(), te.NumRows())
	}
	if tr.NumRows() != 4 {
		t.Fatalf("train size = %d, want 4", tr.NumRows())
	}
	// Determinism.
	tr2, _ := tb.Split(0.7, 42)
	for i := 0; i < tr.NumRows(); i++ {
		if tr.Col("x").Num(i) != tr2.Col("x").Num(i) {
			t.Fatal("Split must be deterministic for a fixed seed")
		}
	}
}

func TestSplitTinyTablesNeverEmptyTrain(t *testing.T) {
	// 1- and 2-row tables used to send everything to the test side
	// (int(0.7*1) == 0), leaving downstream training with no data.
	for rows := 1; rows <= 2; rows++ {
		tb := NewTable("t")
		x := make([]float64, rows)
		y := make([]string, rows)
		for i := range x {
			x[i] = float64(i)
			y[i] = fmt.Sprint(i % 2)
		}
		tb.MustAddColumn(NewNumeric("x", x))
		tb.MustAddColumn(NewString("y", y))
		tr, te := tb.Split(0.7, 5)
		if tr.NumRows() == 0 {
			t.Fatalf("Split(%d rows): empty train", rows)
		}
		if tr.NumRows()+te.NumRows() != rows {
			t.Fatalf("Split(%d rows): rows lost", rows)
		}
		str, ste := tb.StratifiedSplit("y", 0.7, 5)
		if str.NumRows() == 0 {
			t.Fatalf("StratifiedSplit(%d rows): empty train", rows)
		}
		if str.NumRows()+ste.NumRows() != rows {
			t.Fatalf("StratifiedSplit(%d rows): rows lost", rows)
		}
	}
}

func TestStratifiedSplit(t *testing.T) {
	tb := NewTable("t")
	n := 100
	x := make([]float64, n)
	y := make([]string, n)
	for i := 0; i < n; i++ {
		x[i] = float64(i)
		if i%10 == 0 {
			y[i] = "rare"
		} else {
			y[i] = "common"
		}
	}
	tb.MustAddColumn(NewNumeric("x", x))
	tb.MustAddColumn(NewString("y", y))
	tr, te := tb.StratifiedSplit("y", 0.7, 7)
	if tr.NumRows()+te.NumRows() != n {
		t.Fatal("rows lost")
	}
	count := func(tab *Table, v string) int {
		c := tab.Col("y")
		k := 0
		for i := 0; i < c.Len(); i++ {
			if c.Str(i) == v {
				k++
			}
		}
		return k
	}
	if count(tr, "rare") != 7 {
		t.Fatalf("train rare = %d, want 7", count(tr, "rare"))
	}
	// Fallback on missing target behaves like Split.
	tr2, te2 := tb.StratifiedSplit("nope", 0.7, 7)
	if tr2.NumRows()+te2.NumRows() != n {
		t.Fatal("fallback split lost rows")
	}
}

func TestAppendRows(t *testing.T) {
	a, b := sampleTable(), sampleTable()
	if err := a.AppendRows(b); err != nil {
		t.Fatal(err)
	}
	if a.NumRows() != 12 {
		t.Fatalf("appended rows = %d", a.NumRows())
	}
	bad := NewTable("bad")
	bad.MustAddColumn(NewNumeric("x", []float64{1}))
	if err := a.AppendRows(bad); err == nil {
		t.Fatal("column count mismatch must error")
	}
	bad2 := sampleTable()
	bad2.Cols[0].Name = "renamed"
	if err := a.AppendRows(bad2); err == nil {
		t.Fatal("name mismatch must error")
	}
}

func TestTableCloneDeep(t *testing.T) {
	tb := sampleTable()
	cp := tb.Clone()
	cp.Col("x").SetNum(0, 99)
	if tb.Col("x").Num(0) == 99 {
		t.Fatal("clone mutation leaked into the original")
	}
}

// TestContentHash pins the meaning of the profile-cache key: equal
// visible content hashes equal whatever the storage layout (dense, view,
// clone), a missing cell's stored slot is not content, and any visible
// difference changes the hash.
func TestContentHash(t *testing.T) {
	mk := func(x []float64, s []string) *Table {
		tab := NewTable("t")
		tab.MustAddColumn(NewNumeric("x", x))
		tab.MustAddColumn(NewString("s", s))
		tab.Col("x").SetMissing(len(x) - 2)
		tab.Col("s").SetMissing(len(s) - 2)
		return tab
	}
	base := func() *Table { return mk([]float64{1, 2, 3, 4}, []string{"a", "b", "c", "d"}) }
	want := base().ContentHash()
	wide := mk([]float64{9, 1, 2, 3, 4}, []string{"z", "a", "b", "c", "d"})
	slot := base()
	slot.Col("x").store.nums[2] = 42
	slot.Col("s").store.strs[2] = "zzz"
	for name, tab := range map[string]*Table{
		"rebuilt":        base(),
		"clone":          base().Clone(),
		"view":           wide.SelectRows([]int{1, 2, 3, 4}),
		"missing's slot": slot,
	} {
		if got := tab.ContentHash(); got != want {
			t.Errorf("%s: hash %x, want %x", name, got, want)
		}
	}
	for name, edit := range map[string]func(*Table){
		"value":      func(t *Table) { t.Col("x").SetNum(0, 5) },
		"present":    func(t *Table) { t.Col("x").ClearMissing(2) },
		"string":     func(t *Table) { t.Col("s").SetStr(0, "ab") },
		"string cut": func(t *Table) { t.Col("s").SetStr(0, "ab"); t.Col("s").SetStr(1, "") },
		"col name":   func(t *Table) { t.Col("x").Name = "y" },
		"kind":       func(t *Table) { t.Col("x").Kind = KindInt },
		"table name": func(t *Table) { t.Name = "u" },
		"columns":    func(t *Table) { t.Cols = []*Column{t.Col("x")} },
	} {
		tab := base()
		edit(tab)
		if tab.ContentHash() == want {
			t.Errorf("%s: edit left the hash unchanged", name)
		}
	}
}
