package data

import (
	"math/rand"
	"testing"

	"catdb/internal/bench/baseline"
)

// The Data* benchmarks measure row subsetting on a 100k×30 table. With
// BENCH_BASELINE=data they run the pre-view O(cells) deep-copy gather
// (the old Column.Select semantics, reimplemented below) so the committed
// BENCH_data.json baseline can be re-captured:
//
//	BENCH_BASELINE=data go test -bench=Data ... | benchjson -set-baseline
//	go test -bench=Data ...                     | benchjson
const (
	benchRows = 100_000
	benchCols = 30
)

func benchDeepMode() bool { return baseline.Lane("data") }

func benchTable() *Table {
	tb := NewTable("bench")
	for c := 0; c < benchCols; c++ {
		if c%5 == 4 {
			vals := make([]string, benchRows)
			for i := range vals {
				vals[i] = string(rune('a' + (i+c)%20))
			}
			tb.MustAddColumn(NewString(colName(c), vals))
			continue
		}
		vals := make([]float64, benchRows)
		for i := range vals {
			vals[i] = float64((i*7 + c) % 1000)
		}
		tb.MustAddColumn(NewNumeric(colName(c), vals))
	}
	tb.Cols[0].SetMissing(10)
	return tb
}

// deepSelectColumn materializes rows of c into fresh dense storage — the
// pre-refactor Column.Select implementation.
func deepSelectColumn(c *Column, rows []int) *Column {
	st := &colStore{missing: make([]bool, len(rows))}
	out := &Column{Name: c.Name, Kind: c.Kind, store: st}
	if c.Kind == KindString {
		st.strs = make([]string, len(rows))
		for i, r := range rows {
			st.strs[i] = c.Str(r)
			st.missing[i] = c.IsMissing(r)
		}
		return out
	}
	st.nums = make([]float64, len(rows))
	for i, r := range rows {
		st.nums[i] = c.Num(r)
		st.missing[i] = c.IsMissing(r)
	}
	return out
}

func deepSelectRows(t *Table, rows []int) *Table {
	out := &Table{Name: t.Name, Cols: make([]*Column, len(t.Cols))}
	for i, c := range t.Cols {
		out.Cols[i] = deepSelectColumn(c, rows)
	}
	return out
}

func deepSplit(t *Table, frac float64, seed int64) (*Table, *Table) {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(t.NumRows())
	cut := int(frac * float64(len(perm)))
	if cut < 1 && len(perm) > 0 {
		cut = 1
	}
	return deepSelectRows(t, perm[:cut]), deepSelectRows(t, perm[cut:])
}

func BenchmarkDataSelectRows(b *testing.B) {
	tb := benchTable()
	rows := make([]int, benchRows/2)
	for i := range rows {
		rows[i] = i * 2
	}
	deep := benchDeepMode()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if deep {
			_ = deepSelectRows(tb, rows)
		} else {
			_ = tb.SelectRows(rows)
		}
	}
}

func BenchmarkDataSplit(b *testing.B) {
	tb := benchTable()
	deep := benchDeepMode()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if deep {
			_, _ = deepSplit(tb, 0.7, 42)
		} else {
			_, _ = tb.Split(0.7, 42)
		}
	}
}

func BenchmarkDataSample(b *testing.B) {
	tb := benchTable()
	deep := benchDeepMode()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(7))
		if deep {
			perm := rng.Perm(tb.NumRows())
			_ = deepSelectRows(tb, perm[:50_000])
		} else {
			_ = tb.Sample(50_000, rng)
		}
	}
}

func BenchmarkDataClone(b *testing.B) {
	tb := benchTable()
	deep := benchDeepMode()
	all := make([]int, tb.NumRows())
	for i := range all {
		all[i] = i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if deep {
			_ = deepSelectRows(tb, all)
		} else {
			_ = tb.Clone()
		}
	}
}
