package pipescript

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"catdb/internal/data"
)

// BenchmarkExecWideBranches measures the statement loop on a wide
// multi-branch preprocessing program over a 100k-row table: per-column
// impute/winsorize/log_transform/scale chains on the numeric columns
// and dedup_values/onehot chains on the categorical ones, 18
// independent branches with no cross-column dependencies. It was
// BenchmarkDAGPreprocess, the statement DAG's best case, which the DAG
// ran about twice as fast as this one statement loop on 2 vCPUs
// (BENCH_exec.json keeps both captures).
func BenchmarkExecWideBranches(b *testing.B) {
	const rows = 100_000
	const numCols = 12
	const catCols = 6
	rng := rand.New(rand.NewSource(11))
	base := data.NewTable("bench")
	for c := 0; c < numCols; c++ {
		vals := make([]float64, rows)
		for i := range vals {
			vals[i] = rng.NormFloat64()*float64(c+1) + 1.5
		}
		col := data.NewNumeric(fmt.Sprintf("num%02d", c), vals)
		for i := c; i < rows; i += 97 {
			col.SetMissing(i)
		}
		base.MustAddColumn(col)
	}
	cats := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	for c := 0; c < catCols; c++ {
		vals := make([]string, rows)
		for i := range vals {
			vals[i] = cats[(i+c)%len(cats)]
		}
		base.MustAddColumn(data.NewString(fmt.Sprintf("cat%02d", c), vals))
	}
	var src strings.Builder
	src.WriteString("pipeline \"wide\"\n")
	for c := 0; c < numCols; c++ {
		name := fmt.Sprintf("num%02d", c)
		fmt.Fprintf(&src, "impute %q strategy=median\n", name)
		fmt.Fprintf(&src, "winsorize %q\n", name)
		fmt.Fprintf(&src, "log_transform %q\n", name)
		fmt.Fprintf(&src, "scale %q method=standard\n", name)
	}
	for c := 0; c < catCols; c++ {
		name := fmt.Sprintf("cat%02d", c)
		fmt.Fprintf(&src, "dedup_values %q\n", name)
		fmt.Fprintf(&src, "onehot %q\n", name)
	}
	p, err := Parse(src.String())
	if err != nil {
		b.Fatal(err)
	}
	b.Run(fmt.Sprintf("rows=%d/branches=%d", rows, numCols+catCols), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			tr := base.Clone()
			te := base.Head(512)
			ex := &Executor{Seed: 1, AllowNoTrain: true}
			b.StartTimer()
			if _, err := ex.Execute(p, tr, te); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// chainTable builds a 4-column, rows-row table with injected missing
// cells: three numeric columns and one string column of dirty category
// spellings.
func chainTable(rows int) *data.Table {
	rng := rand.New(rand.NewSource(23))
	tab := data.NewTable("chain")
	for c := 0; c < 3; c++ {
		vals := make([]float64, rows)
		for i := range vals {
			vals[i] = rng.NormFloat64()*float64(c+1) + 2.0
		}
		col := data.NewNumeric(fmt.Sprintf("num%d", c), vals)
		for i := c; i < rows; i += 101 {
			col.SetMissing(i)
		}
		tab.MustAddColumn(col)
	}
	cats := []string{" alpha", "Alpha", "beta ", "gamma", "delta"}
	vals := make([]string, rows)
	for i := range vals {
		vals[i] = cats[i%len(cats)]
	}
	tab.MustAddColumn(data.NewString("cat", vals))
	return tab
}

// BenchmarkExecElementwise measures deep column-dependent elementwise
// chains (each op consumes its predecessor's output) over a 1M-row
// table: the per-op row loops and the exact column summaries the param
// fits build. It was BenchmarkShardElementwise in the row-shard lane.
func BenchmarkExecElementwise(b *testing.B) {
	const rows = 1_000_000
	base := chainTable(rows)
	p, err := Parse(`pipeline "chain"
impute "num0" strategy=median
winsorize "num0"
log_transform "num0"
scale "num0" method=standard
impute "num1" strategy=mean
clip_outliers "num1" method=iqr factor=2.5
scale "num1" method=minmax
bin_numeric "num2" bins=16
dedup_values "cat"
onehot "cat"
`)
	if err != nil {
		b.Fatal(err)
	}
	b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			tr := base.Clone()
			te := base.Head(512)
			ex := &Executor{Seed: 1, AllowNoTrain: true}
			b.StartTimer()
			if _, err := ex.Execute(p, tr, te); err != nil {
				b.Fatal(err)
			}
		}
	})
}
