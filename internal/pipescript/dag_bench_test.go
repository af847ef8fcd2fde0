package pipescript

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"catdb/internal/bench/baseline"
	"catdb/internal/data"
)

// BenchmarkDAGPreprocess measures the executor's default statement DAG
// against the linear reference on a wide multi-branch preprocessing
// program over a 100k-row table: per-column
// impute/winsorize/log_transform/scale chains on the numeric columns and
// dedup_values/onehot chains on the categorical ones — 18 independent
// branches with no cross-column dependencies, the best case for wave
// scheduling. Both passes run the same serial row loops, so the gap is
// the statement DAG alone.
//
// `make bench` runs this twice: BENCH_BASELINE=dag captures the linear
// reference into BENCH_dag.json, then the default pass records the
// scheduled numbers against it.
func BenchmarkDAGPreprocess(b *testing.B) {
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
	linear := baseline.Lane("dag")
	for _, workers := range []int{4} {
		name := fmt.Sprintf("rows=%d/branches=%d/workers=%d", rows, numCols+catCols, workers)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tr := base.Clone()
				te := base.Head(512)
				ex := &Executor{Seed: 1, AllowNoTrain: true, Workers: workers, linear: linear}
				b.StartTimer()
				if _, err := ex.Execute(p, tr, te); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
