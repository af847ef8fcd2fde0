package pipescript

import (
	"sort"
	"testing"

	"catdb/internal/data"
	"catdb/internal/obs"
)

// benchArtifact fits the full-pipeline serving benchmark artifact once:
// impute + dedup + one-hot + k-hot + scaling in front of a forest.
func benchArtifact(b *testing.B) (*FittedPipeline, *data.Table) {
	b.Helper()
	src := `pipeline "bench"
impute "num" strategy=median
dedup_values "cat"
onehot "cat"
khot "lst"
scale all_numeric method=standard
train model=random_forest target="y" trees=15
evaluate metric=auto
`
	prog, err := Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	tr, te := messyTable(1200, 2).Split(0.7, 5)
	ex := &Executor{Target: "y", Task: data.Multiclass, Seed: 1}
	_, fp, err := ex.Fit(prog, tr, te)
	if err != nil {
		b.Fatal(err)
	}
	te.DropColumn("y") // serving batches carry raw features only
	return fp, te
}

// BenchmarkPredictSingleRow measures request-style serving latency: one
// raw row through recorded transforms plus inference. Alongside the mean
// ns/op it reports the p50/p99 of the individual call latencies, which
// is what a serving SLO is written against.
func BenchmarkPredictSingleRow(b *testing.B) {
	fp, te := benchArtifact(b)
	row := te.Head(1)
	if _, err := fp.Predict(row); err != nil { // warm the live model
		b.Fatal(err)
	}
	lat := make([]float64, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := obs.Now()
		if _, err := fp.Predict(row); err != nil {
			b.Fatal(err)
		}
		lat = append(lat, float64(obs.Since(start).Nanoseconds()))
	}
	b.StopTimer()
	sort.Float64s(lat)
	b.ReportMetric(lat[len(lat)/2], "p50-ns")
	b.ReportMetric(lat[len(lat)*99/100], "p99-ns")
}

// BenchmarkPredictBatch measures throughput over a 512-row batch — the
// model zoo's internal inference chunk size — and reports rows/second.
func BenchmarkPredictBatch(b *testing.B) {
	fp, te := benchArtifact(b)
	rows := make([]int, 512)
	for i := range rows {
		rows[i] = i % te.NumRows()
	}
	batch := te.SelectRows(rows)
	if _, err := fp.Predict(batch); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	start := obs.Now()
	for i := 0; i < b.N; i++ {
		if _, err := fp.Predict(batch); err != nil {
			b.Fatal(err)
		}
	}
	elapsed := obs.Since(start).Seconds()
	b.StopTimer()
	if elapsed > 0 {
		b.ReportMetric(float64(512*b.N)/elapsed, "qps")
	}
}

// BenchmarkPredictBatch500k measures batched serving at scale: one
// artifact is fitted up front, then each iteration transforms and
// scores a 500k-row batch through it (serial row loops, the feature
// completeness check, the matrix build and 15-tree forest inference on
// 4 workers). It was BenchmarkShardBatchScore in the row-shard lane.
func BenchmarkPredictBatch500k(b *testing.B) {
	const batchRows = 500_000
	fitTab := chainTable(20_000)
	labels := make([]string, 20_000)
	for i := range labels {
		labels[i] = []string{"no", "yes", "maybe"}[i%3]
	}
	fitTab.MustAddColumn(data.NewString("y", labels))
	p, err := Parse(`pipeline "score"
impute "num0" strategy=median
scale "num0" method=standard
impute "num1" strategy=mean
impute "num2" strategy=median
log_transform "num2"
dedup_values "cat"
onehot "cat"
train model=random_forest target="y" trees=15
`)
	if err != nil {
		b.Fatal(err)
	}
	tr, te := fitTab.Split(0.8, 7)
	ex := &Executor{Target: "y", Task: data.Multiclass, Seed: 1}
	_, fp, err := ex.Fit(p, tr, te)
	if err != nil {
		b.Fatal(err)
	}
	fp.Workers = 4
	batch := chainTable(batchRows)
	if _, err := fp.Predict(batch.Head(512)); err != nil { // warm the live model
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fp.Predict(batch); err != nil {
			b.Fatal(err)
		}
	}
}
