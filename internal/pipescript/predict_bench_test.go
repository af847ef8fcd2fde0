package pipescript

import (
	"fmt"
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
	benchRowLatency(b, fp, te.Head(1))
}

// wideArtifact fits a serve-shaped artifact: 17 raw columns (an NYC
// taxi-trip table's 16 features and its regression target) with two
// 40-category and two small categorical columns and 12 numeric ones, 8
// of them with 5% gaps. The recorded pipeline imputes the gaps, one-hot
// encodes the four categoricals (100 features), scales every numeric
// column and fits an 80-tree forest, so a single row pays what the
// catalog's feature engineering costs per request.
func wideArtifact(b *testing.B) (*FittedPipeline, *data.Table) {
	b.Helper()
	cols := []data.ColumnSpec{
		{Name: "trip_distance", Type: data.ColNumeric, Mean: 3, Std: 2.5, Weight: 1.5, OutlierRate: 0.002},
		{Name: "pickup_hour", Type: data.ColNumeric, Mean: 13, Std: 6, Weight: 0.5},
		{Name: "passenger_count", Type: data.ColNumeric, Mean: 1.6, Std: 1.2, Weight: 0.1},
		{Name: "pickup_zone", Type: data.ColCategorical, Cardinality: 40, Weight: 0.7},
		{Name: "dropoff_zone", Type: data.ColCategorical, Cardinality: 40, Weight: 0.5},
		{Name: "vendor", Type: data.ColCategorical, Cardinality: 3},
		{Name: "payment_type", Type: data.ColCategorical, Cardinality: 5, Weight: 0.2},
		{Name: "tolls", Type: data.ColNumeric, Mean: 0.4, Std: 1.5, Weight: 0.4},
	}
	for i := 0; i < 8; i++ {
		cols = append(cols, data.ColumnSpec{
			Name: fmt.Sprintf("meta%d", i+1), Type: data.ColNumeric,
			Mean: float64(i%7) * 3, Std: 1 + float64(i%5)/2, Weight: 0.6 * float64(1-i%4/3),
			MissingRate: 0.05,
		})
	}
	ds, err := data.Generate(data.Spec{Name: "Trips", Rows: 3000, Task: data.Regression, NoiseStd: 0.2,
		TargetName: "total", Columns: cols}, 0)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := Parse(`pipeline "wide"
impute_all strategy=median
onehot "pickup_zone"
onehot "dropoff_zone"
onehot "vendor"
onehot "payment_type"
scale all_numeric method=standard
train model=random_forest target="total" trees=80
`)
	if err != nil {
		b.Fatal(err)
	}
	tr, te := ds.Tables[0].Split(0.7, 5)
	ex := &Executor{Target: "total", Task: data.Regression, Seed: 1}
	_, fp, err := ex.Fit(prog, tr, te)
	if err != nil {
		b.Fatal(err)
	}
	if len(fp.Features) != 100 {
		b.Fatalf("%d features, want 100", len(fp.Features))
	}
	te.DropColumn("total")
	return fp, te
}

// BenchmarkPredictSingleRowWide is BenchmarkPredictSingleRow on the
// serve-shaped artifact: one 17-column row widened to 100 features by
// the recorded steps, then scored by 80 trees.
func BenchmarkPredictSingleRowWide(b *testing.B) {
	fp, te := wideArtifact(b)
	// A row without gaps: the recorded imputes cover only the columns
	// that had gaps in the fit's train split.
	for i := 0; i < te.NumRows(); i++ {
		row := te.SelectRows([]int{i})
		if _, err := fp.Predict(row); err == nil {
			benchRowLatency(b, fp, row)
			return
		}
	}
	b.Fatal("no test row is servable")
}

// benchRowLatency predicts row b.N times (after one warm-up call that
// builds the live model) and reports the p50/p99 call latency.
func benchRowLatency(b *testing.B, fp *FittedPipeline, row *data.Table) {
	if _, err := fp.Predict(row); err != nil {
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
