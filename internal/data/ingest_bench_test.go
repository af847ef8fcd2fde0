package data

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"catdb/internal/bench/baseline"
)

// The Ingest* benchmarks measure cold CSV parse (on one worker and on all)
// on synthetic mixed-kind tables and on a serve-shaped table. With
// BENCH_BASELINE=ingest they run the old ReadAll-based reader
// (readCSVLegacy) so the committed BENCH_ingest.json baseline can be
// re-captured:
//
//	BENCH_BASELINE=ingest go test -bench=Ingest ... | benchjson -set-baseline
//	go test -bench=Ingest ...                       | benchjson
//
// The Summary* benchmarks time cold summary builds over the same tables;
// no lane switches them, so they run in a single pass (BENCH_summary.json).
const (
	ingestBenchSmall = 100_000
	ingestBenchLarge = 1_000_000
)

func ingestLegacyMode() bool { return baseline.Lane("ingest") }

// ingestBenchCSV renders a mixed-kind table (ints, floats, bools,
// categoricals, quoted free text with embedded commas, scattered
// missing cells) to CSV bytes, memoized per row count so the large
// input is generated once per test binary.
var ingestBenchCache = map[int][]byte{}

func ingestBenchCSV(rows int) []byte {
	if raw, ok := ingestBenchCache[rows]; ok {
		return raw
	}
	rng := rand.New(rand.NewSource(int64(rows)))
	cats := [...]string{"alpha", "beta", "gamma", "delta", "epsilon"}
	var buf bytes.Buffer
	buf.WriteString("id,num1,num2,int1,cat,flag,text,score\n")
	for i := 0; i < rows; i++ {
		num := fmt.Sprintf("%.4f", rng.NormFloat64()*100)
		if i%97 == 13 {
			num = "" // missing cell
		}
		fmt.Fprintf(&buf, "%d,%s,%.2f,%d,%s,%t,\"item %d, cell\",%.3f\n",
			i, num, rng.Float64()*1e6, rng.Intn(1000),
			cats[rng.Intn(len(cats))], rng.Intn(2) == 0, i, rng.Float64())
	}
	ingestBenchCache[rows] = buf.Bytes()
	return ingestBenchCache[rows]
}

// serveShapeCSV renders a table shaped like e2ebench's serve workload:
// 13 full-precision float columns (5% missing in 8 of them, one the
// target) and 4 categorical columns of at most 40 values each.
func serveShapeCSV(rows int) []byte {
	cols := []ColumnSpec{
		{Name: "trip_distance", Type: ColNumeric, Mean: 3, Std: 2.5, Weight: 1.5, OutlierRate: 0.002},
		{Name: "pickup_hour", Type: ColNumeric, Mean: 13, Std: 6, Weight: 0.5},
		{Name: "passenger_count", Type: ColNumeric, Mean: 1.6, Std: 1.2, Weight: 0.1},
		{Name: "pickup_zone", Type: ColCategorical, Cardinality: 40, Weight: 0.7},
		{Name: "dropoff_zone", Type: ColCategorical, Cardinality: 40, Weight: 0.5},
		{Name: "vendor", Type: ColCategorical, Cardinality: 3},
		{Name: "payment_type", Type: ColCategorical, Cardinality: 5, Weight: 0.2},
		{Name: "tolls", Type: ColNumeric, Mean: 0.4, Std: 1.5, Weight: 0.4},
	}
	for i := 0; i < 8; i++ {
		cols = append(cols, ColumnSpec{
			Name: fmt.Sprintf("meta%d", i+1), Type: ColNumeric,
			Mean: float64(i%7) * 3, Std: 1 + float64(i%5)/2, Weight: 0.6 * float64(1-i%4/3),
			MissingRate: 0.05,
		})
	}
	ds, err := Generate(Spec{Name: "Trips", Rows: rows, Task: Regression, NoiseStd: 0.2, Columns: cols}, 0)
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, ds.PrimaryTable()); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// benchIngestParse times what ReadCSV does with raw: the input copy, then
// the parse at the given worker count.
func benchIngestParse(b *testing.B, raw []byte, workers int) {
	legacy := ingestLegacyMode()
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if legacy {
			_, err = readCSVLegacy(bytes.NewReader(raw), "bench")
		} else {
			var buf []byte
			if buf, err = slurp(bytes.NewReader(raw)); err == nil {
				_, err = parseCSVChunkSize(buf, "bench", workers, defaultChunkBytes)
			}
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIngestSerial100k(b *testing.B) {
	benchIngestParse(b, ingestBenchCSV(ingestBenchSmall), 1)
}

func BenchmarkIngestSerial1M(b *testing.B) {
	benchIngestParse(b, ingestBenchCSV(ingestBenchLarge), 1)
}

func BenchmarkIngestParallel100k(b *testing.B) {
	benchIngestParse(b, ingestBenchCSV(ingestBenchSmall), 0)
}

func BenchmarkIngestParallel1M(b *testing.B) {
	benchIngestParse(b, ingestBenchCSV(ingestBenchLarge), 0)
}

func BenchmarkIngestServeShape(b *testing.B) {
	benchIngestParse(b, serveShapeCSV(200_000), 0)
}

// benchSummary times a cold summary build over every column of the
// parsed table. It calls computeSummary directly (not Summary) so the
// per-column memo cache never hides the work being measured.
func benchSummary(b *testing.B, rows int) {
	t, err := ReadCSV(bytes.NewReader(ingestBenchCSV(rows)), "bench")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range t.Cols {
			_ = c.computeSummary()
		}
	}
}

func BenchmarkSummary100k(b *testing.B) { benchSummary(b, ingestBenchSmall) }
func BenchmarkSummary1M(b *testing.B)   { benchSummary(b, ingestBenchLarge) }
