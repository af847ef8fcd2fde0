package data

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"catdb/internal/bench/baseline"
)

// The Ingest* benchmarks measure cold CSV parse (serial and
// chunked-parallel) on synthetic mixed-kind tables. With
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

func benchIngestParse(b *testing.B, rows, workers int) {
	raw := ingestBenchCSV(rows)
	legacy := ingestLegacyMode()
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if legacy {
			_, err = readCSVLegacy(bytes.NewReader(raw), "bench")
		} else {
			_, err = ReadCSVOptions(bytes.NewReader(raw), "bench", IngestOptions{Workers: workers})
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIngestSerial100k(b *testing.B)   { benchIngestParse(b, ingestBenchSmall, 1) }
func BenchmarkIngestSerial1M(b *testing.B)     { benchIngestParse(b, ingestBenchLarge, 1) }
func BenchmarkIngestParallel100k(b *testing.B) { benchIngestParse(b, ingestBenchSmall, 0) }
func BenchmarkIngestParallel1M(b *testing.B)   { benchIngestParse(b, ingestBenchLarge, 0) }

// benchSummary times a cold summary build over every column of the
// parsed table. It calls computeSummary directly (not Summary) so the
// per-column memo cache never hides the work being measured.
func benchSummary(b *testing.B, rows int) {
	t, err := ReadCSVOptions(bytes.NewReader(ingestBenchCSV(rows)), "bench", IngestOptions{})
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
