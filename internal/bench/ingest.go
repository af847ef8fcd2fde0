package bench

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"catdb/internal/data"
	"catdb/internal/pool"
)

// IngestRow is one table size's ingest + summary measurement: cold CSV
// parse serial vs chunked-parallel, and a cold summary build.
type IngestRow struct {
	Rows     int
	Cols     int
	Bytes    int
	Serial   time.Duration
	Parallel time.Duration
	Workers  int
	Summary  time.Duration
}

// IngestResult holds the ingest-scaling measurements.
type IngestResult struct {
	Rows []IngestRow
}

// ingestSizes picks the synthetic table sizes (paper tables reach tens of
// millions of rows; the bench covers the shape at tractable sizes).
func ingestSizes(cfg Config) []int {
	if cfg.Fast {
		return []int{20_000}
	}
	return []int{50_000, 200_000}
}

// syntheticIngestCSV renders a mixed-kind table (ints, floats, bools,
// categoricals, quoted free text with embedded commas) to CSV bytes.
func syntheticIngestCSV(rows int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	cats := [...]string{"alpha", "beta", "gamma", "delta", "epsilon"}
	var buf bytes.Buffer
	buf.WriteString("id,num1,num2,int1,cat,flag,text,score\n")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&buf, "%d,%.4f,%.2f,%d,%s,%t,\"item %d, cell\",%.3f\n",
			i, rng.NormFloat64()*100, rng.Float64()*1e6, rng.Intn(1000),
			cats[rng.Intn(len(cats))], rng.Intn(2) == 0, i, rng.Float64())
	}
	return buf.Bytes()
}

// RunIngestScaling measures cold CSV ingest (streaming serial vs
// chunked-parallel at Config.Ingest.Workers) and column-summary builds
// over synthetic mixed-kind tables. Cells run serially — this experiment
// times wall clock, so concurrent cells would contaminate each other.
func RunIngestScaling(cfg Config) (*IngestResult, error) {
	cfg = cfg.withDefaults()
	workers := cfg.Ingest.Workers
	if workers <= 0 {
		workers = pool.DefaultWorkers()
	}
	res := &IngestResult{}
	for _, rows := range ingestSizes(cfg) {
		raw := syntheticIngestCSV(rows, cfg.Seed)
		row := IngestRow{Rows: rows, Bytes: len(raw), Workers: workers}

		start := time.Now()
		serialT, err := data.ReadCSVOptions(bytes.NewReader(raw), "ingest-serial",
			data.IngestOptions{Workers: 1})
		if err != nil {
			return nil, fmt.Errorf("bench: ingest serial: %w", err)
		}
		row.Serial = time.Since(start)

		start = time.Now()
		t, err := data.ReadCSVOptions(bytes.NewReader(raw), "ingest-parallel",
			data.IngestOptions{Workers: workers})
		if err != nil {
			return nil, fmt.Errorf("bench: ingest parallel: %w", err)
		}
		row.Parallel = time.Since(start)
		row.Cols = t.NumCols()
		_ = serialT

		start = time.Now()
		for _, c := range t.Cols {
			c.Summary()
		}
		row.Summary = time.Since(start)

		res.Rows = append(res.Rows, row)
	}

	tb := &table{header: []string{"Rows", "Cols", "MiB", "Serial[ms]", fmt.Sprintf("Parallel[ms] (w=%d)", workers), "Summary[ms]"}}
	for _, r := range res.Rows {
		tb.add(fmt.Sprint(r.Rows), fmt.Sprint(r.Cols),
			fmt.Sprintf("%.1f", float64(r.Bytes)/(1<<20)),
			millis(r.Serial), millis(r.Parallel),
			millis(r.Summary))
	}
	tb.render(cfg.Out, "Ingest scaling: chunked CSV parse and column summaries")
	return res, nil
}

func millis(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000)
}
