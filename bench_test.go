package catdb

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section (§5), each delegating to the corresponding runner in
// internal/bench and reporting the key quantities as custom metrics, plus
// micro-benchmarks of the substrates (profiling, refinement, tree
// training, pipeline execution).
//
// Run everything:   go test -bench=. -benchmem
// Full-size runs:   go run ./cmd/catdb-bench -exp all -scale 1.0
//
// The benchmarks use small scales so the whole suite finishes on a laptop;
// the *shape* statements of EXPERIMENTS.md hold at every scale.

import (
	"io"
	"testing"

	"catdb/internal/bench"
	"catdb/internal/core"
	"catdb/internal/data"
	"catdb/internal/llm"
	"catdb/internal/ml"
	"catdb/internal/profile"
)

func benchCfg(b *testing.B) bench.Config {
	b.Helper()
	return bench.Config{Scale: 0.1, Seed: 1, Iterations: 2, Fast: true, Out: io.Discard}
}

// BenchmarkFigure9Profiling regenerates Figure 9 (profiling runtime and
// data-type distribution across all 20 datasets).
func BenchmarkFigure9Profiling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFig9Profiling(benchCfg(b))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 20 {
			b.Fatal("expected 20 datasets")
		}
	}
}

// BenchmarkFigure10MetadataImpact regenerates Figure 10 (Table 1 metadata
// combinations vs CatDB / CatDB Chain).
func BenchmarkFigure10MetadataImpact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFig10MetadataImpact(benchCfg(b))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Best("Diabetes", "CatDB"), "catdb-auc")
		b.ReportMetric(res.Best("Diabetes", "#1"), "combo1-auc")
	}
}

// BenchmarkTable2ErrorTraces regenerates Table 2 and Figure 8 (error-trace
// distribution per model, 23-type histogram).
func BenchmarkTable2ErrorTraces(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunTable2ErrorTraces(benchCfg(b))
		if err != nil {
			b.Fatal(err)
		}
		for _, d := range res.Distributions {
			if d.Model == "llama3.1-70b" {
				b.ReportMetric(d.REPct, "llama-re-pct")
			}
		}
	}
}

// BenchmarkTable4Refinement regenerates Table 4 (distinct-item reduction
// through catalog refinement).
func BenchmarkTable4Refinement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunTable4Refinement(benchCfg(b))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.Rows)), "refined-columns")
	}
}

// BenchmarkTable5CleaningAccuracy regenerates Tables 5 and 6 (cleaning
// accuracy and runtime on the six §5.3 datasets).
func BenchmarkTable5CleaningAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunTable5Cleaning(benchCfg(b))
		if err != nil {
			b.Fatal(err)
		}
		if row := res.Get("EU-IT", "CatDB Refined"); row != nil {
			b.ReportMetric(row.TestAcc, "euit-refined-acc")
		}
		if row := res.Get("EU-IT", "CatDB Original"); row != nil {
			b.ReportMetric(row.TestAcc, "euit-original-acc")
		}
	}
}

// BenchmarkTable6CleaningRuntime is the runtime view of the same runs as
// Table 5 (the paper reports them as separate tables).
func BenchmarkTable6CleaningRuntime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunTable5Cleaning(benchCfg(b))
		if err != nil {
			b.Fatal(err)
		}
		if row := res.Get("Wifi", "CatDB Refined"); row != nil {
			b.ReportMetric(row.Runtime.Seconds(), "catdb-wifi-sec")
		}
	}
}

// BenchmarkFigure11TenIterations regenerates Figure 11 (AUC distributions
// over repeated generations).
func BenchmarkFigure11TenIterations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFig11TenIterations(benchCfg(b))
		if err != nil {
			b.Fatal(err)
		}
		if c := res.Get("Diabetes", "gpt-4o", "CatDB"); c != nil {
			b.ReportMetric(c.Mean(), "catdb-mean-auc")
		}
	}
}

// BenchmarkFigure12CostRuntime regenerates Figure 12 (token cost and
// runtime of the same repeated generations).
func BenchmarkFigure12CostRuntime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFig11TenIterations(benchCfg(b))
		if err != nil {
			b.Fatal(err)
		}
		if c := res.Get("Diabetes", "gpt-4o", "CatDB"); c != nil {
			b.ReportMetric(float64(c.TotalTokens), "catdb-tokens")
		}
		if c := res.Get("Diabetes", "gpt-4o", "CAAFE TabPFN"); c != nil {
			b.ReportMetric(float64(c.TotalTokens), "caafe-tokens")
		}
	}
}

// BenchmarkTable7SingleIteration regenerates Table 7 (single-iteration
// sweep over eight datasets, three LLMs, and all systems).
func BenchmarkTable7SingleIteration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunTable7SingleIteration(benchCfg(b))
		if err != nil {
			b.Fatal(err)
		}
		if row := res.Get("CMC", "gpt-4o", "CatDB"); row != nil {
			b.ReportMetric(row.Score, "cmc-catdb-auc")
		}
	}
}

// BenchmarkFigure13Tokens regenerates Figure 13 (token consumption
// including error handling) from the Table 7 sweep.
func BenchmarkFigure13Tokens(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunTable7SingleIteration(benchCfg(b))
		if err != nil {
			b.Fatal(err)
		}
		total, errTok := 0, 0
		for _, row := range res.Rows {
			if row.System == "CatDB" {
				total += row.Tokens
				errTok += row.ErrTok
			}
		}
		b.ReportMetric(float64(total), "catdb-tokens")
		b.ReportMetric(float64(errTok), "catdb-err-tokens")
	}
}

// BenchmarkTable8EndToEnd regenerates Table 8 (Fail/AVG/SUM end-to-end
// runtimes per system and LLM).
func BenchmarkTable8EndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunTable8EndToEnd(benchCfg(b))
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if row.System == "CatDB" && row.Model == "gpt-4o" {
				b.ReportMetric(float64(row.Fail), "catdb-fails")
				b.ReportMetric(row.SumSec, "catdb-sum-sec")
			}
		}
	}
}

// BenchmarkFigure14Robustness regenerates Figure 14 (outlier/missing/mixed
// corruption robustness, CatDB vs AutoML without cleaning).
func BenchmarkFigure14Robustness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFig14Robustness(benchCfg(b))
		if err != nil {
			b.Fatal(err)
		}
		if v, ok := res.Get("Utility", "outliers", 0.05, "CatDB"); ok {
			b.ReportMetric(v, "catdb-r2-at-5pct")
		}
		if v, ok := res.Get("Utility", "outliers", 0.05, "Flaml"); ok {
			b.ReportMetric(v, "flaml-r2-at-5pct")
		}
	}
}

// --- parallel harness ---

// harnessWorkload is the fixed experiment batch the worker-scaling
// benchmarks run: three runners with many independent cells each.
func harnessWorkload(b *testing.B) {
	b.Helper()
	cfg := benchCfg(b)
	if _, err := bench.RunFig10MetadataImpact(cfg); err != nil {
		b.Fatal(err)
	}
	if _, err := bench.RunTable2ErrorTraces(cfg); err != nil {
		b.Fatal(err)
	}
	if _, err := bench.RunAblation(cfg); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkHarnessWorkers1 is the serial baseline of the experiment
// harness: at GOMAXPROCS 1 the pool runs one cell at a time, as the old
// loops did.
func BenchmarkHarnessWorkers1(b *testing.B) {
	setProcs(b, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		harnessWorkload(b)
	}
}

// BenchmarkHarnessWorkersMax runs the same workload with the default
// GOMAXPROCS-sized worker pool. Compare against BenchmarkHarnessWorkers1
// for the parallel speedup (≥2x on multi-core machines; on a single-core
// runner the two are equivalent by construction).
func BenchmarkHarnessWorkersMax(b *testing.B) {
	for i := 0; i < b.N; i++ {
		harnessWorkload(b)
	}
}

// --- substrate micro-benchmarks ---

// BenchmarkProfileDataset measures Algorithm 1 on a mid-size dataset.
func BenchmarkProfileDataset(b *testing.B) {
	ds, err := data.Load("CMC", 1.0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := profile.Dataset(ds, profile.Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipGenWifi measures one full CatDB generation end to end.
func BenchmarkPipGenWifi(b *testing.B) {
	ds, err := data.Load("Wifi", 1.0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		client, _ := llm.New("gemini-1.5-pro", int64(i))
		if _, err := core.NewRunner(client).Run(ds, core.Options{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForestFit measures random-forest training (the dominant model
// cost inside pipeline execution).
func BenchmarkForestFit(b *testing.B) {
	n, d := 2000, 20
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		row := make([]float64, d)
		for j := range row {
			row[j] = float64((i*31+j*17)%100) / 100
		}
		X[i] = row
		y[i] = i % 3
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := ml.NewForest(ml.ForestConfig{Trees: 20, Seed: int64(i)})
		if err := f.FitClass(X, y, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation regenerates the design-choice ablation (DESIGN.md):
// rules, refinement, knowledge base, static repair, and the τ₂ budget.
func BenchmarkAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunAblation(benchCfg(b))
		if err != nil {
			b.Fatal(err)
		}
		if row := res.Get("Etailing", "full"); row != nil {
			b.ReportMetric(row.MeanScore, "full-score")
		}
		if row := res.Get("Etailing", "no-rules"); row != nil {
			b.ReportMetric(row.MeanScore, "no-rules-score")
		}
	}
}
