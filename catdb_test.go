package catdb

import (
	"runtime"
	"strings"
	"testing"
)

// setProcs sets GOMAXPROCS to n until tb ends (for a benchmark, outside
// its timer). The pool sizes every fan-out from GOMAXPROCS, so this is
// how a test or benchmark picks its worker count.
func setProcs(tb testing.TB, n int) {
	prev := runtime.GOMAXPROCS(n)
	tb.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// Integration tests over the public API: the module's surface exercised
// the way a downstream user would.

func TestPublicQuickstart(t *testing.T) {
	ds, err := LoadDataset("Wifi", 1.0)
	if err != nil {
		t.Fatal(err)
	}
	md, err := Collect(ds)
	if err != nil {
		t.Fatal(err)
	}
	if md.Rows == 0 || len(md.Columns) == 0 {
		t.Fatal("empty profile")
	}
	client, err := NewLLM("gemini-1.5-pro", 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := PipGen(ds, client, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pipeline == "" || res.Exec == nil {
		t.Fatal("pipeline or metrics missing")
	}
	if res.Exec.TestAUC < 55 {
		t.Fatalf("AUC = %g", res.Exec.TestAUC)
	}
}

func TestParallelPipGenDeterministicAcrossWorkerCounts(t *testing.T) {
	wifi, err := LoadDataset("Wifi", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	cmc, err := LoadDataset("CMC", 0.3)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []PipGenJob{
		{Dataset: wifi, Model: "gemini-1.5-pro", Seed: 1, Options: Options{Seed: 1}},
		{Dataset: cmc, Model: "gpt-4o", Seed: 1, Options: Options{Seed: 1}},
		{Dataset: wifi, Model: "llama3.1-70b", Seed: 2, Options: Options{Seed: 2}},
		{Dataset: nil, Model: "gpt-4o", Seed: 3}, // must error, not panic
	}
	setProcs(t, 1)
	serial := ParallelPipGen(jobs)
	setProcs(t, 8)
	parallel := ParallelPipGen(jobs)
	if len(serial) != len(jobs) || len(parallel) != len(jobs) {
		t.Fatalf("outcome counts: %d and %d, want %d", len(serial), len(parallel), len(jobs))
	}
	for i := range jobs[:3] {
		s, p := serial[i], parallel[i]
		if s.Err != nil || p.Err != nil {
			t.Fatalf("job %d: unexpected errors %v / %v", i, s.Err, p.Err)
		}
		if s.Result.Pipeline != p.Result.Pipeline {
			t.Fatalf("job %d: pipeline differs between worker counts", i)
		}
		if s.Result.Pipeline == "" || s.Result.Exec == nil {
			t.Fatalf("job %d: missing pipeline or metrics", i)
		}
	}
	if serial[3].Err == nil || parallel[3].Err == nil {
		t.Fatal("nil-dataset job must report an error")
	}
	if serial[3].Result != nil {
		t.Fatal("failed job must not carry a result")
	}
	// Distinct jobs over the same dataset get distinct derived clients.
	if serial[0].Result.Model == serial[2].Result.Model &&
		serial[0].Result.Pipeline == serial[2].Result.Pipeline {
		t.Log("note: different models produced identical pipelines (allowed but unexpected)")
	}
}

func TestPublicCSVRoundTrip(t *testing.T) {
	csv := "x,y,label\n1,2,a\n3,4,b\n5,6,a\n7,8,b\n2,3,a\n6,7,b\n"
	ds, err := ReadCSV(strings.NewReader(csv), "toy", "label", Binary)
	if err != nil {
		t.Fatal(err)
	}
	if ds.PrimaryTable().NumRows() != 6 {
		t.Fatal("rows lost")
	}
	if _, err := ReadCSV(strings.NewReader("x\n1\n"), "bad", "missing", Binary); err == nil {
		t.Fatal("missing target must error")
	}
}

func TestPublicRefine(t *testing.T) {
	ds, err := LoadDataset("Utility", 0.3)
	if err != nil {
		t.Fatal(err)
	}
	client, _ := NewLLM("gemini-1.5-pro", 2)
	ref, err := Refine(ds, client)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Table == nil || len(ref.Updates) == 0 {
		t.Fatal("refinement produced nothing")
	}
}

func TestPublicExecutePipeline(t *testing.T) {
	ds, err := LoadDataset("Diabetes", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := ds.Consolidate()
	if err != nil {
		t.Fatal(err)
	}
	tr, te := tb.StratifiedSplit(ds.Target, 0.7, 1)
	src := `pipeline "manual"
impute_all strategy=auto
train model=gbm target="target" rounds=20
evaluate metric=auto
`
	res, err := ExecutePipeline(src, tr, te, ds.Target, ds.Task, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.TestAUC < 55 {
		t.Fatalf("manual pipeline AUC = %g", res.TestAUC)
	}
	if _, err := ExecutePipeline("garbage !!", tr, te, ds.Target, ds.Task, 1); err == nil {
		t.Fatal("bad pipeline must error")
	}
}

func TestPublicHelpers(t *testing.T) {
	if len(DatasetNames()) != 20 {
		t.Fatal("dataset registry")
	}
	if len(ModelNames()) != 3 {
		t.Fatal("model registry")
	}
	if _, err := NewLLM("nope", 1); err == nil {
		t.Fatal("unknown model must error")
	}
	if _, err := PipGen(nil, nil, Options{}); err == nil {
		t.Fatal("nil client must error")
	}
}

func TestChainVariantPublic(t *testing.T) {
	ds, err := LoadDataset("CMC", 0.4)
	if err != nil {
		t.Fatal(err)
	}
	client, _ := NewLLM("gpt-4o", 3)
	res, err := PipGen(ds, client, Options{Seed: 3, Chains: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Variant != "CatDB Chain" {
		t.Fatalf("variant = %s", res.Variant)
	}
}
