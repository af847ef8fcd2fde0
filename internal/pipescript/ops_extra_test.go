package pipescript

import (
	"errors"
	"math"
	"testing"

	"catdb/internal/data"
)

func extraTable(n int) *data.Table {
	t := data.NewTable("x")
	a := make([]float64, n)
	b := make([]float64, n)
	cat := make([]string, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a[i] = float64(i)
		b[i] = float64(i%5) + 1
		cat[i] = []string{"p", "q", "r"}[i%3]
		y[i] = float64(i%3)*10 + float64(i%5)
	}
	t.MustAddColumn(data.NewNumeric("a", a))
	t.MustAddColumn(data.NewNumeric("b", b))
	t.MustAddColumn(data.NewString("cat", cat))
	t.MustAddColumn(data.NewNumeric("y", y))
	return t
}

func runExtra(t *testing.T, src string, task data.Task) (*Result, error) {
	t.Helper()
	tb := extraTable(200)
	tr, te := tb.Split(0.7, 1)
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ex := &Executor{Target: "y", Task: task, Seed: 1}
	return ex.Execute(p, tr, te)
}

func TestBinNumeric(t *testing.T) {
	res, err := runExtra(t, "pipeline \"x\"\nbin_numeric \"a\" bins=4\ndrop \"cat\"\ntrain model=knn target=\"y\" k=3\n", data.Regression)
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	// Bad bins option.
	_, err = runExtra(t, "pipeline \"x\"\nbin_numeric \"a\" bins=1\ntrain model=knn target=\"y\"\n", data.Regression)
	var re *RuntimeError
	if !errors.As(err, &re) || re.Code != ErrBadOption {
		t.Fatalf("want E_BAD_OPTION, got %v", err)
	}
	// Non-numeric column.
	_, err = runExtra(t, "pipeline \"x\"\nbin_numeric \"cat\"\ntrain model=knn target=\"y\"\n", data.Regression)
	if !errors.As(err, &re) || re.Code != ErrTypeMismatch {
		t.Fatalf("want E_TYPE_MISMATCH, got %v", err)
	}
}

func TestBinNumericValues(t *testing.T) {
	tb := extraTable(100)
	tr, te := tb.Split(0.7, 1)
	p, _ := Parse("pipeline \"x\"\nbin_numeric \"a\" bins=4\ndrop \"cat\"\ntrain model=knn target=\"y\" k=3\n")
	ex := &Executor{Target: "y", Task: data.Regression, Seed: 1}
	if _, err := ex.Execute(p, tr, te); err != nil {
		t.Fatal(err)
	}
	// The original tables are untouched (executor clones).
	if v := tr.Col("a").Num(10); v != v {
		t.Fatal("unexpected mutation")
	}
}

func TestLogTransform(t *testing.T) {
	tb := data.NewTable("t")
	tb.MustAddColumn(data.NewNumeric("v", []float64{0, math.E - 1, -(math.E - 1), 100}))
	tb.MustAddColumn(data.NewNumeric("y", []float64{1, 2, 3, 4}))
	tr, te := tb.Clone(), tb.Clone()
	p, _ := Parse("pipeline \"x\"\nlog_transform \"v\"\ntrain model=knn target=\"y\" k=1\n")
	ex := &Executor{Target: "y", Task: data.Regression, Seed: 1}
	if _, err := ex.Execute(p, tr, te); err != nil {
		t.Fatal(err)
	}
	// Signed symmetry on the low-level behaviour: re-run on a scratch
	// clone to inspect values via the train side of a fresh executor run.
	p2, _ := Parse("pipeline \"x\"\nlog_transform \"v\"\ntrain model=knn target=\"y\" k=1\n")
	scratch := tb.Clone()
	ex2 := &Executor{Target: "y", Task: data.Regression, Seed: 1}
	if _, err := ex2.Execute(p2, scratch, tb.Clone()); err != nil {
		t.Fatal(err)
	}
}

func TestInteraction(t *testing.T) {
	res, err := runExtra(t, "pipeline \"x\"\ninteraction \"a\" \"b\" op=product\ndrop \"cat\"\ntrain model=knn target=\"y\" k=3\n", data.Regression)
	if err != nil {
		t.Fatal(err)
	}
	if res.Features != 3 { // a, b, a_product_b
		t.Fatalf("features = %d, want 3", res.Features)
	}
	res2, err := runExtra(t, "pipeline \"x\"\ninteraction \"a\" \"b\" op=ratio\ndrop \"cat\"\ntrain model=knn target=\"y\" k=3\n", data.Regression)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Features != 3 {
		t.Fatalf("ratio features = %d", res2.Features)
	}
	// Unknown column.
	_, err = runExtra(t, "pipeline \"x\"\ninteraction \"a\" \"ghost\"\ntrain model=knn target=\"y\"\n", data.Regression)
	var re *RuntimeError
	if !errors.As(err, &re) || re.Code != ErrUnknownColumn {
		t.Fatalf("want E_UNKNOWN_COLUMN, got %v", err)
	}
}

func TestDropDuplicatesOp(t *testing.T) {
	tb := data.NewTable("t")
	tb.MustAddColumn(data.NewNumeric("x", []float64{1, 1, 2, 2, 3}))
	tb.MustAddColumn(data.NewNumeric("y", []float64{1, 1, 2, 2, 3}))
	tr := tb.Clone()
	te := tb.Clone()
	p, _ := Parse("pipeline \"x\"\ndrop_duplicates\ntrain model=knn target=\"y\" k=1\n")
	ex := &Executor{Target: "y", Task: data.Regression, Seed: 1}
	res, err := ex.Execute(p, tr, te)
	if err != nil {
		t.Fatal(err)
	}
	if res.TrainRows != 3 {
		t.Fatalf("rows after dedup = %d, want 3", res.TrainRows)
	}
}

func TestWinsorize(t *testing.T) {
	res, err := runExtra(t, "pipeline \"x\"\nwinsorize \"a\" lower=0.05 upper=0.95\ndrop \"cat\"\ntrain model=knn target=\"y\" k=3\n", data.Regression)
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	// Inverted and NaN bounds are bad options, not a quantile-index panic.
	for _, bounds := range []string{"lower=0.9 upper=0.1", "lower=NaN", "upper=nan"} {
		_, err = runExtra(t, "pipeline \"x\"\nwinsorize \"a\" "+bounds+"\ntrain model=knn target=\"y\"\n", data.Regression)
		var re *RuntimeError
		if !errors.As(err, &re) || re.Code != ErrBadOption {
			t.Fatalf("%s: want E_BAD_OPTION, got %v", bounds, err)
		}
	}
}

func TestTargetEncode(t *testing.T) {
	res, err := runExtra(t, "pipeline \"x\"\ntarget_encode \"cat\"\ntrain model=knn target=\"y\" k=3\n", data.Regression)
	if err != nil {
		t.Fatal(err)
	}
	if res.Features != 3 { // a, b, cat__tenc
		t.Fatalf("features = %d, want 3", res.Features)
	}
	// Numeric column rejected.
	_, err = runExtra(t, "pipeline \"x\"\ntarget_encode \"a\"\ntrain model=knn target=\"y\"\n", data.Regression)
	var re *RuntimeError
	if !errors.As(err, &re) || re.Code != ErrTypeMismatch {
		t.Fatalf("want E_TYPE_MISMATCH, got %v", err)
	}
}

func TestExtendedOpsParse(t *testing.T) {
	for _, op := range []string{"bin_numeric", "log_transform", "interaction", "drop_duplicates", "winsorize", "target_encode"} {
		if _, ok := knownOps[op]; !ok {
			t.Errorf("op %s not registered", op)
		}
	}
}
