package pipescript

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"catdb/internal/data"
)

// messyTable builds a classification table with missing values, a dirty
// categorical, a list column, and a numeric feature.
func messyTable(n int, seed int64) *data.Table {
	rng := rand.New(rand.NewSource(seed))
	num := make([]float64, n)
	cat := make([]string, n)
	lst := make([]string, n)
	y := make([]string, n)
	for i := 0; i < n; i++ {
		c := i % 3
		num[i] = float64(c)*2 + rng.NormFloat64()*0.4
		cat[i] = []string{"red", "RED", "green", "Green", "blue", "blue "}[c*2+rng.Intn(2)]
		lst[i] = []string{"a, b", "b, c", "c, a"}[c]
		y[i] = []string{"lo", "mid", "hi"}[c]
	}
	t := data.NewTable("m")
	t.MustAddColumn(data.NewNumeric("num", num))
	t.MustAddColumn(data.NewString("cat", cat))
	t.MustAddColumn(data.NewString("lst", lst))
	t.MustAddColumn(data.NewString("y", y))
	// Inject some missing numerics.
	for i := 0; i < n; i += 17 {
		t.Col("num").SetMissing(i)
	}
	return t
}

func split(t *data.Table, seed int64) (*data.Table, *data.Table) {
	return t.Split(0.7, seed)
}

func mustParse(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestExecuteFullPipeline(t *testing.T) {
	tr, te := split(messyTable(600, 1), 7)
	p := mustParse(t, `pipeline "full"
impute "num" strategy=median
dedup_values "cat"
onehot "cat"
khot "lst"
scale all_numeric method=standard
train model=random_forest target="y" trees=15
evaluate metric=auto
`)
	ex := &Executor{Target: "y", Task: data.Multiclass, Seed: 1}
	res, err := ex.Execute(p, tr, te)
	if err != nil {
		t.Fatal(err)
	}
	if res.TestAcc < 90 {
		t.Fatalf("test accuracy = %g, want high (separable data)", res.TestAcc)
	}
	if res.TestAUC < 90 {
		t.Fatalf("test AUC = %g", res.TestAUC)
	}
	if res.Metric != "auc" || res.ModelName != "random_forest" {
		t.Fatalf("result meta: %+v", res)
	}
	if res.Features == 0 || res.TrainRows == 0 {
		t.Fatal("feature/row counts missing")
	}
}

func TestExecuteStringInMatrix(t *testing.T) {
	tr, te := split(messyTable(300, 2), 7)
	p := mustParse(t, `pipeline "bad"
impute "num" strategy=median
train model=random_forest target="y"
`)
	ex := &Executor{Target: "y", Task: data.Multiclass, Seed: 1}
	_, err := ex.Execute(p, tr, te)
	var re *RuntimeError
	if !errors.As(err, &re) || re.Code != ErrStringInMatrix {
		t.Fatalf("want E_STRING_IN_MATRIX, got %v", err)
	}
	if !strings.Contains(re.Error(), "line 3") {
		t.Fatalf("error should cite the train line: %v", re)
	}
}

func TestExecuteNaNInMatrix(t *testing.T) {
	tab := messyTable(300, 3) // "num" is missing at every 17th row
	// A row-mapped view holding the gap rows 0, 17 and 34, then the
	// present rows 35..49: the count must go through the view mapping
	// (a count over the first 18 mask cells would read 2).
	rows := []int{0, 17, 34}
	for i := 35; i < 50; i++ {
		rows = append(rows, i)
	}
	tr, te := tab.SelectRows(rows), tab.Head(20)
	p := mustParse(t, `pipeline "bad"
onehot "cat"
khot "lst"
train model=random_forest target="y"
`)
	ex := &Executor{Target: "y", Task: data.Multiclass, Seed: 1}
	_, err := ex.Execute(p, tr, te)
	var re *RuntimeError
	if !errors.As(err, &re) || re.Code != ErrNaNInMatrix {
		t.Fatalf("want E_NAN_IN_MATRIX, got %v", err)
	}
	if !strings.Contains(err.Error(), `column "num" has 3 missing values`) {
		t.Fatalf("err = %v, want it to count 3 missing values", err)
	}
}

func TestExecuteUnknownColumn(t *testing.T) {
	tr, te := split(messyTable(200, 4), 7)
	p := mustParse(t, "pipeline \"x\"\nimpute \"nope\" strategy=median\ntrain model=knn target=\"y\"\n")
	ex := &Executor{Target: "y", Task: data.Multiclass, Seed: 1}
	_, err := ex.Execute(p, tr, te)
	var re *RuntimeError
	if !errors.As(err, &re) || re.Code != ErrUnknownColumn {
		t.Fatalf("want E_UNKNOWN_COLUMN, got %v", err)
	}
}

func TestExecutePkgMissing(t *testing.T) {
	tr, te := split(messyTable(200, 5), 7)
	p := mustParse(t, "pipeline \"x\"\nrequire xgboost\ntrain model=knn target=\"y\"\n")
	ex := &Executor{Target: "y", Task: data.Multiclass, Seed: 1}
	_, err := ex.Execute(p, tr, te)
	var re *RuntimeError
	if !errors.As(err, &re) || re.Code != ErrPkgMissing {
		t.Fatalf("want E_PKG_MISSING, got %v", err)
	}
}

func TestExecuteNoTrain(t *testing.T) {
	tr, te := split(messyTable(200, 6), 7)
	p := mustParse(t, "pipeline \"x\"\nimpute \"num\" strategy=mean\n")
	ex := &Executor{Target: "y", Task: data.Multiclass, Seed: 1}
	_, err := ex.Execute(p, tr, te)
	var re *RuntimeError
	if !errors.As(err, &re) || re.Code != ErrNoTrainStmt {
		t.Fatalf("want E_NO_TRAIN, got %v", err)
	}
}

func TestExecuteUnknownModel(t *testing.T) {
	tr, te := split(messyTable(200, 7), 7)
	p := mustParse(t, "pipeline \"x\"\ndrop \"cat\"\ndrop \"lst\"\nimpute_all\ntrain model=quantum_forest target=\"y\"\n")
	ex := &Executor{Target: "y", Task: data.Multiclass, Seed: 1}
	_, err := ex.Execute(p, tr, te)
	var re *RuntimeError
	if !errors.As(err, &re) || re.Code != ErrUnknownModel {
		t.Fatalf("want E_UNKNOWN_MODEL, got %v", err)
	}
}

// TestTrainIgnoresBackendOptions: a tree fit picks its split path from
// its row count alone, so the former backend= and bins= train options
// are ignored like any unknown option. On 420 training rows of one
// continuous feature they used to force 4-bin histograms and so a
// different forest; now the Result and the saved artifact equal those of
// the statement without them.
func TestTrainIgnoresBackendOptions(t *testing.T) {
	tr, te := split(messyTable(600, 9), 7)
	src := `pipeline "x"
impute "num" strategy=median
drop "cat"
drop "lst"
train model=random_forest target="y" trees=10%s
evaluate metric=auto
`
	fit := func(opts string) (*Result, []byte) {
		ex := &Executor{Target: "y", Task: data.Multiclass, Seed: 1, CapturePredictions: true}
		res, fp, err := ex.Fit(mustParse(t, fmt.Sprintf(src, opts)), tr, te)
		if err != nil {
			t.Fatalf("train%s: %v", opts, err)
		}
		var buf bytes.Buffer
		if err := fp.Save(&buf); err != nil {
			t.Fatal(err)
		}
		res.Program = nil // the two sources differ by the options
		return res, buf.Bytes()
	}
	wantRes, wantArt := fit("")
	gotRes, gotArt := fit(" backend=hist bins=4")
	if !reflect.DeepEqual(gotRes, wantRes) {
		t.Fatalf("result with backend=hist bins=4:\n%+v\nwithout:\n%+v", gotRes, wantRes)
	}
	if !bytes.Equal(gotArt, wantArt) {
		t.Fatal("artifact with backend=hist bins=4 differs from the one without")
	}
}

func TestExecuteTabPFNOOM(t *testing.T) {
	tr, te := split(messyTable(3000, 8), 7)
	p := mustParse(t, "pipeline \"x\"\ndrop \"cat\"\ndrop \"lst\"\nimpute_all\ntrain model=tabpfn target=\"y\"\n")
	ex := &Executor{Target: "y", Task: data.Multiclass, Seed: 1}
	_, err := ex.Execute(p, tr, te)
	var re *RuntimeError
	if !errors.As(err, &re) || re.Code != ErrModelOOM {
		t.Fatalf("want E_MODEL_OOM, got %v", err)
	}
}

func TestExecuteRebalanceOnRegression(t *testing.T) {
	n := 200
	tb := data.NewTable("r")
	tb.MustAddColumn(data.NewNumeric("x", make([]float64, n)))
	tb.MustAddColumn(data.NewNumeric("y", make([]float64, n)))
	tr, te := split(tb, 7)
	p := mustParse(t, "pipeline \"x\"\nrebalance\ntrain model=linear_regression target=\"y\"\n")
	ex := &Executor{Target: "y", Task: data.Regression, Seed: 1}
	_, err := ex.Execute(p, tr, te)
	var re *RuntimeError
	if !errors.As(err, &re) || re.Code != ErrTaskMismatch {
		t.Fatalf("want E_TASK_MISMATCH, got %v", err)
	}
}

func TestExecuteRegression(t *testing.T) {
	n := 800
	rng := rand.New(rand.NewSource(9))
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = 3*x[i] + 1 + rng.NormFloat64()*0.1
	}
	tb := data.NewTable("r")
	tb.MustAddColumn(data.NewNumeric("x", x))
	tb.MustAddColumn(data.NewNumeric("y", y))
	tr, te := split(tb, 7)
	p := mustParse(t, "pipeline \"reg\"\ntrain model=gbm target=\"y\" rounds=30\n")
	ex := &Executor{Target: "y", Task: data.Regression, Seed: 1}
	res, err := ex.Execute(p, tr, te)
	if err != nil {
		t.Fatal(err)
	}
	if res.TestR2 < 90 {
		t.Fatalf("regression R2 = %g", res.TestR2)
	}
	if res.Metric != "r2" {
		t.Fatal("metric must be r2")
	}
}

func TestRebalanceEqualizesClasses(t *testing.T) {
	n := 300
	x := make([]float64, n)
	y := make([]string, n)
	for i := 0; i < n; i++ {
		x[i] = float64(i)
		if i < 270 {
			y[i] = "big"
		} else {
			y[i] = "small"
		}
	}
	tb := data.NewTable("t")
	tb.MustAddColumn(data.NewNumeric("x", x))
	tb.MustAddColumn(data.NewString("y", y))
	if err := rebalanceADASYN(tb, "y", 1); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	c := tb.Col("y")
	for i := 0; i < c.Len(); i++ {
		counts[c.Str(i)]++
	}
	if counts["small"] < 100 {
		t.Fatalf("minority after rebalance = %d", counts["small"])
	}
}

func TestSplitCompositeOp(t *testing.T) {
	tb := data.NewTable("t")
	tb.MustAddColumn(data.NewString("addr", []string{"7050 CA", "TX 7871", "CA 9000"}))
	tb.MustAddColumn(data.NewNumeric("y", []float64{1, 2, 3}))
	tr := tb.Clone()
	te := tb.Clone()
	p := mustParse(t, "pipeline \"x\"\nsplit_composite \"addr\" into=state,zip\nonehot \"state\"\nonehot \"zip\"\ntrain model=knn target=\"y\" k=1\n")
	ex := &Executor{Target: "y", Task: data.Regression, Seed: 1}
	if _, err := ex.Execute(p, tr, te); err != nil {
		t.Fatal(err)
	}
	// Verify via the low-level op too.
	tb2 := tb.Clone()
	if err := SplitComposite(tb2, "addr", "state", "zip"); err != nil {
		t.Fatal(err)
	}
	if tb2.Col("state").Str(0) != "CA" || tb2.Col("zip").Str(0) != "7050" {
		t.Fatalf("split wrong: %v %v", tb2.Col("state").StrsView(), tb2.Col("zip").StrsView())
	}
	if tb2.Col("state").Str(1) != "TX" || tb2.Col("zip").Str(1) != "7871" {
		t.Fatal("order-insensitive split failed")
	}
}

func TestExtractTokenOp(t *testing.T) {
	c := data.NewString("s", []string{"about alpha", "roughly bravo or so", "congo (confirmed)"})
	ExtractTokens(c)
	want := []string{"alpha", "bravo", "congo"}
	for i, w := range want {
		if c.Str(i) != w {
			t.Fatalf("extract[%d] = %q, want %q", i, c.Str(i), w)
		}
	}
}

func TestDedupMappingCollapsesVariants(t *testing.T) {
	c := data.NewString("g", []string{"Female", "female", "FEMALE", " female", "Male", "male", "Female"})
	m := DedupMapping(c)
	canon := m["Female"]
	for _, raw := range []string{"female", "FEMALE", " female"} {
		if m[raw] != canon {
			t.Fatalf("variant %q maps to %q, want %q", raw, m[raw], canon)
		}
	}
	if m["Male"] == canon {
		t.Fatal("distinct categories must not merge")
	}
}

func TestDropConstantAndSparse(t *testing.T) {
	n := 100
	tb := data.NewTable("t")
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i % 7)
	}
	tb.MustAddColumn(data.NewNumeric("x", x))
	konst := make([]string, n)
	for i := range konst {
		konst[i] = "k"
	}
	tb.MustAddColumn(data.NewString("konst", konst))
	sparse := data.NewNumeric("sparse", make([]float64, n))
	for i := 0; i < n-1; i++ {
		sparse.SetMissing(i)
	}
	tb.MustAddColumn(sparse)
	good := make([]float64, n)
	for i := range good {
		good[i] = float64(i % 5)
	}
	tb.MustAddColumn(data.NewNumeric("good", good))
	y := make([]string, n)
	for i := range y {
		y[i] = []string{"a", "b"}[i%2]
	}
	tb.MustAddColumn(data.NewString("y", y))
	tr, te := split(tb, 7)
	p := mustParse(t, "pipeline \"x\"\ndrop_constant\ndrop_sparse threshold=0.05\nimpute_all\ntrain model=naive_bayes target=\"y\"\n")
	ex := &Executor{Target: "y", Task: data.Binary, Seed: 1}
	res, err := ex.Execute(p, tr, te)
	if err != nil {
		t.Fatal(err)
	}
	// x + good survive ("konst" constant, "sparse" sparse).
	if res.Features != 2 {
		t.Fatalf("features = %d, want 2", res.Features)
	}
}

func TestSelectTopKKeepsInformative(t *testing.T) {
	n := 400
	rng := rand.New(rand.NewSource(10))
	inf := make([]float64, n)
	noise := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		inf[i] = rng.NormFloat64()
		noise[i] = rng.NormFloat64()
		y[i] = inf[i] * 5
	}
	tb := data.NewTable("t")
	tb.MustAddColumn(data.NewNumeric("noise", noise))
	tb.MustAddColumn(data.NewNumeric("inf", inf))
	tb.MustAddColumn(data.NewNumeric("y", y))
	tr, te := split(tb, 7)
	p := mustParse(t, "pipeline \"x\"\nselect_topk k=1\ntrain model=linear_regression target=\"y\"\n")
	ex := &Executor{Target: "y", Task: data.Regression, Seed: 1}
	res, err := ex.Execute(p, tr, te)
	if err != nil {
		t.Fatal(err)
	}
	if res.Features != 1 {
		t.Fatalf("features = %d", res.Features)
	}
	if res.TestR2 < 90 {
		t.Fatalf("top-k kept the wrong feature (R2=%g)", res.TestR2)
	}
}

func TestHashEncodeAndOrdinal(t *testing.T) {
	tb := data.NewTable("t")
	tb.MustAddColumn(data.NewString("c", []string{"a", "b", "c", "a"}))
	tb.MustAddColumn(data.NewNumeric("y", []float64{1, 2, 3, 4}))
	tr, te := tb.Clone(), tb.Clone()
	p := mustParse(t, "pipeline \"x\"\nhash_encode \"c\" buckets=8\ntrain model=knn target=\"y\" k=1\n")
	ex := &Executor{Target: "y", Task: data.Regression, Seed: 1}
	if _, err := ex.Execute(p, tr, te); err != nil {
		t.Fatal(err)
	}
	tr2, te2 := tb.Clone(), tb.Clone()
	p2 := mustParse(t, "pipeline \"x\"\nordinal \"c\"\ntrain model=knn target=\"y\" k=1\n")
	if _, err := ex.Execute(p2, tr2, te2); err != nil {
		t.Fatal(err)
	}
}

func TestOneHotUnseenTestCategory(t *testing.T) {
	tr := data.NewTable("tr")
	tr.MustAddColumn(data.NewString("c", []string{"a", "b", "a", "b"}))
	tr.MustAddColumn(data.NewString("y", []string{"x", "z", "x", "z"}))
	te := data.NewTable("te")
	te.MustAddColumn(data.NewString("c", []string{"a", "NEW"}))
	te.MustAddColumn(data.NewString("y", []string{"x", "z"}))
	p := mustParse(t, "pipeline \"x\"\nonehot \"c\"\ntrain model=naive_bayes target=\"y\"\n")
	ex := &Executor{Target: "y", Task: data.Binary, Seed: 1}
	if _, err := ex.Execute(p, tr, te); err != nil {
		t.Fatal(err) // unseen category encodes to all-zeros, no crash
	}
}

func TestClipOutliersBoundsFromTrain(t *testing.T) {
	n := 200
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i % 10)
	}
	vals[0] = 1e6 // extreme outlier
	tb := data.NewTable("t")
	tb.MustAddColumn(data.NewNumeric("x", vals))
	y := make([]float64, n)
	copy(y, vals)
	tb.MustAddColumn(data.NewNumeric("y", y))
	tr, te := tb.Clone(), tb.Clone()
	p := mustParse(t, "pipeline \"x\"\nclip_outliers \"x\" method=iqr factor=1.5\ntrain model=knn target=\"y\" k=3\n")
	ex := &Executor{Target: "y", Task: data.Regression, Seed: 1}
	if _, err := ex.Execute(p, tr, te); err != nil {
		t.Fatal(err)
	}
}

func TestDirtyTargetHurtsAccuracy(t *testing.T) {
	// When the target has messy duplicate labels, exact-match accuracy is
	// low; after dedup of the target it recovers — the EU-IT pathology.
	n := 600
	rng := rand.New(rand.NewSource(11))
	x := make([]float64, n)
	y := make([]string, n)
	for i := 0; i < n; i++ {
		c := i % 2
		x[i] = float64(c)*3 + rng.NormFloat64()*0.3
		base := []string{"engineer", "manager"}[c]
		y[i] = []string{base, strings.ToUpper(base), " " + base}[rng.Intn(3)]
	}
	tb := data.NewTable("t")
	tb.MustAddColumn(data.NewNumeric("x", x))
	tb.MustAddColumn(data.NewString("y", y))
	tr, te := split(tb, 7)

	ex := &Executor{Target: "y", Task: data.Multiclass, Seed: 1}
	dirty := mustParse(t, "pipeline \"d\"\ntrain model=random_forest target=\"y\" trees=10\n")
	resDirty, err := ex.Execute(dirty, tr, te)
	if err != nil {
		t.Fatal(err)
	}
	clean := mustParse(t, "pipeline \"c\"\ndedup_values \"y\"\ntrain model=random_forest target=\"y\" trees=10\n")
	resClean, err := ex.Execute(clean, tr, te)
	if err != nil {
		t.Fatal(err)
	}
	if resClean.TestAcc <= resDirty.TestAcc+10 {
		t.Fatalf("dedup target should lift accuracy substantially: dirty=%g clean=%g",
			resDirty.TestAcc, resClean.TestAcc)
	}
}
