package pipescript

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"catdb/internal/data"
)

// These suites are named for the statement DAG they used to check
// against a linear reference. The DAG is gone and statements run one at
// a time in program order, so the axis that stays is the worker count,
// which bounds the model fits and inference: the reference is the
// one-worker run, and every other count must reproduce it.

// dagWorkerCounts are the pool sizes every equivalence test sweeps.
var dagWorkerCounts = []int{1, 2, 4, 8}

// setProcs sets GOMAXPROCS to n until tb ends (for a benchmark, outside
// its timer). The pool sizes the model fits and inference from
// GOMAXPROCS, so this is how a test or benchmark picks its worker count.
func setProcs(tb testing.TB, n int) {
	prev := runtime.GOMAXPROCS(n)
	tb.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// execBothWays runs the program with one worker and then at every
// worker count, requiring bit-identical results and errors.
func execBothWays(t *testing.T, src string, tr, te *data.Table, target string, task data.Task) (*Result, error) {
	t.Helper()
	p := mustParse(t, src)
	setProcs(t, 1)
	ref := &Executor{Target: target, Task: task, Seed: 1, AllowNoTrain: true}
	wantRes, wantErr := ref.Execute(p, tr, te)
	for _, w := range dagWorkerCounts {
		setProcs(t, w)
		ex := &Executor{Target: target, Task: task, Seed: 1, AllowNoTrain: true}
		gotRes, gotErr := ex.Execute(p, tr, te)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("workers=%d: reference err=%v got err=%v", w, wantErr, gotErr)
		}
		if wantErr != nil {
			if wantErr.Error() != gotErr.Error() {
				t.Fatalf("workers=%d: error mismatch\nreference: %v\ngot:       %v", w, wantErr, gotErr)
			}
			continue
		}
		a, b := *wantRes, *gotRes
		a.Program, b.Program = nil, nil
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("workers=%d: result mismatch\nreference: %+v\ngot:       %+v", w, a, b)
		}
	}
	return wantRes, wantErr
}

func TestDAGMatchesLinearWidePipeline(t *testing.T) {
	tr, te := split(messyTable(600, 1), 7)
	for _, task := range []data.Task{data.Binary, data.Multiclass} {
		res, err := execBothWays(t, `pipeline "wide"
impute "num" strategy=median
dedup_values "cat"
onehot "cat"
khot "lst"
winsorize "num" lower=0.05 upper=0.95
log_transform "num"
scale "num" method=standard
train model=random_forest target="y" trees=15
evaluate metric=auto
`, tr, te, "y", task)
		if err != nil {
			t.Fatal(err)
		}
		if res.TestAUC <= 0 {
			t.Fatalf("%v: expected a trained model, got %+v", task, res)
		}
	}
}

func TestDAGMatchesLinearEncodersAndBarriers(t *testing.T) {
	tr, te := split(messyTable(500, 3), 5)
	execBothWays(t, `pipeline "mixed"
dedup_values "cat"
hash_encode "cat" buckets=16
impute "num" strategy=mean
impute_all strategy=auto
bin_numeric "num" bins=4
clip_outliers "num" method=iqr factor=2.0
remove_outliers "num" method=iqr factor=4.0
drop_constant
train model=gbm target="y" rounds=8
`, tr, te, "y", data.Multiclass)
}

func TestDAGMatchesLinearRegression(t *testing.T) {
	n := 400
	rng := rand.New(rand.NewSource(9))
	a := make([]float64, n)
	b := make([]float64, n)
	addr := make([]string, n)
	y := make([]float64, n)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.Float64() * 10
		addr[i] = fmt.Sprintf("%d zone%d", 100+i%90, i%4)
		y[i] = 3*a[i] - b[i] + rng.NormFloat64()*0.1
	}
	tab := data.NewTable("reg")
	tab.MustAddColumn(data.NewNumeric("a", a))
	tab.MustAddColumn(data.NewNumeric("b", b))
	tab.MustAddColumn(data.NewString("addr", addr))
	tab.MustAddColumn(data.NewNumeric("y", y))
	tr, te := split(tab, 11)
	execBothWays(t, `pipeline "reg"
split_composite "addr"
ordinal "addr_part"
target_encode "addr_num"
interaction "a" "b" op=product
log_transform "b"
scale "a" method=minmax
train model=linear_regression target="y"
`, tr, te, "y", data.Regression)
}

// Copy-on-write view inputs: SelectRows hands out row-mapped views that
// share slabs with the source. Every write must promote privately, so
// the source table is untouched and results match the reference.
func TestDAGMatchesLinearOnCoWViews(t *testing.T) {
	source := messyTable(700, 6)
	rows := make([]int, 0, 500)
	for i := 0; i < 500; i++ {
		rows = append(rows, (i*7)%700)
	}
	tr, te := split(source.SelectRows(rows), 13)
	execBothWays(t, `pipeline "cow"
impute "num" strategy=median
dedup_values "cat"
onehot "cat"
scale "num" method=standard
train model=naive_bayes target="y"
`, tr, te, "y", data.Multiclass)
	// The shared source must not have absorbed any pipeline writes.
	if source.Col("num").MissingCount() == 0 {
		t.Fatal("source table mutated: injected missing cells disappeared")
	}
	if source.Col("cat").DistinctCount() <= 3 {
		t.Fatal("source table mutated: dirty categories were deduplicated in place")
	}
}

// Errors must surface identically: messages embed the live column
// count, and when several statements would fail the lowest line wins.
func TestDAGMatchesLinearErrors(t *testing.T) {
	for _, src := range []string{
		"pipeline \"e\"\nimpute \"nope\" strategy=median\ntrain target=\"y\"\n",
		"pipeline \"e\"\nscale \"cat\"\nscale \"lst\"\ntrain target=\"y\"\n",
		"pipeline \"e\"\nonehot \"cat\"\nscale \"lst\" method=standard\nkhot \"num\"\ntrain target=\"y\"\n",
		"pipeline \"e\"\nrequire \"pandas\"\nimpute \"num\"\ntrain target=\"y\"\n",
		"pipeline \"e\"\ndrop \"y\"\ntrain target=\"y\"\n",
	} {
		tr, te := split(messyTable(200, 2), 3)
		if _, err := execBothWays(t, src, tr, te, "y", data.Multiclass); err == nil {
			t.Fatalf("expected an error from %q", src)
		}
	}
}

// The one-hot feature-cap check must fire with the same error at the
// same line at every worker count.
func TestDAGMatchesLinearFeatureCap(t *testing.T) {
	n := 6000 // 0.7 split keeps 4200 distinct categories, over the 4096 cap
	vals := make([]string, n)
	num := make([]float64, n)
	y := make([]string, n)
	for i := range vals {
		vals[i] = fmt.Sprintf("cat_%04d", i) // all distinct
		num[i] = float64(i % 7)
		y[i] = []string{"a", "b"}[i%2]
	}
	tab := data.NewTable("cap")
	tab.MustAddColumn(data.NewString("wide", vals))
	tab.MustAddColumn(data.NewNumeric("num", num))
	tab.MustAddColumn(data.NewString("y", y))
	tr, te := split(tab, 1)
	_, err := execBothWays(t, `pipeline "cap"
impute "num" strategy=median
onehot "wide" max_categories=5000
train target="y"
`, tr, te, "y", data.Binary)
	if err == nil || !strings.Contains(err.Error(), "would exceed") {
		t.Fatalf("expected the feature-cap error, got %v", err)
	}
}

// Fitted artifacts must serialize byte-identically at every worker
// count: step order is the statement order.
func TestDAGFitArtifactIdentical(t *testing.T) {
	src := `pipeline "fit"
impute "num" strategy=median
dedup_values "cat"
onehot "cat"
khot "lst"
scale "num" method=standard
train model=random_forest target="y" trees=10
`
	p := mustParse(t, src)
	tr, te := split(messyTable(400, 5), 9)
	setProcs(t, 1)
	ref := &Executor{Target: "y", Task: data.Multiclass, Seed: 2}
	_, wantFP, err := ref.Fit(p, tr, te)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(wantFP)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range dagWorkerCounts {
		setProcs(t, w)
		ex := &Executor{Target: "y", Task: data.Multiclass, Seed: 2}
		_, gotFP, err := ex.Fit(p, tr, te)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(gotFP)
		if err != nil {
			t.Fatal(err)
		}
		if string(want) != string(got) {
			t.Fatalf("workers=%d: artifact differs\nreference: %s\ngot:       %s", w, want, got)
		}
	}
}

// Randomized programs over a mixed-type table must reproduce the
// one-worker run (results and errors) at every worker count, whatever
// the program shape. The table comes in two kinds: with gamma and delta
// as strings, where almost no program reaches train, and as numeric
// codes, where most do. Every program that fits must also serve (see
// servesAsCaptured), which drives the table's name index through random
// onehot, drop, hash_encode and drop_constant sequences.
func TestDAGPropertyRandomPrograms(t *testing.T) {
	fits, refused := map[bool]int{}, 0
	for _, strs := range []bool{true, false} {
		for seed := int64(0); seed < 40; seed++ {
			rng := rand.New(rand.NewSource(seed))
			src := genProgram(rng)
			tr, te := propTables(strs)
			name := fmt.Sprintf("seed%d", seed)
			if !strs {
				name = "codes/" + name
			}
			t.Run(name, func(t *testing.T) {
				if _, err := execBothWays(t, src, tr, te, "y", data.Binary); err == nil {
					fits[strs]++
					refused += servesAsCaptured(t, src, tr, te)
				}
			})
		}
	}
	t.Logf("programs that fit: %d of 40 on strings, %d of 40 on codes; %d test rows refused with %s",
		fits[true], fits[false], refused, ErrFeatureNaN)
	if fits[false] == 0 {
		t.Fatal("no program over the coded table reached a fit")
	}
}

// servesAsCaptured fits src, saves and loads the artifact, and requires
// it to predict te's rows bit for bit as the executor's capture did, row
// by row and then as one batch. Rows that Predict refuses with
// E_FEATURE_NAN (a gap the program imputes only where train had one) are
// left out of the batch, as e2ebench leaves them out of serving; it
// returns how many there were.
func servesAsCaptured(t *testing.T, src string, tr, te *data.Table) int {
	t.Helper()
	res, fp := fitRoundTrip(t, &Executor{Target: "y", Task: data.Binary, Seed: 1}, src, tr, te)
	rows := te.Clone()
	rows.DropColumn("y")
	same := func(p *Predictions, i, k int) bool {
		return math.Float64bits(p.Values[k]) == math.Float64bits(res.TestPredictions[i]) &&
			p.Labels[k] == res.TestLabels[i] && reflect.DeepEqual(p.Proba[k], res.TestProba[i])
	}
	var keep []int
	for i := 0; i < rows.NumRows(); i++ {
		p, err := fp.Predict(rows.SelectRows([]int{i}))
		var ae *ArtifactError
		if errors.As(err, &ae) && ae.Code == ErrFeatureNaN {
			continue
		}
		if err != nil {
			t.Fatalf("row %d: %v\n%s", i, err, src)
		}
		if !same(p, i, 0) {
			t.Fatalf("row %d: served %v %v, captured %v %v\n%s", i, p.Values, p.Proba,
				res.TestPredictions[i], res.TestProba[i], src)
		}
		keep = append(keep, i)
	}
	if len(keep) == 0 {
		return rows.NumRows()
	}
	// Without the label the transformed batch is the features in order;
	// with it, Predict resolves them by name. Both must serve the capture.
	for _, batch := range []*data.Table{rows.SelectRows(keep), te.SelectRows(keep)} {
		p, err := fp.Predict(batch)
		if err != nil {
			t.Fatalf("batch of %d servable rows: %v\n%s", len(keep), err, src)
		}
		for k, i := range keep {
			if !same(p, i, k) {
				t.Fatalf("batch row %d: served %v, captured %v\n%s", i, p.Values[k], res.TestPredictions[i], src)
			}
		}
	}
	return rows.NumRows() - len(keep)
}

// propTables is the mixed-type binary table genProgram's programs run
// on, split 70/30: a numeric column with gaps, a low-cardinality numeric
// column and two categorical columns, gamma and delta. With strs they
// are strings; without, they hold their categories as numeric codes, as
// fuzzTables builds them.
func propTables(strs bool) (*data.Table, *data.Table) {
	n := 240
	rng := rand.New(rand.NewSource(42))
	alpha := make([]float64, n)
	beta := make([]float64, n)
	gamma := make([]string, n)
	delta := make([]string, n)
	y := make([]string, n)
	for i := 0; i < n; i++ {
		alpha[i] = rng.NormFloat64()
		beta[i] = float64(i % 5)
		gamma[i] = []string{"x", "y", "z"}[i%3]
		delta[i] = []string{"p", "q"}[i%2]
		y[i] = []string{"no", "yes"}[i%2]
	}
	tab := data.NewTable("prop")
	tab.MustAddColumn(data.NewNumeric("alpha", alpha))
	tab.MustAddColumn(data.NewNumeric("beta", beta))
	if strs {
		tab.MustAddColumn(data.NewString("gamma", gamma))
		tab.MustAddColumn(data.NewString("delta", delta))
	} else {
		tab.MustAddColumn(data.NewNumeric("gamma", codes(gamma)))
		tab.MustAddColumn(data.NewNumeric("delta", codes(delta)))
	}
	tab.MustAddColumn(data.NewString("y", y))
	for i := 0; i < n; i += 13 {
		tab.Col("alpha").SetMissing(i)
	}
	return split(tab, 17)
}

// TestOpTableComplete pins the optable contract: every parseable op is
// registered with its parser arity and a handler.
func TestOpTableComplete(t *testing.T) {
	if len(knownOps) == 0 || len(knownOps) != len(opRegistry) {
		t.Fatalf("knownOps (%d) and opRegistry (%d) out of sync", len(knownOps), len(opRegistry))
	}
	for name, minArgs := range knownOps {
		spec := opRegistry[name]
		if spec == nil {
			t.Fatalf("op %q parseable but unregistered", name)
		}
		if spec.minArgs != minArgs {
			t.Fatalf("op %q: arity mismatch (%d vs %d)", name, spec.minArgs, minArgs)
		}
		if spec.exec == nil {
			t.Fatalf("op %q has no handler", name)
		}
	}
}
