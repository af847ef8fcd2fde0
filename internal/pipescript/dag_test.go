package pipescript

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"catdb/internal/data"
	"catdb/internal/obs"
)

// dagWorkerCounts are the pool sizes every equivalence test sweeps.
var dagWorkerCounts = []int{1, 2, 4, 8}

// execBothWays runs the program through the linear reference and then
// through the default executor at every worker count, requiring
// bit-identical results and errors.
func execBothWays(t *testing.T, src string, tr, te *data.Table, target string, task data.Task) (*Result, error) {
	t.Helper()
	p := mustParse(t, src)
	refReg := obs.NewRegistry()
	lin := &Executor{Target: target, Task: task, Seed: 1, AllowNoTrain: true, linear: true, Metrics: refReg}
	wantRes, wantErr := lin.Execute(p, tr, te)
	for _, w := range dagWorkerCounts {
		reg := obs.NewRegistry()
		dag := &Executor{Target: target, Task: task, Seed: 1, AllowNoTrain: true, Workers: w, Metrics: reg}
		gotRes, gotErr := dag.Execute(p, tr, te)
		checkScheduling(t, fmt.Sprintf("workers=%d", w), p, refReg, reg, gotErr)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("workers=%d: linear err=%v dag err=%v", w, wantErr, gotErr)
		}
		if wantErr != nil {
			if wantErr.Error() != gotErr.Error() {
				t.Fatalf("workers=%d: error mismatch\nlinear: %v\ndag:    %v", w, wantErr, gotErr)
			}
			continue
		}
		a, b := *wantRes, *gotRes
		a.Program, b.Program = nil, nil
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("workers=%d: result mismatch\nlinear: %+v\ndag:    %+v", w, a, b)
		}
	}
	return wantRes, wantErr
}

// checkScheduling keeps the equivalence oracle from comparing the DAG
// with itself: the reference run must have scheduled no segment, and
// the default run must have scheduled one whenever it reached a segment
// of more than one statement.
func checkScheduling(t *testing.T, label string, p *Program, ref, got *obs.Registry, gotErr error) {
	t.Helper()
	if n := scheduledSegments(ref); n != 0 {
		t.Fatalf("%s: linear reference scheduled %d segment(s)", label, n)
	}
	if reachesMultiStmtSegment(p, gotErr) && scheduledSegments(got) == 0 {
		t.Fatalf("%s: default run scheduled no segment", label)
	}
}

// scheduledSegments is catdb_dag_segments_total summed over its modes.
func scheduledSegments(reg *obs.Registry) int64 {
	return reg.Counter("catdb_dag_segments_total", "mode", "parallel").Value() +
		reg.Counter("catdb_dag_segments_total", "mode", "linear").Value()
}

// reachesMultiStmtSegment reports whether an execution that ended with
// err started a segment of more than one statement: a failing statement
// stops execution at its line, so only segments starting at or before
// that line ran.
func reachesMultiStmtSegment(p *Program, err error) bool {
	last := math.MaxInt
	var re *RuntimeError
	if errors.As(err, &re) {
		last = re.Line
	}
	for _, seg := range segmentProgram(p, false) {
		if len(seg.stmts) > 1 && seg.stmts[0].Line <= last {
			return true
		}
	}
	return false
}

func TestDAGMatchesLinearWidePipeline(t *testing.T) {
	tr, te := split(messyTable(600, 1), 7)
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
`, tr, te, "y", data.Binary)
	if err != nil {
		t.Fatal(err)
	}
	if res.TestAUC <= 0 {
		t.Fatalf("expected a trained model, got %+v", res)
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
drop_constant
train model=gbm target="y" rounds=8
`, tr, te, "y", data.Multiclass)
}

func TestDAGMatchesLinearRegression(t *testing.T) {
	n := 400
	rng := rand.New(rand.NewSource(9))
	a := make([]float64, n)
	b := make([]float64, n)
	y := make([]float64, n)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.Float64() * 10
		y[i] = 3*a[i] - b[i] + rng.NormFloat64()*0.1
	}
	tab := data.NewTable("reg")
	tab.MustAddColumn(data.NewNumeric("a", a))
	tab.MustAddColumn(data.NewNumeric("b", b))
	tab.MustAddColumn(data.NewNumeric("y", y))
	tr, te := split(tab, 11)
	execBothWays(t, `pipeline "reg"
interaction "a" "b" op=product
log_transform "b"
scale "a" method=minmax
train model=linear_regression target="y"
`, tr, te, "y", data.Regression)
}

// Errors must surface identically: unknown columns force the segment
// onto the linear path (so messages embed the live column count), and
// when several branches fail the lowest-line error wins.
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

// The deferred one-hot feature-cap check must fire with the same error
// at the same line as the linear immediate check.
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

// Fitted artifacts must serialize byte-identically whichever way the
// pipeline executed: step order is the statement order, not the
// completion order.
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
	lin := &Executor{Target: "y", Task: data.Multiclass, Seed: 2, linear: true}
	_, wantFP, err := lin.Fit(p, tr, te)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(wantFP)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range dagWorkerCounts {
		dag := &Executor{Target: "y", Task: data.Multiclass, Seed: 2, Workers: w}
		_, gotFP, err := dag.Fit(p, tr, te)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(gotFP)
		if err != nil {
			t.Fatal(err)
		}
		if string(want) != string(got) {
			t.Fatalf("workers=%d: artifact differs\nlinear: %s\ndag:    %s", w, want, got)
		}
	}
}

// Randomized programs over a mixed-type table: DAG scheduling must
// reproduce linear execution (results and errors) at every worker
// count, whatever the program shape.
func TestDAGPropertyRandomPrograms(t *testing.T) {
	mk := func() (*data.Table, *data.Table) {
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
		tab.MustAddColumn(data.NewString("gamma", gamma))
		tab.MustAddColumn(data.NewString("delta", delta))
		tab.MustAddColumn(data.NewString("y", y))
		for i := 0; i < n; i += 13 {
			tab.Col("alpha").SetMissing(i)
		}
		return split(tab, 17)
	}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		src := genProgram(rng)
		tr, te := mk()
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			execBothWays(t, src, tr, te, "y", data.Binary)
		})
	}
}

// The scheduler's structural counters (nodes, waves, segments) are a
// property of the DAG, not of the pool size: they must be identical at
// every worker count.
func TestDAGMetricsDeterministic(t *testing.T) {
	src := `pipeline "m"
impute "num" strategy=median
dedup_values "cat"
onehot "cat"
khot "lst"
scale "num" method=standard
train model=naive_bayes target="y"
`
	p := mustParse(t, src)
	counters := func(w int) map[string]int64 {
		tr, te := split(messyTable(300, 4), 5)
		reg := obs.NewRegistry()
		ex := &Executor{Target: "y", Task: data.Multiclass, Seed: 1, Workers: w, Metrics: reg}
		if _, err := ex.Execute(p, tr, te); err != nil {
			t.Fatal(err)
		}
		return map[string]int64{
			"nodes_impute":  reg.Counter("catdb_dag_nodes_total", "op", "impute").Value(),
			"nodes_onehot":  reg.Counter("catdb_dag_nodes_total", "op", "onehot").Value(),
			"waves":         reg.Counter("catdb_dag_waves_total").Value(),
			"seg_parallel":  reg.Counter("catdb_dag_segments_total", "mode", "parallel").Value(),
			"seg_linear":    reg.Counter("catdb_dag_segments_total", "mode", "linear").Value(),
			"execs":         reg.Counter("catdb_pipescript_execs_total").Value(),
			"nodes_scale":   reg.Counter("catdb_dag_nodes_total", "op", "scale").Value(),
			"nodes_dedup":   reg.Counter("catdb_dag_nodes_total", "op", "dedup_values").Value(),
			"nodes_khot":    reg.Counter("catdb_dag_nodes_total", "op", "khot").Value(),
			"nodes_missing": reg.Counter("catdb_dag_nodes_total", "op", "train").Value(), // train is a barrier: never a node
		}
	}
	want := counters(1)
	if want["nodes_onehot"] != 1 || want["seg_parallel"] != 1 || want["nodes_missing"] != 0 {
		t.Fatalf("unexpected baseline counters: %+v", want)
	}
	for _, w := range dagWorkerCounts[1:] {
		if got := counters(w); !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: counters diverge\nwant %+v\ngot  %+v", w, want, got)
		}
	}
}

// TestOpTableComplete pins the optable contract: every parseable op is
// registered with a handler and either a footprint, a barrier rule, or
// an explicit pure marker — the properties the DAG builder relies on.
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
		if !spec.pure && spec.refs == nil && spec.barrier == nil {
			t.Fatalf("op %q declares neither refs nor barrier", name)
		}
	}
}

// Golden for the DAG topology rendering of a representative pipeline.
func TestDAGRenderGolden(t *testing.T) {
	p := mustParse(t, `pipeline "demo"
impute "num" strategy=median
dedup_values "cat"
onehot "cat"
scale "num" method=standard
impute_all strategy=auto
hash_encode "cat2" buckets=8
interaction "num" "num2" op=product
train model=random_forest target="y" trees=20
`)
	got := RenderDAG(p, []string{"num", "num2", "cat", "cat2", "y"}, "y")
	want := `dag "demo": 9 statement(s), 2 segment(s)
segment 1: parallel (5 node(s), 2 wave(s))
  wave 1:
    [line 1] pipeline demo
    [line 2] impute num strategy=median
    [line 3] dedup_values cat
  wave 2:
    [line 4] onehot cat  <- line 3 (cat)
    [line 5] scale num method=standard  <- line 2 (num)
barrier [line 6] impute_all strategy=auto
segment 2: parallel (2 node(s), 1 wave(s))
  wave 1:
    [line 7] hash_encode cat2 buckets=8
    [line 8] interaction num num2 op=product
barrier [line 9] train model=random_forest target=y trees=20
`
	if got != want {
		t.Fatalf("render mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
