package pipescript

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"catdb/internal/data"
	"catdb/internal/ml"
)

// Executor.Check runs a program as Execute does but trains the cheapest
// model of the requested kind. These tests pin what it builds and that
// its outcome is always Execute's.

// modelNames is every model name either builder accepts, plus one that
// neither does.
var modelNames = []string{"random_forest", "extra_trees", "decision_tree", "gbm", "gradient_boosting",
	"logistic_regression", "svm", "linear_regression", "ridge", "knn", "naive_bayes", "tabpfn", "no_such_model"}

// sizeKey names the option that sets a model's size, or "" for a model
// without one.
func sizeKey(model string) string {
	switch model {
	case "random_forest", "extra_trees":
		return "trees"
	case "gbm", "gradient_boosting":
		return "rounds"
	case "logistic_regression", "svm", "linear_regression", "ridge":
		return "epochs"
	}
	return ""
}

// sizeCases are the size options every model is tried with: absent,
// zero, negative, not a number, and given.
var sizeCases = []string{"", "0", "-3", "many", "7"}

// trainLine renders a train statement for model with its size option set
// to size ("" leaves it out).
func trainLine(model, size string) string {
	line := fmt.Sprintf("train model=%s target=%q depth=5 k=3", model, "y")
	if k := sizeKey(model); k != "" && size != "" {
		line += fmt.Sprintf(" %s=%s", k, size)
	}
	return line + "\n"
}

// checkTask is a task with the tables and the preprocessing that leave
// a train statement nothing to refuse but its model.
type checkTask struct {
	task   data.Task
	tr, te *data.Table
	prep   string
}

// checkTasks exercises the classification and the regression builder.
func checkTasks() []checkTask {
	ctr, cte := split(messyTable(240, 4), 3)
	rtr, rte := split(messyRegTable(240, 4), 3)
	return []checkTask{
		{data.Multiclass, ctr, cte, "impute \"num\" strategy=median\nonehot \"cat\"\ndrop \"lst\"\n"},
		{data.Regression, rtr, rte, "impute \"num\" strategy=median\nonehot \"cat\"\n"},
	}
}

// recordedModel runs p through run with an artifact being recorded, as
// Fit does, and returns the dump of the model train built (nil when the
// run failed).
func recordedModel(t *testing.T, ex *Executor, run func(*Program, *data.Table, *data.Table) error,
	p *Program, tr, te *data.Table) *ml.FittedModel {
	t.Helper()
	ex.record = &FittedPipeline{}
	defer func() { ex.record = nil }()
	if err := run(p, tr, te); err != nil {
		return nil
	}
	return ex.record.Model
}

// TestCheckBuildsCheapestModels pins what Check trains: for a sized model
// exactly the model Execute trains when the program asks for one tree,
// round or epoch (so every other setting is Execute's), and for any
// other model exactly Execute's. The dumps of a fitted model are a
// function of its configuration and data, so comparing them compares
// configurations.
func TestCheckBuildsCheapestModels(t *testing.T) {
	for _, tc := range checkTasks() {
		for _, model := range modelNames {
			for _, size := range sizeCases {
				ex := &Executor{Target: "y", Task: tc.task, Seed: 5, Workers: 2}
				execute := func(p *Program, tr, te *data.Table) error {
					_, err := ex.Execute(p, tr, te)
					return err
				}
				p := mustParse(t, "pipeline \"cheap\"\n"+tc.prep+trainLine(model, size))
				got := recordedModel(t, ex, ex.Check, p, tc.tr, tc.te)
				full := recordedModel(t, ex, execute, p, tc.tr, tc.te)
				name := fmt.Sprintf("%v/%s/size=%q", tc.task, model, size)
				if (got == nil) != (full == nil) {
					t.Fatalf("%s: Check built %v, Execute built %v", name, got != nil, full != nil)
				}
				if got == nil {
					continue // a model this builder refuses: TestCheckMatchesExecute compares the errors
				}
				if sizeKey(model) == "" {
					if !reflect.DeepEqual(got, full) {
						t.Fatalf("%s: Check built a different model than Execute", name)
					}
					continue
				}
				one := recordedModel(t, ex, execute, mustParse(t, "pipeline \"cheap\"\n"+tc.prep+trainLine(model, "1")), tc.tr, tc.te)
				if !reflect.DeepEqual(got, one) {
					t.Fatalf("%s: Check did not build Execute's model with %s=1", name, sizeKey(model))
				}
				if reflect.DeepEqual(got, full) {
					t.Fatalf("%s: Check built the full model", name)
				}
				switch model {
				case "random_forest", "extra_trees":
					if len(got.Trees) != 1 {
						t.Fatalf("%s: Check grew %d trees, want 1", name, len(got.Trees))
					}
				case "gbm", "gradient_boosting":
					chains := got.OVR
					if tc.task == data.Regression {
						chains = [][][]ml.FlatNode{got.Trees}
					}
					for _, chain := range chains {
						if len(chain) != 1 {
							t.Fatalf("%s: Check boosted %d rounds, want 1", name, len(chain))
						}
					}
				}
			}
		}
	}
}

// outcome renders an error for comparison: its full text (code, line and
// message), or "" for success.
func outcome(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkMatchesExecute runs src through Execute and Check on the same
// tables with the same executor settings and requires the same outcome,
// which it returns.
func checkMatchesExecute(t *testing.T, ex Executor, src string, tr, te *data.Table) string {
	t.Helper()
	p := mustParse(t, src)
	full, cheap := ex, ex
	_, want := full.Execute(p, tr, te)
	got := cheap.Check(p, tr, te)
	if outcome(want) != outcome(got) {
		t.Fatalf("Check and Execute disagree on\n%s\nExecute: %v\nCheck:   %v", src, want, got)
	}
	return outcome(want)
}

// TestCheckMatchesExecute requires Check's outcome to be Execute's on
// every model either builder knows, at every kind of size, on both
// tasks, and on every way a train statement can fail.
func TestCheckMatchesExecute(t *testing.T) {
	tasks := checkTasks()
	for _, tc := range tasks {
		ex := Executor{Target: "y", Task: tc.task, Seed: 2}
		for _, model := range modelNames {
			for _, size := range sizeCases {
				checkMatchesExecute(t, ex, "pipeline \"m\"\n"+tc.prep+trainLine(model, size), tc.tr, tc.te)
			}
		}
	}

	ctr, cte, prep := tasks[0].tr, tasks[0].te, tasks[0].prep
	rtr, rte := tasks[1].tr, tasks[1].te
	clf := Executor{Target: "y", Task: data.Multiclass, Seed: 2}
	reg := Executor{Target: "y", Task: data.Regression, Seed: 2}
	bigTr, bigTe := split(messyTable(1800, 4), 3) // 1,260 train rows: over TabPFN's 1,200
	oneTr, oneTe := split(messyTable(240, 4), 3)
	oneTr = oneTr.SelectRows(rowsWhere(oneTr, func(i int) bool { return oneTr.Col("y").ValueString(i) == "mid" }))
	manyTr, manyTe := manyClassTables(1 << 15)
	gapTr, gapTe := split(messyTable(240, 4), 3)
	gapTr.Col("y").SetMissing(4)
	policy := clf
	policy.Policy = &Policy{DisallowedModels: []string{"gbm"}}
	for _, c := range []struct {
		name string
		ex   Executor
		src  string
		tr   *data.Table
		te   *data.Table
		code string
	}{
		{"unknown model", clf, prep + "train model=xgboost target=\"y\" trees=9\n", ctr, cte, ErrUnknownModel},
		{"tabpfn over budget", clf, prep + "train model=tabpfn target=\"y\"\n", bigTr, bigTe, ErrModelOOM},
		{"single-class target", clf, prep + "train model=random_forest target=\"y\" trees=9\n", oneTr, oneTe, ErrEmptyData},
		{"classes over the tree limit", clf, "train model=random_forest target=\"y\" trees=9\n", manyTr, manyTe, ErrBadOption},
		{"one tree over the tree limit", clf, "train model=decision_tree target=\"y\"\n", manyTr, manyTe, ErrBadOption},
		{"string feature", clf, "impute \"num\" strategy=median\ntrain model=gbm target=\"y\" rounds=9\n", ctr, cte, ErrStringInMatrix},
		{"NaN feature", clf, "onehot \"cat\"\ndrop \"lst\"\ntrain model=logistic_regression target=\"y\" epochs=9\n", ctr, cte, ErrNaNInMatrix},
		{"absent target", clf, prep + "train model=extra_trees target=\"nope\" trees=9\n", ctr, cte, ErrTargetMissing},
		{"target with a gap", clf, prep + "train model=svm target=\"y\" epochs=9\n", gapTr, gapTe, ErrNaNInMatrix},
		{"non-numeric regression target", reg, "impute \"num\" strategy=median\ntrain model=ridge target=\"cat\" epochs=9\n", rtr, rte, ErrTypeMismatch},
		{"regression model on classification", clf, prep + "train model=linear_regression target=\"y\"\n", ctr, cte, ErrUnknownModel},
		{"classification model on regression", reg, "impute \"num\" strategy=median\nonehot \"cat\"\ntrain model=naive_bayes target=\"y\"\n", rtr, rte, ErrUnknownModel},
		{"disallowed model", policy, prep + "train model=gbm target=\"y\" rounds=9\n", ctr, cte, ErrPolicy},
	} {
		got := checkMatchesExecute(t, c.ex, "pipeline \"fail\"\n"+c.src, c.tr, c.te)
		if !strings.Contains(got, "["+c.code+"]") {
			t.Errorf("%s: outcome %q, want %s", c.name, got, c.code)
		}
	}

	for seed := int64(0); seed < 40; seed++ {
		tr, te := propTables(true)
		checkMatchesExecute(t, Executor{Target: "y", Task: data.Binary, Seed: 1},
			genProgram(rand.New(rand.NewSource(seed))), tr, te)
	}
}

// rowsWhere lists the rows of t that keep accepts.
func rowsWhere(t *data.Table, keep func(int) bool) []int {
	var rows []int
	for i := 0; i < t.NumRows(); i++ {
		if keep(i) {
			rows = append(rows, i)
		}
	}
	return rows
}

// manyClassTables is a one-feature train table whose n+2 rows each carry
// their own label, with its first rows as the test split. At n = 1<<15
// that is more classes than a tree counts (its int16 class codes).
func manyClassTables(n int) (*data.Table, *data.Table) {
	x := make([]float64, n+2)
	y := make([]string, n+2)
	for i := range y {
		x[i] = float64(i % 7)
		y[i] = fmt.Sprintf("c%d", i)
	}
	tab := data.NewTable("many")
	tab.MustAddColumn(data.NewNumeric("x", x))
	tab.MustAddColumn(data.NewString("y", y))
	return tab, tab.Head(4)
}

// fuzzTables is the tiny table FuzzExecute runs on: propTables' columns
// over 40 rows, with a string label or a numeric target. Without strs,
// gamma and delta hold their categories as numeric codes: with strings,
// almost no generated program reaches train (3 of 200 seeds did), since
// one numeric op on them or one left unencoded fails the run first.
func fuzzTables(regression, strs bool) (*data.Table, *data.Table) {
	n := 40
	rng := rand.New(rand.NewSource(7))
	alpha := make([]float64, n)
	beta := make([]float64, n)
	gamma := make([]string, n)
	delta := make([]string, n)
	tab := data.NewTable("fuzz")
	for i := 0; i < n; i++ {
		alpha[i] = rng.NormFloat64()
		beta[i] = float64(i % 5)
		gamma[i] = []string{"x", "y", "z"}[i%3]
		delta[i] = []string{"p", "q"}[i%2]
	}
	tab.MustAddColumn(data.NewNumeric("alpha", alpha))
	tab.MustAddColumn(data.NewNumeric("beta", beta))
	if strs {
		tab.MustAddColumn(data.NewString("gamma", gamma))
		tab.MustAddColumn(data.NewString("delta", delta))
	} else {
		tab.MustAddColumn(data.NewNumeric("gamma", codes(gamma)))
		tab.MustAddColumn(data.NewNumeric("delta", codes(delta)))
	}
	if regression {
		y := make([]float64, n)
		for i := range y {
			y[i] = 2*beta[i] + rng.NormFloat64()
		}
		tab.MustAddColumn(data.NewNumeric("y", y))
	} else {
		y := make([]string, n)
		for i := range y {
			y[i] = []string{"no", "yes"}[i%2]
		}
		tab.MustAddColumn(data.NewString("y", y))
	}
	for i := 0; i < n; i += 9 {
		tab.Col("alpha").SetMissing(i)
	}
	return split(tab, 17)
}

// codes maps each distinct string to its order of first appearance.
func codes(vals []string) []float64 {
	seen := map[string]float64{}
	out := make([]float64, len(vals))
	for i, v := range vals {
		if _, ok := seen[v]; !ok {
			seen[v] = float64(len(seen))
		}
		out[i] = seen[v]
	}
	return out
}

// FuzzExecute draws a program as genProgram does, ending in a train
// statement for any model name (one unknown) with its size absent (any
// size over 200), zero, negative or up to 200, and runs it on a tiny
// classification or regression table. Check must give Execute's outcome,
// and Execute must give the same result and error at one and two
// workers.
func FuzzExecute(f *testing.F) {
	sizes := []int16{300, 0, -5, 1, 7, 50, 200} // 300: absent
	for seed := int64(0); seed < 40; seed++ {
		f.Add(seed, uint8(seed), sizes[seed%int64(len(sizes))], seed%3 == 0, seed%4 == 0)
	}
	f.Fuzz(func(t *testing.T, seed int64, model uint8, size int16, regression, strs bool) {
		var b strings.Builder
		genSteps(&b, rand.New(rand.NewSource(seed)))
		fmt.Fprintf(&b, "train model=%s target=\"y\"", modelNames[int(model)%len(modelNames)])
		if size <= 200 {
			fmt.Fprintf(&b, " trees=%d rounds=%d epochs=%d", size, size, size)
		}
		b.WriteString("\nevaluate metric=auto\n")
		src := b.String()
		p, err := Parse(src)
		if err != nil {
			t.Fatalf("generated program does not parse: %v\n%s", err, src)
		}
		task := data.Binary
		if regression {
			task = data.Regression
		}
		tr, te := fuzzTables(regression, strs)
		one := &Executor{Target: "y", Task: task, Seed: 1, Workers: 1}
		two := &Executor{Target: "y", Task: task, Seed: 1, Workers: 2}
		res1, err1 := one.Execute(p, tr, te)
		res2, err2 := two.Execute(p, tr, te)
		if outcome(err1) != outcome(err2) {
			t.Fatalf("workers 1 and 2 disagree on\n%s\n1: %v\n2: %v", src, err1, err2)
		}
		if err1 == nil {
			a, b := *res1, *res2
			a.Program, b.Program = nil, nil
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("workers 1 and 2 give different results on\n%s\n1: %+v\n2: %+v", src, a, b)
			}
		}
		if got := one.Check(p, tr, te); outcome(got) != outcome(err1) {
			t.Fatalf("Check and Execute disagree on\n%s\nExecute: %v\nCheck:   %v", src, err1, got)
		}
	})
}
