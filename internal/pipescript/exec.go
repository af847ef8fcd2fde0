package pipescript

import (
	"errors"
	"sort"
	"strconv"

	"catdb/internal/data"
	"catdb/internal/embed"
	"catdb/internal/ml"
	"catdb/internal/obs"
)

// Result is the outcome of executing a pipeline on train/test data.
type Result struct {
	Program   *Program
	ModelName string
	Metric    string  // "auc" for classification, "r2" for regression
	TrainAcc  float64 // classification: exact-match accuracy in [0,100]
	TestAcc   float64
	TrainAUC  float64 // classification: macro AUC in [0,100]
	TestAUC   float64
	TrainR2   float64 // regression: R² in [0,100] (clamped at 0)
	TestR2    float64
	TestRMSE  float64
	Features  int // feature count at train time
	TrainRows int

	// Captured only when Executor.CapturePredictions is set: the raw
	// model outputs on the test split (regression values, or class
	// probabilities plus argmax labels for classification). Used to pin
	// artifact-based serving bit-identical to inline scoring.
	TestPredictions []float64
	TestLabels      []string
	TestProba       [][]float64
}

// Primary returns the headline score: AUC for classification, R² for
// regression (both on the test split, scaled to [0,100]).
func (r *Result) Primary() float64 {
	if r.Metric == "r2" {
		return r.TestR2
	}
	return r.TestAUC
}

// Executor runs parsed PipeScript programs against a dataset split.
type Executor struct {
	Target string
	Task   data.Task
	Seed   int64
	// MaxOneHot caps categories per one-hot statement (default 64).
	MaxOneHot int
	// AllowNoTrain permits programs without a train statement (used to
	// validate CatDB Chain's intermediate preprocessing/fe pipelines).
	AllowNoTrain bool
	// Policy, when set, enforces organizational library constraints
	// (disallowed models/packages raise E_POLICY).
	Policy *Policy
	// Workers is the one execution knob: it bounds the goroutines of
	// the tree/KNN model fits and inference (0 = GOMAXPROCS, 1 =
	// serial). Statements run one at a time in program order, and every
	// op body is one serial row loop. Results, fitted artifacts, errors,
	// and metric counters are bit-identical at any setting.
	Workers int
	// Metrics, when set, records execution counts, latencies, and error
	// codes (catdb_pipescript_*) into the observability registry. Nil
	// disables recording with zero overhead.
	Metrics *obs.Registry
	// Span, when set, parents one stmt span per executed statement (op
	// and line attributes), train included — the hierarchy the
	// critical-path and flamegraph exporters attribute wall time over.
	// Spans observe only; results stay bit-identical with or without
	// them. Nil (the default) disables recording with zero overhead.
	Span *obs.Span
	// CapturePredictions copies the model's raw test-split outputs into
	// Result.TestPredictions/TestLabels/TestProba (off by default: the
	// search loop only needs aggregate scores).
	CapturePredictions bool

	// record, when non-nil, collects fitted steps and the trained model
	// into an artifact; set by Fit for the duration of one Execute.
	record *FittedPipeline
	// check makes train fit the cheapest configuration of the requested
	// model; set by Check for the duration of one Execute.
	check bool
}

// Execute validates and runs the program on copies of train/test. The
// returned error, if any, is a *RuntimeError (semantic failures) — syntax
// failures are reported by Parse.
func (e *Executor) Execute(p *Program, train, test *data.Table) (*Result, error) {
	if e.Metrics == nil {
		return e.execute(p, train, test)
	}
	start := obs.Now()
	res, err := e.execute(p, train, test)
	e.Metrics.Histogram("catdb_pipescript_exec_seconds", obs.DefBuckets).Observe(obs.Since(start).Seconds())
	e.Metrics.Counter("catdb_pipescript_execs_total").Inc()
	if err != nil {
		code := "E_UNKNOWN"
		var re *RuntimeError
		if errors.As(err, &re) {
			code = re.Code
		}
		e.Metrics.Counter("catdb_pipescript_exec_errors_total", "code", code).Inc()
	}
	return res, err
}

// Check runs the program exactly as Execute does (every statement with
// its policy check, span and metrics; the matrix and target checks; the
// model fit and the scoring of both splits), except that train fits the
// cheapest configuration of the requested model: one tree for forests
// and extra trees, one boosting round, one epoch for the linear models.
// Every error a fit can return is decided from the matrix, the target
// and the class count before its first tree, round or epoch, and sizes
// never fail to parse, so Check fails exactly when Execute does, with
// the same error. It returns only that error: nothing may read a score
// of the cheap fit. Like Fit, it is not safe for concurrent use of one
// Executor.
func (e *Executor) Check(p *Program, train, test *data.Table) error {
	e.check = true
	defer func() { e.check = false }()
	_, err := e.Execute(p, train, test)
	return err
}

// execute is the uninstrumented body of Execute.
func (e *Executor) execute(p *Program, train, test *data.Table) (*Result, error) {
	tr := train.Clone()
	te := test.Clone()
	maxOH := e.MaxOneHot
	if maxOH <= 0 {
		maxOH = 64
	}
	res := &Result{Program: p}

	trained := false
	for _, st := range p.Stmts {
		if err := e.execStmt(st, tr, te, maxOH, res, &trained); err != nil {
			return nil, err
		}
	}
	if !trained {
		if e.AllowNoTrain {
			return res, nil
		}
		return nil, rtErr(lastLine(p), ErrNoTrainStmt, "pipeline finished without training a model")
	}
	return res, nil
}

func lastLine(p *Program) int {
	if len(p.Stmts) == 0 {
		return 1
	}
	return p.Stmts[len(p.Stmts)-1].Line
}

// execStmt runs one statement through the registered op table
// (optable.go) against the real train/test tables, under one stmt
// span. A panic in the op body, or in model code the op calls, becomes
// an E_OP_PANIC runtime error at the statement's line, so the repair
// loop can re-prompt instead of the process crashing; the tables are
// the executor's own clones and are discarded with the error.
func (e *Executor) execStmt(st Stmt, tr, te *data.Table, maxOH int, res *Result, trained *bool) (err error) {
	sp := e.Span.Child("stmt")
	sp.SetStr("op", st.Op)
	sp.SetInt("line", int64(st.Line))
	defer func() {
		if r := recover(); r != nil {
			err = rtErr(st.Line, ErrOpPanic, "%s panicked: %v", st.Op, r)
		}
		sp.End()
	}()
	if err := e.policyCheck(st); err != nil {
		return err
	}
	spec := opRegistry[st.Op]
	if spec == nil {
		// Parse guarantees registered ops; this is unreachable by construction.
		return rtErr(st.Line, ErrBadOption, "unhandled statement %q", st.Op)
	}
	return spec.exec(e, st, &execCtx{e: e, tr: tr, te: te, maxOH: maxOH, res: res, trained: trained})
}

// requireCol resolves a column reference in a core statement.
func requireCol(tr *data.Table, line int, name string) (*data.Column, error) {
	if c := tr.Col(name); c != nil {
		return c, nil
	}
	return nil, rtErr(line, ErrUnknownColumn, "column %q does not exist (have %d columns)", name, tr.NumCols())
}

func (e *Executor) execNop(Stmt, *execCtx) error { return nil }

func (e *Executor) execRequire(st Stmt, _ *execCtx) error {
	pkg := st.Arg(0)
	if !AvailablePackages[pkg] {
		return rtErr(st.Line, ErrPkgMissing, "package %q is not installed in the execution environment", pkg)
	}
	return nil
}

func (e *Executor) execImpute(st Stmt, c *execCtx) error {
	col, err := requireCol(c.tr, st.Line, st.Arg(0))
	if err != nil {
		return err
	}
	num, str, ierr := imputeValue(col, st.Opt("strategy", "most_frequent"))
	if ierr != nil {
		return rtErr(st.Line, ErrTypeMismatch, "%v", ierr)
	}
	applyImpute(col, num, str)
	return c.apply(FittedStep{Op: "impute", Col: col.Name, Num: num, Str: str}, st.Line, ErrBadOption)
}

func (e *Executor) execImputeAll(st Stmt, c *execCtx) error {
	strategy := st.Opt("strategy", "auto")
	for _, col := range c.tr.Cols {
		if col.Name == e.Target || col.MissingCount() == 0 {
			continue
		}
		s := strategy
		if s == "auto" {
			if col.Kind.IsNumeric() {
				s = "median"
			} else {
				s = "most_frequent"
			}
		}
		num, str, ierr := imputeValue(col, s)
		if ierr != nil {
			return rtErr(st.Line, ErrTypeMismatch, "%v", ierr)
		}
		applyImpute(col, num, str)
		if err := c.apply(FittedStep{Op: "impute", Col: col.Name, Num: num, Str: str}, st.Line, ErrBadOption); err != nil {
			return err
		}
	}
	return nil
}

// outlierCols resolves the column set and IQR factor shared by the
// clip/remove outlier statements.
func (e *Executor) outlierCols(st Stmt, c *execCtx) ([]*data.Column, float64, error) {
	factor, err := strconv.ParseFloat(st.Opt("factor", "1.5"), 64)
	if err != nil {
		return nil, 0, rtErr(st.Line, ErrBadOption, "bad factor %q", st.Opt("factor", ""))
	}
	var cols []*data.Column
	if st.Arg(0) == "all" {
		for _, col := range c.tr.Cols {
			if col.Kind.IsNumeric() && col.Name != e.Target {
				cols = append(cols, col)
			}
		}
	} else {
		col, cerr := requireCol(c.tr, st.Line, st.Arg(0))
		if cerr != nil {
			return nil, 0, cerr
		}
		if !col.Kind.IsNumeric() {
			return nil, 0, rtErr(st.Line, ErrTypeMismatch, "outlier handling needs a numeric column, %q is %s", col.Name, col.Kind)
		}
		cols = append(cols, col)
	}
	return cols, factor, nil
}

func (e *Executor) execClipOutliers(st Stmt, c *execCtx) error {
	cols, factor, err := e.outlierCols(st, c)
	if err != nil {
		return err
	}
	for _, col := range cols {
		lo, hi := iqrBounds(col, factor)
		clipColumn(col, lo, hi)
		if col.Name != e.Target {
			if err := c.apply(FittedStep{Op: "clip", Col: col.Name, Lo: lo, Hi: hi}, st.Line, ErrBadOption); err != nil {
				return err
			}
		}
	}
	return nil
}

// execRemoveOutliers drops offending train rows (test rows are clipped
// so evaluation set size is preserved, as cleaning tools do).
func (e *Executor) execRemoveOutliers(st Stmt, c *execCtx) error {
	cols, factor, err := e.outlierCols(st, c)
	if err != nil {
		return err
	}
	tr := c.tr
	keep := make([]bool, tr.NumRows())
	for i := range keep {
		keep[i] = true
	}
	for _, col := range cols {
		lo, hi := iqrBounds(col, factor)
		for i := 0; i < col.Len(); i++ {
			if !col.IsMissing(i) && (col.Num(i) < lo || col.Num(i) > hi) {
				keep[i] = false
			}
		}
		// Evaluation rows are clipped (never dropped) so the test set
		// size is preserved — except the target, which is ground truth.
		if col.Name != e.Target {
			if err := c.apply(FittedStep{Op: "clip", Col: col.Name, Lo: lo, Hi: hi}, st.Line, ErrBadOption); err != nil {
				return err
			}
		}
	}
	var rows []int
	for i, k := range keep {
		if k {
			rows = append(rows, i)
		}
	}
	if len(rows) == 0 {
		return rtErr(st.Line, ErrEmptyData, "outlier removal dropped every row")
	}
	*tr = *tr.SelectRows(rows)
	return nil
}

func (e *Executor) execScale(st Stmt, c *execCtx) error {
	method := st.Opt("method", "standard")
	var cols []*data.Column
	if st.Arg(0) == "all_numeric" {
		for _, col := range c.tr.Cols {
			if col.Kind.IsNumeric() && col.Name != e.Target {
				cols = append(cols, col)
			}
		}
	} else {
		col, cerr := requireCol(c.tr, st.Line, st.Arg(0))
		if cerr != nil {
			return cerr
		}
		if !col.Kind.IsNumeric() {
			return rtErr(st.Line, ErrTypeMismatch, "cannot scale non-numeric column %q", col.Name)
		}
		cols = append(cols, col)
	}
	for _, col := range cols {
		sp, serr := fitScale(col, method)
		if serr != nil {
			return rtErr(st.Line, ErrBadOption, "%v", serr)
		}
		sp.apply(col)
		// Like the outlier ops, the target is exempt on the test side:
		// scaling held-out ground truth would corrupt RMSE (the train
		// target may be scaled — the model just learns that scale).
		if col.Name != e.Target {
			if err := c.apply(FittedStep{Op: "scale", Col: col.Name,
				Method: sp.method, A: sp.a, B: sp.b}, st.Line, ErrBadOption); err != nil {
				return err
			}
		}
	}
	return nil
}

func (e *Executor) execOnehot(st Stmt, c *execCtx) error {
	col, err := requireCol(c.tr, st.Line, st.Arg(0))
	if err != nil {
		return err
	}
	maxCats := c.maxOH
	if v := st.Opt("max_categories", ""); v != "" {
		mc, perr := strconv.Atoi(v)
		if perr != nil || mc <= 0 {
			return rtErr(st.Line, ErrBadOption, "bad max_categories %q", v)
		}
		maxCats = mc
	}
	cats := topCategories(col, maxCats)
	if err := c.capOK(st.Line, "one-hot", col.Name, len(cats)); err != nil {
		return err
	}
	if err := oneHot(c.tr, col.Name, newCatEncoding(col.Name, cats)); err != nil {
		return rtErr(st.Line, ErrUnknownColumn, "%v", err)
	}
	return c.apply(FittedStep{Op: "onehot", Col: col.Name, Cats: cats}, st.Line, ErrUnknownColumn)
}

func (e *Executor) execKhot(st Stmt, c *execCtx) error {
	col, err := requireCol(c.tr, st.Line, st.Arg(0))
	if err != nil {
		return err
	}
	if col.Kind != data.KindString {
		return rtErr(st.Line, ErrTypeMismatch, "khot needs a string list column, %q is %s", col.Name, col.Kind)
	}
	items := listItems(col, 256)
	if err := c.capOK(st.Line, "k-hot", col.Name, len(items)); err != nil {
		return err
	}
	if err := KHot(c.tr, col.Name, items); err != nil {
		return rtErr(st.Line, ErrUnknownColumn, "%v", err)
	}
	return c.apply(FittedStep{Op: "khot", Col: col.Name, Cats: items}, st.Line, ErrUnknownColumn)
}

func (e *Executor) execHashEncode(st Stmt, c *execCtx) error {
	col, err := requireCol(c.tr, st.Line, st.Arg(0))
	if err != nil {
		return err
	}
	buckets, perr := strconv.Atoi(st.Opt("buckets", "64"))
	if perr != nil || buckets <= 0 {
		return rtErr(st.Line, ErrBadOption, "bad buckets %q", st.Opt("buckets", ""))
	}
	if err := hashEncode(c.tr, col.Name, buckets); err != nil {
		return rtErr(st.Line, ErrUnknownColumn, "%v", err)
	}
	return c.apply(FittedStep{Op: "hash_encode", Col: col.Name, Buckets: buckets}, st.Line, ErrUnknownColumn)
}

func (e *Executor) execOrdinal(st Stmt, c *execCtx) error {
	col, err := requireCol(c.tr, st.Line, st.Arg(0))
	if err != nil {
		return err
	}
	mapping := map[string]int{}
	for i, cat := range topCategories(col, 1<<20) {
		mapping[cat] = i
	}
	if err := ordinalEncode(c.tr, col.Name, mapping); err != nil {
		return rtErr(st.Line, ErrUnknownColumn, "%v", err)
	}
	return c.apply(FittedStep{Op: "ordinal", Col: col.Name, Mapping: mapping}, st.Line, ErrUnknownColumn)
}

func (e *Executor) execDrop(st Stmt, c *execCtx) error {
	if _, err := requireCol(c.tr, st.Line, st.Arg(0)); err != nil {
		return err
	}
	if st.Arg(0) == e.Target {
		return rtErr(st.Line, ErrTargetMissing, "cannot drop the target column %q", e.Target)
	}
	c.tr.DropColumn(st.Arg(0))
	return c.apply(FittedStep{Op: "drop", Cols: []string{st.Arg(0)}}, st.Line, "")
}

func (e *Executor) execDropConstant(st Stmt, c *execCtx) error {
	names := constantCols(c.tr, e.Target)
	if len(names) == 0 {
		return nil
	}
	for _, name := range names {
		c.tr.DropColumn(name)
	}
	return c.apply(FittedStep{Op: "drop", Cols: names}, st.Line, "")
}

func (e *Executor) execDropSparse(st Stmt, c *execCtx) error {
	thr, perr := strconv.ParseFloat(st.Opt("threshold", "0.02"), 64)
	if perr != nil {
		return rtErr(st.Line, ErrBadOption, "bad threshold %q", st.Opt("threshold", ""))
	}
	var doomed []string
	for _, col := range c.tr.Cols {
		if col.Name != e.Target && 1-col.MissingRatio() < thr {
			doomed = append(doomed, col.Name)
		}
	}
	if len(doomed) == 0 {
		return nil
	}
	for _, name := range doomed {
		c.tr.DropColumn(name)
	}
	return c.apply(FittedStep{Op: "drop", Cols: doomed}, st.Line, "")
}

func (e *Executor) execSplitComposite(st Stmt, c *execCtx) error {
	col, err := requireCol(c.tr, st.Line, st.Arg(0))
	if err != nil {
		return err
	}
	names := splitNames(st, col.Name)
	if err := SplitComposite(c.tr, col.Name, names[0], names[1]); err != nil {
		return rtErr(st.Line, ErrUnknownColumn, "%v", err)
	}
	return c.apply(FittedStep{Op: "split_composite", Col: col.Name,
		Name: names[0], NameB: names[1]}, st.Line, ErrUnknownColumn)
}

func (e *Executor) execExtractToken(st Stmt, c *execCtx) error {
	col, err := requireCol(c.tr, st.Line, st.Arg(0))
	if err != nil {
		return err
	}
	if col.Kind != data.KindString {
		return rtErr(st.Line, ErrTypeMismatch, "extract_token needs a string column, %q is %s", col.Name, col.Kind)
	}
	ExtractTokens(col)
	return c.apply(FittedStep{Op: "extract_token", Col: col.Name}, st.Line, "")
}

func (e *Executor) execDedupValues(st Stmt, c *execCtx) error {
	col, err := requireCol(c.tr, st.Line, st.Arg(0))
	if err != nil {
		return err
	}
	if col.Kind != data.KindString {
		return rtErr(st.Line, ErrTypeMismatch, "dedup_values needs a string column, %q is %s", col.Name, col.Kind)
	}
	mapping := DedupMapping(col)
	applyMapping(col, mapping, normalizedMap(mapping))
	return c.apply(FittedStep{Op: "dedup_values", Col: col.Name, ValueMap: mapping}, st.Line, "")
}

func (e *Executor) execRebalance(st Stmt, c *execCtx) error {
	if e.Task == data.Regression {
		return rtErr(st.Line, ErrTaskMismatch, "rebalance is only valid for classification tasks")
	}
	if err := rebalanceADASYN(c.tr, e.Target, e.Seed); err != nil {
		return rtErr(st.Line, ErrTargetMissing, "%v", err)
	}
	return nil
}

func (e *Executor) execAugment(st Stmt, c *execCtx) error {
	if e.Task != data.Regression {
		return rtErr(st.Line, ErrTaskMismatch, "augment is only valid for regression tasks")
	}
	factor, perr := strconv.ParseFloat(st.Opt("factor", "0.15"), 64)
	if perr != nil {
		return rtErr(st.Line, ErrBadOption, "bad factor %q", st.Opt("factor", ""))
	}
	if err := augmentRegression(c.tr, e.Target, factor, e.Seed); err != nil {
		return rtErr(st.Line, ErrTypeMismatch, "%v", err)
	}
	return nil
}

func (e *Executor) execSelectTopK(st Stmt, c *execCtx) error {
	k, perr := strconv.Atoi(st.Opt("k", "0"))
	if perr != nil || k <= 0 {
		return rtErr(st.Line, ErrBadOption, "select_topk needs k>0")
	}
	return e.selectTopK(st, c, k)
}

func (e *Executor) execTrain(st Stmt, c *execCtx) error {
	if err := e.train(st, c.tr, c.te, c.res); err != nil {
		return err
	}
	*c.trained = true
	return nil
}

func constantCols(t *data.Table, target string) []string {
	var out []string
	for _, c := range t.Cols {
		if c.Name != target && c.IsConstant() {
			out = append(out, c.Name)
		}
	}
	return out
}

func splitNames(st Stmt, col string) [2]string {
	names := [2]string{col + "_part", col + "_code"}
	if v := st.Opt("into", ""); v != "" {
		parts := splitComma(v)
		if len(parts) >= 1 && parts[0] != "" {
			names[0] = parts[0]
		}
		if len(parts) >= 2 && parts[1] != "" {
			names[1] = parts[1]
		}
	}
	return names
}

func splitComma(s string) []string {
	var out []string
	cur := ""
	for _, r := range s {
		if r == ',' {
			out = append(out, cur)
			cur = ""
			continue
		}
		cur += string(r)
	}
	out = append(out, cur)
	return out
}

// selectTopK keeps the k features most associated with the target.
func (e *Executor) selectTopK(st Stmt, c *execCtx, k int) error {
	tr := c.tr
	target := tr.Col(e.Target)
	type scored struct {
		name  string
		score float64
	}
	var sc []scored
	for _, c := range tr.Cols {
		if c.Name == e.Target {
			continue
		}
		var s float64
		if target != nil {
			if c.Kind.IsNumeric() && target.Kind.IsNumeric() {
				s = abs(embed.Correlation(c, target))
			} else {
				s = embed.CramersV(c, target)
			}
		}
		sc = append(sc, scored{c.Name, s})
	}
	sort.Slice(sc, func(i, j int) bool {
		if sc[i].score != sc[j].score {
			return sc[i].score > sc[j].score
		}
		return sc[i].name < sc[j].name
	})
	if k >= len(sc) {
		return nil
	}
	dropped := make([]string, 0, len(sc)-k)
	for _, s := range sc[k:] {
		tr.DropColumn(s.name)
		dropped = append(dropped, s.name)
	}
	return c.apply(FittedStep{Op: "drop", Cols: dropped}, st.Line, "")
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// train builds feature matrices, fits the requested model, and fills in
// the result metrics.
func (e *Executor) train(st Stmt, tr, te *data.Table, res *Result) error {
	target := st.Opt("target", e.Target)
	tcol := tr.Col(target)
	if tcol == nil {
		return rtErr(st.Line, ErrTargetMissing, "target column %q not found", target)
	}
	// Matrix validation: every remaining feature must be numeric and
	// complete — the same contract scikit-learn enforces.
	for _, c := range tr.Cols {
		if c.Name == target {
			continue
		}
		if !c.Kind.IsNumeric() {
			return rtErr(st.Line, ErrStringInMatrix, "could not convert string column %q to float (did the pipeline forget to encode it?)", c.Name)
		}
		if n := c.MissingCount(); n > 0 {
			return rtErr(st.Line, ErrNaNInMatrix, "input contains NaN: column %q has %d missing values", c.Name, n)
		}
	}
	// The target must be complete too: a missing regression target would
	// read as a silent 0 through NumsView, and a missing classification
	// label would stringify to "" and become a phantom class.
	if n := tcol.MissingCount(); n > 0 {
		return rtErr(st.Line, ErrNaNInMatrix,
			"input contains NaN: target column %q has %d missing values", target, n)
	}
	Xtr, featNames := matrix(tr, target)
	Xte, _ := matrixAligned(te, featNames)
	if len(Xtr) == 0 || len(featNames) == 0 {
		return rtErr(st.Line, ErrEmptyData, "no usable feature columns at train time")
	}
	res.Features = len(featNames)
	res.TrainRows = len(Xtr)
	modelName := st.Opt("model", "random_forest")
	res.ModelName = modelName

	if e.Task.IsClassification() {
		res.Metric = "auc"
		labels := tcol
		classIdx := map[string]int{}
		for _, v := range labels.Distinct() {
			classIdx[v] = len(classIdx)
		}
		classes := len(classIdx)
		if classes < 2 {
			return rtErr(st.Line, ErrEmptyData, "target %q has a single class in train data", target)
		}
		ytr := make([]int, labels.Len())
		for i := range ytr {
			ytr[i] = classIdx[labels.ValueString(i)]
		}
		clf, err := e.buildClassifier(st, modelName)
		if err != nil {
			return err
		}
		if err := clf.FitClass(Xtr, ytr, classes); err != nil {
			if errors.Is(err, ml.ErrOutOfMemory) {
				return rtErr(st.Line, ErrModelOOM, "model %q: %v", modelName, err)
			}
			return rtErr(st.Line, ErrBadOption, "model %q fit failed: %v", modelName, err)
		}
		// Reverse class mapping for string-accuracy scoring.
		classOf := make([]string, classes)
		for v, i := range classIdx {
			classOf[i] = v
		}
		scoreSplit := func(X [][]float64, truthCol *data.Column) (acc, auc float64) {
			if len(X) == 0 || truthCol == nil {
				return 0, 0
			}
			proba := clf.Proba(X)
			pred := make([]int, len(proba))
			for i := range proba {
				pred[i] = argmax(proba[i])
			}
			truthStr := make([]string, truthCol.Len())
			predStr := make([]string, len(pred))
			truthIdx := make([]int, truthCol.Len())
			for i := range truthStr {
				truthStr[i] = truthCol.ValueString(i)
				if idx, ok := classIdx[truthStr[i]]; ok {
					truthIdx[i] = idx
				} else {
					truthIdx[i] = -1 // unseen surface form: always wrong
				}
				predStr[i] = classOf[pred[i]]
			}
			return ml.AccuracyStrings(predStr, truthStr) * 100,
				ml.MacroAUC(proba, truthIdx, classes) * 100
		}
		res.TrainAcc, res.TrainAUC = scoreSplit(Xtr, labels)
		res.TestAcc, res.TestAUC = scoreSplit(Xte, te.Col(target))
		if e.CapturePredictions && len(Xte) > 0 {
			res.TestProba = clf.Proba(Xte)
			res.TestPredictions = make([]float64, len(res.TestProba))
			res.TestLabels = make([]string, len(res.TestProba))
			for i, row := range res.TestProba {
				idx := argmax(row)
				res.TestPredictions[i] = float64(idx)
				res.TestLabels[i] = classOf[idx]
			}
		}
		if e.record != nil {
			if err := e.recordModel(st, res, featNames, classOf, clf); err != nil {
				return err
			}
		}
		return nil
	}

	// Regression.
	res.Metric = "r2"
	if !tcol.Kind.IsNumeric() {
		return rtErr(st.Line, ErrTypeMismatch, "regression target %q is not numeric", target)
	}
	ytr := append([]float64(nil), tcol.NumsView()...)
	reg, err := e.buildRegressor(st, modelName)
	if err != nil {
		return err
	}
	if err := reg.Fit(Xtr, ytr); err != nil {
		if errors.Is(err, ml.ErrOutOfMemory) {
			return rtErr(st.Line, ErrModelOOM, "model %q: %v", modelName, err)
		}
		return rtErr(st.Line, ErrBadOption, "model %q fit failed: %v", modelName, err)
	}
	clampR2 := func(v float64) float64 {
		if v < 0 {
			return 0
		}
		return v * 100
	}
	res.TrainR2 = clampR2(ml.R2(reg.Predict(Xtr), ytr))
	teT := te.Col(target)
	if len(Xte) > 0 && (teT != nil || e.CapturePredictions) {
		pred := reg.Predict(Xte)
		if e.CapturePredictions {
			res.TestPredictions = pred
		}
		if teT != nil {
			yte := append([]float64(nil), teT.NumsView()...)
			res.TestR2 = clampR2(ml.R2(pred, yte))
			res.TestRMSE = ml.RMSE(pred, yte)
		}
	}
	if e.record != nil {
		if err := e.recordModel(st, res, featNames, nil, reg); err != nil {
			return err
		}
	}
	return nil
}

// recordModel exports the trained model and train-time schema into the
// artifact being recorded.
func (e *Executor) recordModel(st Stmt, res *Result, featNames, classOf []string, model any) error {
	fm, err := ml.Export(model)
	if err != nil {
		return rtErr(st.Line, ErrBadOption, "artifact export: %v", err)
	}
	e.record.Metric = res.Metric
	e.record.ModelName = res.ModelName
	e.record.Features = append([]string(nil), featNames...)
	e.record.Classes = classOf
	e.record.Model = fm
	return nil
}

func argmax(v []float64) int {
	best, bi := v[0], 0
	for i, x := range v[1:] {
		if x > best {
			best, bi = x, i+1
		}
	}
	return bi
}

// matrix extracts the numeric feature matrix and column order.
func matrix(t *data.Table, target string) ([][]float64, []string) {
	var names []string
	var cols []*data.Column
	for _, c := range t.Cols {
		if c.Name == target || !c.Kind.IsNumeric() {
			continue
		}
		names = append(names, c.Name)
		cols = append(cols, c)
	}
	X := make([][]float64, t.NumRows())
	for i := range X {
		row := make([]float64, len(cols))
		for j, c := range cols {
			row[j] = c.Num(i)
		}
		X[i] = row
	}
	return X, names
}

// matrixAligned extracts features in the given column order so test
// matrices line up with train matrices. The contract is deliberately
// lenient for the in-search evaluation path: a column that is absent,
// non-numeric, or short zero-fills its cells (and a missing cell reads
// as its stored 0), because candidate pipelines routinely produce test
// splits lacking a train-only encoded column and the search must score
// them rather than crash. The serving path (FittedPipeline.Predict) is
// the strict version: it rejects absent/non-numeric/incomplete fitted
// features with a typed ArtifactError before this zero-fill can skew
// predictions.
func matrixAligned(t *data.Table, names []string) ([][]float64, []string) {
	cols := make([]*data.Column, len(names))
	for j, n := range names {
		cols[j] = t.Col(n)
	}
	return columnMatrix(cols, t.NumRows()), names
}

// columnMatrix lays n rows of cols out row by row, reading a nil,
// non-numeric or short column as zeros.
func columnMatrix(cols []*data.Column, n int) [][]float64 {
	X := make([][]float64, n)
	for i := range X {
		row := make([]float64, len(cols))
		for j, c := range cols {
			if c != nil && c.Kind.IsNumeric() && i < c.Len() {
				row[j] = c.Num(i)
			}
		}
		X[i] = row
	}
	return X
}

func (e *Executor) buildClassifier(st Stmt, name string) (ml.Classifier, error) {
	trees := e.size(st, "trees", 50)
	depth := atoiOpt(st, "depth", 0)
	switch name {
	case "random_forest":
		return ml.NewForest(ml.ForestConfig{Trees: trees, MaxDepth: depth, Seed: e.Seed, Workers: e.Workers}), nil
	case "decision_tree":
		return ml.NewTree(ml.TreeConfig{MaxDepth: depth, Seed: e.Seed}), nil
	case "gbm", "gradient_boosting":
		return ml.NewGBM(ml.GBMConfig{Rounds: e.size(st, "rounds", 40), MaxDepth: depth, Seed: e.Seed,
			Workers: e.Workers}), nil
	case "logistic_regression":
		return ml.NewLogistic(ml.LinearConfig{Epochs: e.size(st, "epochs", 20), Seed: e.Seed}), nil
	case "knn":
		return ml.NewKNN(ml.KNNConfig{K: atoiOpt(st, "k", 7), MaxTrain: 4000, Workers: e.Workers}), nil
	case "naive_bayes":
		return ml.NewNaiveBayes(), nil
	case "tabpfn":
		return ml.NewTabPFNSim(), nil
	case "extra_trees":
		return ml.NewExtraTrees(ml.ForestConfig{Trees: trees, MaxDepth: depth, Seed: e.Seed, Workers: e.Workers}), nil
	case "svm":
		return ml.NewSVM(ml.LinearConfig{Epochs: e.size(st, "epochs", 10), Seed: e.Seed}), nil
	default:
		return nil, rtErr(st.Line, ErrUnknownModel, "unknown classification model %q", name)
	}
}

func (e *Executor) buildRegressor(st Stmt, name string) (ml.Regressor, error) {
	trees := e.size(st, "trees", 50)
	depth := atoiOpt(st, "depth", 0)
	switch name {
	case "random_forest":
		return ml.NewForest(ml.ForestConfig{Trees: trees, MaxDepth: depth, Seed: e.Seed, Workers: e.Workers}), nil
	case "decision_tree":
		return ml.NewTree(ml.TreeConfig{MaxDepth: depth, Seed: e.Seed}), nil
	case "gbm", "gradient_boosting":
		return ml.NewGBM(ml.GBMConfig{Rounds: e.size(st, "rounds", 40), MaxDepth: depth, Seed: e.Seed,
			Workers: e.Workers}), nil
	case "linear_regression":
		return ml.NewLinear(ml.LinearConfig{Epochs: e.size(st, "epochs", 150)}), nil
	case "ridge":
		return ml.NewLinear(ml.LinearConfig{Epochs: e.size(st, "epochs", 150), L2: 0.01}), nil
	case "knn":
		return ml.NewKNN(ml.KNNConfig{K: atoiOpt(st, "k", 7), MaxTrain: 4000, Workers: e.Workers}), nil
	case "extra_trees":
		return ml.NewExtraTrees(ml.ForestConfig{Trees: trees, MaxDepth: depth, Seed: e.Seed, Workers: e.Workers}), nil
	default:
		return nil, rtErr(st.Line, ErrUnknownModel, "unknown regression model %q", name)
	}
}

// size reads a model's size option (trees, rounds or epochs), or gives
// one under Check. It cannot fail: a value that does not parse gives
// def, and the model replaces a non-positive one with its own default.
func (e *Executor) size(st Stmt, key string, def int) int {
	if e.check {
		return 1
	}
	return atoiOpt(st, key, def)
}

func atoiOpt(st Stmt, key string, def int) int {
	if v, ok := st.KV[key]; ok {
		if n, err := strconv.Atoi(v); err == nil {
			return n
		}
	}
	return def
}
