// Package core is the paper's primary contribution glued together: the
// end-to-end CatDB pipeline generator (Algorithm 4, PIPEGEN) with its
// validation and error-management loop, the CatDB Chain driver, the
// handcrafted-pipeline fallback, and the token cost model of Equations 1
// and 2.
package core

import (
	"fmt"
	"math/rand"
	"time"

	"catdb/internal/catalog"
	"catdb/internal/data"
	"catdb/internal/errkb"
	"catdb/internal/llm"
	"catdb/internal/obs"
	"catdb/internal/pipescript"
	"catdb/internal/profile"
	"catdb/internal/prompt"
)

const (
	// trainFrac is the train share of the split.
	trainFrac = 0.7
	// validationRows caps the train sample the debug loop validates on
	// (the test sample takes half as many rows, plus one).
	validationRows = 500
)

// Options configures a CatDB run.
type Options struct {
	// TopK is α: restrict the prompt to the K most relevant columns
	// (0 = all).
	TopK int
	// Chains is β: 1 = single prompt (CatDB), >1 = CatDB Chain.
	Chains int
	// MaxAttempts is τ₂, the error-correction budget per prompt
	// (default 15, the paper's cap).
	MaxAttempts int
	// Combo selects the metadata combination (Table 1); the zero value is
	// CatDB's adaptive projection.
	Combo prompt.Combo
	// MetadataOnly disables the rule messages — the "[Metadata-only &
	// LLM]" baseline of Figure 1.
	MetadataOnly bool
	// NoRefine skips catalog refinement and data cleaning — the
	// "Original" variant of Table 5.
	NoRefine bool
	// Seed drives splits, validation sampling, and pipeline execution.
	Seed int64
	// TrainMutator, when set, is applied to the training split right
	// after the train/test split — the robustness experiments of Figure
	// 14 use it to inject corruption into training data while keeping the
	// evaluation set clean.
	TrainMutator func(train *data.Table)
	// StaticRepair enables the §4 code-analysis pass: generated pipelines
	// are statically checked (pipescript.Analyze) and repairable missing
	// steps are inserted before execution, cutting error-correction
	// iterations and token costs (see the ablation benchmark).
	StaticRepair bool
	// Policy enforces organizational library constraints on generated
	// pipelines (the §4.3 compliance extension): disallowed models or
	// packages raise policy errors that the error-management loop repairs
	// with allowed alternatives.
	Policy *pipescript.Policy
}

func (o Options) withDefaults() Options {
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 15
	}
	if o.Chains <= 0 {
		o.Chains = 1
	}
	return o
}

// Cost aggregates token usage per Equations 1 and 2: generation prompts
// (γ·L(Pp)) and error-correction prompts (Σ L(Pe)).
type Cost struct {
	PromptTokens          int // initial generation prompts
	CompletionTokens      int
	ErrorPromptTokens     int // error-correction prompts
	ErrorCompletionTokens int
	LLMCalls              int
	KBFixes               int
	LLMFixes              int
	Attempts              int
}

// Total returns all tokens exchanged.
func (c Cost) Total() int {
	return c.PromptTokens + c.CompletionTokens + c.ErrorPromptTokens + c.ErrorCompletionTokens
}

// ErrorTokens returns the error-management share of the cost.
func (c Cost) ErrorTokens() int { return c.ErrorPromptTokens + c.ErrorCompletionTokens }

// Result is the outcome of one CatDB run.
type Result struct {
	Dataset  string
	Model    string
	Variant  string // "CatDB" or "CatDB Chain"
	Pipeline string // final PipeScript source
	Exec     *pipescript.Result
	Cost     Cost
	Errors   []errkb.Classified
	// Handcrafted reports that the τ₂ budget was exhausted and the
	// fallback pipeline was used (Algorithm 4 lines 16-17).
	Handcrafted bool

	ProfileTime time.Duration
	RefineTime  time.Duration
	GenTime     time.Duration // prompt construction + LLM loop
	ExecTime    time.Duration // final pipeline execution
}

// TotalTime is the end-to-end runtime reported in Table 8 (data loading,
// catalog refinement, metadata projection, rule definition, generation,
// error management, and execution).
func (r *Result) TotalTime() time.Duration {
	return r.ProfileTime + r.RefineTime + r.GenTime + r.ExecTime
}

// Runner generates and executes CatDB pipelines against one LLM client.
type Runner struct {
	Client llm.Client
	// KB is the local knowledge base (defaults to the built-in one).
	KB *errkb.KnowledgeBase
	// Traces, when set, records every encountered error (the error-trace
	// dataset of Table 2).
	Traces *errkb.TraceStore
	// Description is the optional user-written dataset summary.
	Description string
	// ProfileCache, when set, memoizes data profiles by table content so
	// runs over the same (dataset, scale, seed, options) cell — and the
	// catalog's refinement profiling — skip redundant Algorithm 1 passes.
	// Share one cache across runners to share across benchmark cells.
	ProfileCache *profile.Cache
	// Tracer, when set, records a hierarchical span tree per Run: run →
	// refine / profile / prompt-build / per-prompt generate (with one
	// debug-attempt span per τ₂ iteration carrying category, fixedBy, and
	// token attributes) / exec, plus a resume-debug subtree when the
	// validated pipeline fails on full data. Nil disables tracing with
	// zero overhead and bit-identical results.
	Tracer *obs.Tracer
	// TraceParent, when set, nests the Run's span tree under an existing
	// span (the bench harness parents runs under its per-cell spans); it
	// implies the parent's tracer, so Tracer may stay nil.
	TraceParent *obs.Span
	// Metrics, when set, records counters and histograms: LLM calls and
	// tokens by prompt kind (catdb_gen_*) and by model (catdb_llm_*, via
	// the llm.Observed middleware), KB-vs-LLM fixes by error category
	// (catdb_fixes_total), per-stage latencies (catdb_stage_seconds), and
	// pipeline executions (catdb_pipescript_*).
	Metrics *obs.Registry
	// OnResult, when set, observes every successful Run result just
	// before it returns, along with the options that produced it — the
	// hook the bench harness uses to append runs to the persistent
	// ledger (the options distinguish configurations the Result alone
	// does not, like metadata combos). It must not mutate the result.
	OnResult func(Options, *Result)
}

// NewRunner returns a runner over the given client.
func NewRunner(client llm.Client) *Runner {
	return &Runner{Client: client, KB: errkb.NewKnowledgeBase()}
}

// Run executes the full CatDB workflow on a dataset: consolidation,
// optional catalog refinement, profiling, prompt construction, generation
// with error management, and final execution on the 70/30 split.
func (r *Runner) Run(ds *data.Dataset, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if r.Metrics != nil {
		// Route every LLM call of this run (generation, error fixes, and
		// catalog refinement) through the metrics middleware. The shallow
		// copy keeps the caller's Runner unwrapped.
		rc := *r
		rc.Client = llm.Observed(r.Client, r.Metrics)
		r = &rc
	}
	res := &Result{Dataset: ds.Name, Model: r.Client.Name(), Variant: variantName(opts)}
	root := r.rootSpan()
	root.SetStr("dataset", ds.Name)
	root.SetStr("model", res.Model)
	root.SetStr("variant", res.Variant)
	defer root.End()

	// Materialize (and optionally refine) the working table.
	var table *data.Table
	if opts.NoRefine {
		t, err := ds.Consolidate()
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		table = t
	} else {
		sp := root.Child("refine")
		start := obs.Now()
		ref, err := catalog.RefineDataset(ds, r.Client, catalog.Options{Seed: opts.Seed, Cache: r.ProfileCache})
		if err != nil {
			sp.End()
			return nil, fmt.Errorf("core: %w", err)
		}
		table = ref.Table
		res.RefineTime = obs.Since(start)
		sp.End()
		r.observeStage("refine", res.RefineTime)
	}

	// Split before prompting: all metadata is derived from train data.
	var train, test *data.Table
	if ds.Task.IsClassification() {
		train, test = table.StratifiedSplit(ds.Target, trainFrac, opts.Seed)
	} else {
		train, test = table.Split(trainFrac, opts.Seed)
	}
	if opts.TrainMutator != nil {
		opts.TrainMutator(train)
	}

	// Profile (Algorithm 1).
	psp := root.Child("profile")
	pstart := obs.Now()
	prof, err := r.ProfileCache.Table(train, ds.Target, ds.Task, profile.Options{Seed: opts.Seed})
	if err != nil {
		psp.End()
		return nil, fmt.Errorf("core: %w", err)
	}
	res.ProfileTime = obs.Since(pstart)
	psp.End()
	r.observeStage("profile", res.ProfileTime)

	bsp := root.Child("prompt-build")
	in := prompt.InputFromProfile(prof, topClassShare(train, ds.Target, ds.Task), descriptionOf(ds, r.Description))
	cfg := prompt.Config{
		Combo: opts.Combo, TopK: opts.TopK, Chains: opts.Chains,
		IncludeRules: !opts.MetadataOnly, IncludeDescription: true,
	}
	spec := prompt.ModelSpec{Name: r.Client.Name(), MaxPromptTokens: r.Client.MaxPromptTokens()}
	prompts := prompt.Build(in, spec, cfg)
	bsp.SetInt("prompts", int64(len(prompts)))
	bsp.End()

	// Validation sample for the debug loop (the paper tests pipelines on
	// sample data before full execution).
	rng := rand.New(rand.NewSource(opts.Seed))
	vTrain := train.Sample(validationRows, rng)
	vTest := test.Sample(validationRows/2+1, rng)

	gstart := obs.Now()
	source := ""
	// validated: the last prompt's debug loop ran source strictly (a
	// train statement required) on the validation sample, and it passed.
	validated := false
	for _, pr := range prompts {
		// Chain intermediate steps (preprocessing / feature engineering)
		// legitimately have no train statement yet.
		allowNoTrain := pr.Kind == prompt.KindPreprocessing || pr.Kind == prompt.KindFeatureEng
		pr = prompt.WithCode(pr, source)
		gsp := root.Child("generate")
		gsp.SetStr("kind", string(pr.Kind))
		src, passed, err := r.generateAndFix(pr, in, cfg, opts, vTrain, vTest, ds, allowNoTrain, res, gsp)
		gsp.End()
		if err != nil {
			return nil, err
		}
		source = src
		validated = passed && !allowNoTrain
	}
	// Validate the complete program strictly (a train statement is now
	// mandatory) unless the last prompt's loop just did: execution is
	// deterministic, so re-running that source on the same sample with
	// an identical executor could only repeat its success. In practice
	// this re-validates only the handcrafted fallback, which debugLoop
	// returns without running. prompt.Build always ends on a strict
	// (pipeline or model-selection) prompt; the !allowNoTrain conjunct
	// above guards against a future Build that ends on a non-strict one.
	vsp := root.Child("final-validate")
	vsp.SetBool("revalidated", !validated)
	if !validated {
		source, err = r.finalValidate(source, in, cfg, opts, vTrain, vTest, ds, res, vsp)
	}
	vsp.End()
	if err != nil {
		return nil, err
	}
	res.GenTime = obs.Since(gstart)
	res.Pipeline = source

	// Final execution on the full split (the pipeline runtime of Table 6).
	esp := root.Child("exec")
	estart := obs.Now()
	var resumeGen time.Duration
	prog, perr := pipescript.Parse(source)
	if perr != nil {
		esp.End()
		return nil, fmt.Errorf("core: final pipeline failed to parse after validation: %w", perr)
	}
	ex := r.executor(ds, opts)
	ex.Span = esp
	execRes, xerr := ex.Execute(prog, train, test)
	if xerr != nil {
		// Full-data failure after sample validation: resume the debug
		// loop against the full data.
		var genDur time.Duration
		source, execRes, genDur, xerr = r.resumeOnFullData(source, xerr, in, cfg, opts, train, test, ds, res, esp)
		resumeGen = genDur
		if xerr != nil {
			esp.End()
			return nil, fmt.Errorf("core: pipeline failed on full data: %w", xerr)
		}
		res.Pipeline = source
	}
	// The resume path is generation work — LLM repair calls and sample
	// re-validation — so its share of the wall time is booked under
	// GenTime, keeping ExecTime a pure pipeline-execution measurement.
	res.GenTime += resumeGen
	res.ExecTime = obs.Since(estart) - resumeGen
	esp.End()
	r.observeStage("generate", res.GenTime)
	r.observeStage("exec", res.ExecTime)
	res.Exec = execRes
	if r.OnResult != nil {
		r.OnResult(opts, res)
	}
	return res, nil
}

// rootSpan opens the per-run span: nested under TraceParent when the
// bench harness provides one, a fresh root on the runner's tracer
// otherwise (both nil-safe no-ops when tracing is off).
func (r *Runner) rootSpan() *obs.Span {
	if r.TraceParent != nil {
		return r.TraceParent.Child("run")
	}
	return r.Tracer.Root("run")
}

// observeStage records one Table 8 stage latency into the registry.
func (r *Runner) observeStage(stage string, d time.Duration) {
	if r.Metrics == nil {
		return
	}
	r.Metrics.Histogram("catdb_stage_seconds", obs.DefBuckets, "stage", stage).Observe(d.Seconds())
}

// observeGenCall records one generation-path LLM exchange by prompt kind
// ("pipeline", chain steps, or "error-fix").
func (r *Runner) observeGenCall(kind string, u llm.Usage) {
	if r.Metrics == nil {
		return
	}
	r.Metrics.Counter("catdb_gen_calls_total", "kind", kind).Inc()
	r.Metrics.Counter("catdb_gen_tokens_total", "kind", kind, "dir", "prompt").Add(int64(u.PromptTokens))
	r.Metrics.Counter("catdb_gen_tokens_total", "kind", kind, "dir", "completion").Add(int64(u.CompletionTokens))
}

func variantName(opts Options) string {
	if opts.Chains > 1 {
		return "CatDB Chain"
	}
	return "CatDB"
}

func descriptionOf(ds *data.Dataset, override string) string {
	if override != "" {
		return override
	}
	return ds.Description
}

// topClassShare computes the largest class share of a classification
// target (0 for regression/absent targets). The task decides whether the
// target is categorical: int-coded 0/1 labels are numeric-kind columns but
// still class labels, and skipping them would hide class imbalance from
// the prompt rules.
func topClassShare(t *data.Table, target string, task data.Task) float64 {
	if !task.IsClassification() {
		return 0
	}
	c := t.Col(target)
	if c == nil {
		return 0
	}
	counts := map[string]int{}
	max := 0
	for i := 0; i < c.Len(); i++ {
		counts[c.ValueString(i)]++
		if counts[c.ValueString(i)] > max {
			max = counts[c.ValueString(i)]
		}
	}
	if c.Len() == 0 {
		return 0
	}
	return float64(max) / float64(c.Len())
}

// generateAndFix submits one prompt and runs the τ₂-bounded debug loop of
// Algorithm 4 against the validation sample, reporting (as debugLoop
// does) whether the returned source passed execution.
func (r *Runner) generateAndFix(pr prompt.Prompt, in prompt.Input, cfg prompt.Config, opts Options,
	vTrain, vTest *data.Table, ds *data.Dataset, allowNoTrain bool, res *Result, sp *obs.Span) (string, bool, error) {

	resp, err := r.Client.Complete(pr.Text)
	if err != nil {
		return "", false, fmt.Errorf("core: llm: %w", err)
	}
	res.Cost.PromptTokens += resp.Usage.PromptTokens
	res.Cost.CompletionTokens += resp.Usage.CompletionTokens
	res.Cost.LLMCalls++
	r.observeGenCall(string(pr.Kind), resp.Usage)
	sp.SetInt("tokens", int64(resp.Usage.PromptTokens+resp.Usage.CompletionTokens))

	source := resp.Text
	if opts.StaticRepair && !allowNoTrain {
		source = staticRepair(source, in, ds.Task)
	}
	ex := r.executor(ds, opts)
	ex.AllowNoTrain = allowNoTrain
	ex.Span = sp
	return r.debugLoop(source, in, cfg, opts, ex, vTrain, vTest, ds, res, sp)
}

// staticRepair runs the code-analysis pass over freshly generated source:
// parseable pipelines are checked against the input schema and repairable
// gaps (missing imputation/encodings, unknown models, bad requires) are
// fixed without an LLM round trip. Unparseable sources pass through — the
// knowledge base and error loop handle syntax.
func staticRepair(source string, in prompt.Input, task data.Task) string {
	prog, err := pipescript.Parse(source)
	if err != nil {
		return source
	}
	cols := make([]pipescript.ColumnInfo, 0, len(in.Cols))
	for _, c := range in.Cols {
		cols = append(cols, pipescript.ColumnInfo{
			Name:       c.Name,
			IsString:   c.DataType == data.KindString,
			HasMissing: c.MissingPct > 0,
			IsTarget:   c.IsTarget,
		})
	}
	issues := pipescript.Analyze(prog, cols, task)
	if len(issues) == 0 {
		return source
	}
	fixed := pipescript.Repair(source, issues, cols, in.Target)
	if _, err := pipescript.Parse(fixed); err != nil {
		return source // never hand the loop something worse
	}
	return fixed
}

// finalValidate runs the strict (train-required) validation over the
// assembled program, continuing the debug loop if needed.
func (r *Runner) finalValidate(source string, in prompt.Input, cfg prompt.Config, opts Options,
	vTrain, vTest *data.Table, ds *data.Dataset, res *Result, sp *obs.Span) (string, error) {

	ex := r.executor(ds, opts)
	ex.Span = sp
	fixed, _, err := r.debugLoop(source, in, cfg, opts, ex, vTrain, vTest, ds, res, sp)
	return fixed, err
}

// executor builds the pipeline executor every stage of a run uses;
// callers set only AllowNoTrain and Span on what it returns.
func (r *Runner) executor(ds *data.Dataset, opts Options) *pipescript.Executor {
	return &pipescript.Executor{Target: ds.Target, Task: ds.Task, Seed: opts.Seed, Policy: opts.Policy, Metrics: r.Metrics}
}

// debugLoop is the shared fix loop used by generation, finalValidate
// and the full-data resume path. Each attempt is an Executor.Check (see
// parseAndExecute). The bool reports that ex checked the returned source
// successfully; it is false for the handcrafted fallback, which the loop
// returns without running.
func (r *Runner) debugLoop(source string, in prompt.Input, cfg prompt.Config, opts Options,
	ex *pipescript.Executor, train, test *data.Table, ds *data.Dataset, res *Result, parent *obs.Span) (string, bool, error) {

	var lastFixBy string
	var lastCls errkb.Classified
	var preFixSource string

	// Whether an attempt's fix actually worked is only knowable one
	// iteration later, so traces are buffered and flushed once the next
	// execution reveals the outcome: Fixed means the run succeeded or the
	// error signature (category, type, code) changed; an attempt still
	// pending when the τ₂ budget runs out is flushed unfixed.
	var pending *errkb.Trace
	var pendingCls errkb.Classified
	flush := func(fixed bool) {
		if pending == nil {
			return
		}
		pending.Fixed = fixed
		r.Traces.Add(*pending)
		pending = nil
	}

	for attempt := 1; attempt <= opts.MaxAttempts; attempt++ {
		execErr := parseAndExecute(ex, source, train, test)
		if execErr == nil {
			flush(true)
			// A successful run right after an LLM repair is a learning
			// opportunity: generalize the fix into the knowledge base so
			// the next occurrence is patched locally (§4.2).
			if lastFixBy == "llm" && r.KB != nil {
				r.KB.LearnFromFix(preFixSource, source, lastCls)
			}
			return source, true, nil
		}
		res.Cost.Attempts++
		cls := errkb.Classify(execErr)
		if pending != nil {
			flush(cls.Category != pendingCls.Category || cls.Type != pendingCls.Type || cls.Code != pendingCls.Code)
		}
		res.Errors = append(res.Errors, cls)

		asp := parent.Child("debug-attempt")
		asp.SetInt("attempt", int64(attempt))
		asp.SetStr("category", cls.Category.String())
		asp.SetStr("type", cls.Type)
		asp.SetStr("code", cls.Code)

		fixedBy := ""
		preFixSource = source
		if r.KB != nil {
			// A patch that leaves the source unchanged cannot fix the error;
			// counting it as a fix would burn a τ₂ attempt re-running the
			// identical pipeline. Fall through to the LLM repair instead.
			if patched, ok := r.KB.TryPatch(source, cls); ok && patched != source {
				source = patched
				res.Cost.KBFixes++
				fixedBy = "kb"
			}
		}
		if fixedBy == "" {
			var relevant []prompt.ColumnMeta
			if cls.Category == errkb.CategoryRE {
				relevant = relevantColumns(in, cls)
			}
			ep := prompt.FormatErrorPrompt(in, source, cls.Line, cls.Code, cls.Msg, relevant, cfg)
			fresp, ferr := r.Client.Complete(ep.Text)
			if ferr != nil {
				asp.End()
				return "", false, fmt.Errorf("core: llm error fix: %w", ferr)
			}
			res.Cost.ErrorPromptTokens += fresp.Usage.PromptTokens
			res.Cost.ErrorCompletionTokens += fresp.Usage.CompletionTokens
			res.Cost.LLMCalls++
			res.Cost.LLMFixes++
			r.observeGenCall("error-fix", fresp.Usage)
			asp.SetInt("tokens", int64(fresp.Usage.PromptTokens+fresp.Usage.CompletionTokens))
			source = fresp.Text
			fixedBy = "llm"
		}
		asp.SetStr("fixedBy", fixedBy)
		asp.End()
		if r.Metrics != nil {
			r.Metrics.Counter("catdb_fixes_total", "by", fixedBy, "category", cls.Category.String()).Inc()
		}
		lastFixBy, lastCls = fixedBy, cls
		if r.Traces != nil {
			pending = &errkb.Trace{
				Model: r.Client.Name(), Dataset: ds.Name,
				Category: cls.Category.String(), Type: cls.Type, Code: cls.Code,
				Attempt: attempt, FixedBy: fixedBy,
			}
			pendingCls = cls
		}
	}
	flush(false)
	res.Handcrafted = true
	parent.SetBool("handcrafted", true)
	if r.Metrics != nil {
		r.Metrics.Counter("catdb_handcrafted_total").Inc()
	}
	return HandcraftPipeline(in), false, nil
}

// resumeOnFullData continues error correction when the validated pipeline
// fails on the complete dataset. The returned duration is the debug-loop
// share of the resume — LLM repair rounds, not the final execution — so
// the caller can book it under GenTime rather than ExecTime.
func (r *Runner) resumeOnFullData(source string, firstErr error, in prompt.Input, cfg prompt.Config,
	opts Options, train, test *data.Table, ds *data.Dataset, res *Result, parent *obs.Span) (string, *pipescript.Result, time.Duration, error) {

	sp := parent.Child("resume-debug")
	sp.SetStr("cause", errkb.Classify(firstErr).Code)
	defer sp.End()
	ex := r.executor(ds, opts)
	ex.Span = sp
	dstart := obs.Now()
	fixed, _, err := r.debugLoop(source, in, cfg, opts, ex, train, test, ds, res, sp)
	genDur := obs.Since(dstart)
	if err != nil {
		return "", nil, genDur, err
	}
	prog, perr := pipescript.Parse(fixed)
	if perr != nil {
		return "", nil, genDur, perr
	}
	execRes, xerr := ex.Execute(prog, train, test)
	return fixed, execRes, genDur, xerr
}

// parseAndExecute is Algorithm 4's PARSEANDEXECUTE: syntax check first
// (ast analogue), then a runtime check on local data. The loop keeps only
// whether and how the run failed, so the runtime check is Executor.Check:
// the program runs in full but trains the cheapest model of the requested
// kind, which fails exactly when the full fit would. Scores come only from
// the full execution that follows the loop.
func parseAndExecute(ex *pipescript.Executor, source string, train, test *data.Table) error {
	prog, err := pipescript.Parse(source)
	if err != nil {
		return err
	}
	return ex.Check(prog, train, test)
}

// relevantColumns filters and projects the metadata relevant to an error
// (Algorithm 4's GETCATALOGDATA): the column named in the message if any,
// plus every column with missing values for NaN errors and every string
// column for encoding errors.
func relevantColumns(in prompt.Input, cls errkb.Classified) []prompt.ColumnMeta {
	named := firstQuoted(cls.Msg)
	var out []prompt.ColumnMeta
	for _, c := range in.Cols {
		switch {
		case c.Name == named:
			out = append(out, c)
		case cls.Code == pipescript.ErrNaNInMatrix && c.MissingPct > 0:
			out = append(out, c)
		case cls.Code == pipescript.ErrStringInMatrix && c.DataType == data.KindString:
			out = append(out, c)
		case cls.Code == pipescript.ErrUnknownColumn:
			out = append(out, c) // the fixer needs the full schema to re-map
		}
	}
	if len(out) == 0 {
		return in.Cols
	}
	return out
}

// firstQuoted extracts the first quoted token from an error message. Error
// sources are inconsistent about quote style, so double quotes, backticks,
// and single quotes are all accepted (the earliest opening quote wins, and
// the token must be closed by the same character).
func firstQuoted(s string) string {
	start, quote := -1, byte(0)
	for i := 0; i < len(s); i++ {
		c := s[i]
		if start < 0 {
			if c == '"' || c == '`' || c == '\'' {
				start, quote = i+1, c
			}
			continue
		}
		if c == quote {
			return s[start:i]
		}
	}
	return ""
}

// HandcraftPipeline is the safety-net pipeline of Algorithm 4: impute
// everything, encode every string column, train a robust default model.
func HandcraftPipeline(in prompt.Input) string {
	src := fmt.Sprintf("pipeline %q\n", in.Dataset+"-handcrafted")
	src += "impute_all strategy=auto\n"
	for _, c := range in.Cols {
		if c.IsTarget || c.DataType != data.KindString {
			continue
		}
		if c.DistinctCount > 64 {
			src += fmt.Sprintf("hash_encode %q buckets=64\n", c.Name)
		} else {
			src += fmt.Sprintf("onehot %q\n", c.Name)
		}
	}
	src += "drop_constant\n"
	src += fmt.Sprintf("train model=random_forest target=%q trees=50\n", in.Target)
	src += "evaluate metric=auto\n"
	return src
}

// EstimateCost evaluates Equation 1 (single prompt) for reporting: γ·L(Pp)
// plus the error-prompt terms actually incurred.
func EstimateCost(c Cost) int { return c.Total() }
