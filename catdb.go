// Package catdb is the public API of the CatDB reproduction: a
// data-catalog-guided, LLM-based generator of data-centric ML pipelines
// (Fathollahzadeh, Mansour, Boehm — PVLDB 18(8), 2025; demonstrated at
// SIGMOD 2025).
//
// The API mirrors the paper's user API (§2):
//
//	md  := catdb.Collect(ds)                  // md = catdb_collect(M)
//	llm := catdb.NewLLM("gemini-1.5-pro", 1)  // llm = LLM(model, url, config)
//	p   := catdb.PipGen(ds, llm, opts)        // P = catdb_pipgen(md, llm)
//	// p.Pipeline: source code of the generated pipeline
//	// p.Exec:     outputs of the pipeline's execution
//
// Everything underneath — profiling, catalog refinement, prompt
// construction, pipeline parsing/execution, error management, ML models,
// baselines, and the benchmark harness — lives in internal packages and is
// re-exported here through type aliases where users need to touch it.
package catdb

import (
	"fmt"
	"io"

	"catdb/internal/catalog"
	"catdb/internal/core"
	"catdb/internal/data"
	"catdb/internal/llm"
	"catdb/internal/obs"
	"catdb/internal/pipescript"
	"catdb/internal/pool"
	"catdb/internal/profile"
)

// Core data types (aliases into the tabular substrate).
type (
	// Dataset is a possibly multi-table dataset with target and task.
	Dataset = data.Dataset
	// Table is a single in-memory table. Its Cols slice is read-only to
	// callers: change columns through AddColumn, DropColumn and
	// ReplaceColumn, and do not rename a column while it belongs to a
	// table, because column names resolve through an index those methods
	// keep current.
	Table = data.Table
	// Column is one typed column with a missing-value mask.
	Column = data.Column
	// Task is the supervised learning task type.
	Task = data.Task
	// Relation is a foreign-key edge between dataset tables.
	Relation = data.Relation
)

// Task constants.
const (
	Binary     = data.Binary
	Multiclass = data.Multiclass
	Regression = data.Regression
)

// Catalog and generation types.
type (
	// Profile is the data-catalog profile of a dataset (Algorithm 1).
	Profile = profile.Profile
	// RefineResult is the outcome of catalog refinement (§3.2).
	RefineResult = catalog.Result
	// LLM is the language-model client interface.
	LLM = llm.Client
	// Options configures pipeline generation (α, β, τ₂, metadata combos).
	Options = core.Options
	// Result is a generated-and-executed pipeline with cost accounting.
	Result = core.Result
	// PipelineResult carries the execution metrics of a pipeline run.
	PipelineResult = pipescript.Result
)

// LoadDataset generates one of the twenty built-in synthetic analogues of
// the paper's evaluation datasets (Table 3) at the given scale; scale 1.0
// yields the registry's default row counts.
func LoadDataset(name string, scale float64) (*Dataset, error) {
	return data.Load(name, scale)
}

// DatasetNames lists the built-in datasets in Table 3 order.
func DatasetNames() []string { return data.Names() }

// ReadCSV loads a single-table dataset from a CSV stream; target and task
// describe the prediction problem.
func ReadCSV(r io.Reader, name, target string, task Task) (*Dataset, error) {
	t, err := data.ReadCSV(r, name)
	if err != nil {
		return nil, err
	}
	ds := &Dataset{Name: name, Tables: []*Table{t}, Primary: name, Target: target, Task: task}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	return ds, nil
}

// ReadCSVFile is ReadCSV over a file path.
func ReadCSVFile(path, target string, task Task) (*Dataset, error) {
	t, err := data.ReadCSVFile(path)
	if err != nil {
		return nil, err
	}
	t.Name = path
	ds := &Dataset{Name: path, Tables: []*Table{t}, Primary: path, Target: target, Task: task}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	return ds, nil
}

// Collect profiles a dataset into its data-catalog metadata — the
// md = catdb_collect(M) call of the paper's user API.
func Collect(ds *Dataset) (*Profile, error) {
	return profile.Dataset(ds, profile.Options{})
}

// NewLLM configures a language model client — the llm = LLM(model,
// client_url, config) call. Supported models: "gpt-4o", "gemini-1.5-pro",
// "llama3.1-70b" (simulated; see DESIGN.md for the substitution rationale).
func NewLLM(model string, seed int64) (LLM, error) {
	return llm.New(model, seed)
}

// ModelNames lists the supported model names.
func ModelNames() []string { return llm.ModelNames() }

// Refine applies the §3.2 catalog refinements (feature-type inference,
// categorical dedup, composite splitting, sentence extraction, list k-hot)
// and materializes the prepared dataset.
func Refine(ds *Dataset, client LLM) (*RefineResult, error) {
	return catalog.RefineDataset(ds, client, catalog.Options{})
}

// PipGen generates, validates, and executes a data-centric ML pipeline —
// the P = catdb_pipgen(md, llm) call. The result carries the pipeline
// source (P.code) and the execution metrics (P.results).
func PipGen(ds *Dataset, client LLM, opts Options) (*Result, error) {
	if client == nil {
		return nil, fmt.Errorf("catdb: nil LLM client")
	}
	return core.NewRunner(client).Run(ds, opts)
}

// Observability types (aliases into internal/obs).
type (
	// Tracer records a hierarchical span tree per PIPEGEN run: run →
	// refine / profile / prompt-build / generate (with one debug-attempt
	// span per error-correction iteration) / exec. Export with
	// WriteJSONL or WriteTree; nil disables tracing with zero overhead.
	Tracer = obs.Tracer
	// Span is one node of a Tracer's span tree.
	Span = obs.Span
	// Metrics is a registry of counters, gauges, and bounded histograms
	// with Prometheus-style text exposition (WriteProm): LLM calls and
	// tokens by prompt kind, KB-vs-LLM fixes by error category, cache
	// hits, pool utilization, and per-stage latencies.
	Metrics = obs.Registry
)

// NewTracer returns an empty span tracer safe for concurrent use.
func NewTracer() *Tracer { return obs.New() }

// NewMetrics returns an empty metrics registry safe for concurrent use.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// PipGenObserved is PipGen with observability attached: the run's span
// tree is recorded into tracer and its counters/latencies into metrics
// (either may be nil). Observed and unobserved runs produce identical
// pipelines and results — instrumentation never changes behavior.
func PipGenObserved(ds *Dataset, client LLM, opts Options, tracer *Tracer, metrics *Metrics) (*Result, error) {
	if client == nil {
		return nil, fmt.Errorf("catdb: nil LLM client")
	}
	r := core.NewRunner(client)
	r.Tracer = tracer
	r.Metrics = metrics
	return r.Run(ds, opts)
}

// PipGenJob is one pipeline-generation request in a ParallelPipGen batch.
type PipGenJob struct {
	Dataset *Dataset
	Model   string // LLM model name (see ModelNames)
	Seed    int64  // base seed; the job's client seed is derived from it
	Options Options
}

// PipGenOutcome pairs one job's generated pipeline with its error; exactly
// one of Result and Err is non-nil.
type PipGenOutcome struct {
	Result *Result
	Err    error
}

// ParallelPipGen runs a batch of PipGen jobs on a bounded worker pool and
// returns the outcomes in job order. Each job gets its own LLM client whose
// seed is derived deterministically from the job's base seed, position,
// dataset name, and model, so outcomes are identical at any worker count
// (workers <= 0 defaults to GOMAXPROCS; workers == 1 runs serially).
func ParallelPipGen(jobs []PipGenJob, workers int) []PipGenOutcome {
	outs := make([]PipGenOutcome, len(jobs))
	err := pool.Each(workers, len(jobs), func(i int) error {
		j := jobs[i]
		if j.Dataset == nil {
			outs[i].Err = fmt.Errorf("catdb: job %d: nil dataset", i)
			return nil
		}
		client, err := llm.New(j.Model, pool.DeriveSeed(j.Seed, i, j.Dataset.Name, j.Model))
		if err != nil {
			outs[i].Err = err
			return nil
		}
		res, err := core.NewRunner(client).Run(j.Dataset, j.Options)
		if err != nil {
			outs[i].Err = err
			return nil
		}
		outs[i].Result = res
		return nil
	})
	if err != nil {
		// Only a panicking job fails the batch. It, and every job the
		// pool did not start after it, reports its *pool.PanicError.
		for i := range outs {
			if outs[i].Result == nil && outs[i].Err == nil {
				outs[i].Err = err
			}
		}
	}
	return outs
}

// ExecutePipeline parses and runs a PipeScript pipeline against an
// explicit train/test split — for users who want to re-run or hand-edit a
// generated pipeline.
func ExecutePipeline(source string, train, test *Table, target string, task Task, seed int64) (*PipelineResult, error) {
	return ExecutePipelineWith(source, train, test, target, task, seed, ExecOptions{})
}

// ExecOptions tunes how ExecutePipelineWith and FitPipelineWith run a
// pipeline. The zero value reproduces ExecutePipeline / FitPipeline.
type ExecOptions struct {
	// Workers is the one execution knob: it bounds the goroutines of
	// the tree/KNN model fits and inference (0 = all cores, 1 =
	// serial). Statements run one at a time in program order. Results
	// and fitted artifacts are bit-identical at any value; only wall
	// time changes.
	Workers int
	// Metrics, when set, records execution counters and latency
	// histograms (catdb_pipescript_*) into the registry — the same
	// registry an ops server serves at /metrics. Nil disables recording
	// with zero overhead.
	Metrics *Metrics
	// TraceSpan, when set, parents one stmt span per executed statement
	// (op and line attributes) under an existing span, so live ops-plane
	// views and the critical-path/flamegraph exporters see inside
	// pipeline execution. Observation only: results are bit-identical
	// with or without it.
	TraceSpan *Span
}

// ExecutePipelineWith is ExecutePipeline with execution tuning.
func ExecutePipelineWith(source string, train, test *Table, target string, task Task, seed int64, opts ExecOptions) (*PipelineResult, error) {
	prog, err := pipescript.Parse(source)
	if err != nil {
		return nil, err
	}
	ex := &pipescript.Executor{Target: target, Task: task, Seed: seed,
		Workers: opts.Workers, Metrics: opts.Metrics, Span: opts.TraceSpan}
	return ex.Execute(prog, train, test)
}

// Serving types (aliases into the pipeline executor).
type (
	// FittedPipeline is the versioned, serializable artifact a fit run
	// produces: every fitted preprocessing parameter plus the trained
	// model. Apply it to new row batches with Predict; steps touching the
	// label column are never recorded, so serving cannot read labels.
	FittedPipeline = pipescript.FittedPipeline
	// Predictions is the output of scoring a row batch with an artifact.
	Predictions = pipescript.Predictions
	// ArtifactError is a serving-contract failure (schema drift, corrupt
	// artifact) with a machine-readable Code.
	ArtifactError = pipescript.ArtifactError
)

// FitPipeline parses and runs a PipeScript pipeline like ExecutePipeline
// and additionally returns the fitted-pipeline artifact. The artifact's
// Predict on the test rows is bit-identical to the executor's own
// held-out scoring — both funnel through the same fitted-step code.
func FitPipeline(source string, train, test *Table, target string, task Task, seed int64) (*PipelineResult, *FittedPipeline, error) {
	return FitPipelineWith(source, train, test, target, task, seed, ExecOptions{})
}

// FitPipelineWith is FitPipeline with execution tuning. The fitted
// artifact is byte-identical at any Workers setting.
func FitPipelineWith(source string, train, test *Table, target string, task Task, seed int64, opts ExecOptions) (*PipelineResult, *FittedPipeline, error) {
	prog, err := pipescript.Parse(source)
	if err != nil {
		return nil, nil, err
	}
	ex := &pipescript.Executor{Target: target, Task: task, Seed: seed,
		Workers: opts.Workers, Metrics: opts.Metrics, Span: opts.TraceSpan}
	return ex.Fit(prog, train, test)
}

// Predict applies a fitted-pipeline artifact to a batch of raw rows:
// recorded preprocessing first, then model inference (512-row chunks,
// identical output at any Workers setting). The rows need the raw feature
// columns the pipeline was fitted on — never the target column.
func Predict(fp *FittedPipeline, rows *Table) (*Predictions, error) {
	return fp.Predict(rows)
}

// LoadFittedPipeline reads and version-checks a fitted-pipeline artifact.
func LoadFittedPipeline(r io.Reader) (*FittedPipeline, error) {
	return pipescript.LoadFittedPipeline(r)
}

// LoadFittedPipelineFile is LoadFittedPipeline over a file path.
func LoadFittedPipelineFile(path string) (*FittedPipeline, error) {
	return pipescript.LoadFittedPipelineFile(path)
}

// ReadTableCSV reads one raw table from a CSV stream — the row-batch
// loader for Predict, with no target or task attached.
func ReadTableCSV(r io.Reader, name string) (*Table, error) {
	return data.ReadCSV(r, name)
}
