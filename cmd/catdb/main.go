// Command catdb is the CLI front end of the CatDB reproduction: profile a
// dataset, refine its catalog, and generate+execute a data-centric ML
// pipeline.
//
// Usage:
//
//	catdb datasets
//	catdb profile  -dataset Wifi | -csv file.csv -target y -task binary
//	catdb refine   -dataset Utility [-model gemini-1.5-pro]
//	catdb generate -dataset Diabetes [-model gpt-4o] [-chains 3] [-seed 1]
//	catdb fit      -dataset Diabetes -pipe p.pipe -out model.catdb.json
//	catdb predict  -artifact model.catdb.json -csv rows.csv [-proba]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"catdb"
	"catdb/internal/data"
	"catdb/internal/obs/opsserver"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "datasets":
		err = cmdDatasets()
	case "profile":
		err = cmdProfile(os.Args[2:])
	case "refine":
		err = cmdRefine(os.Args[2:])
	case "generate":
		err = cmdGenerate(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "fit":
		err = cmdFit(os.Args[2:])
	case "predict":
		err = cmdPredict(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "catdb:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: catdb <command> [flags]

commands:
  datasets   list the built-in synthetic datasets (Table 3 analogues)
  profile    profile a dataset into data-catalog metadata
  refine     run catalog refinement and report distinct-count reductions
  generate   generate, validate, and execute a pipeline (-export saves it)
  run        execute a saved .pipe file against a dataset
  fit        fit a saved .pipe file and export the artifact (-out model.json)
  predict    score CSV rows (file or stdin) with a fitted artifact`)
}

// startOps serves the live ops plane (/metrics, /api/spans,
// /debug/pprof) on addr for the duration of the command and starts the
// runtime collector against metrics. It returns a shutdown func; nil
// Options fields simply 404 their endpoints. Results are bit-identical
// with or without the server — it only reads snapshots.
func startOps(addr string, tracer *catdb.Tracer, metrics *catdb.Metrics) (func(), error) {
	srv, err := opsserver.Start(addr, opsserver.Options{Registry: metrics, Tracer: tracer})
	if err != nil {
		return nil, err
	}
	col := opsserver.NewCollector(metrics)
	col.Start(time.Second)
	fmt.Fprintf(os.Stderr, "ops server listening on %s\n", srv.URL())
	return func() {
		col.Stop()
		_ = srv.Close()
	}, nil
}

// dsFlags bundles the shared dataset-selection flags.
type dsFlags struct {
	dataset, csv, target, task *string
	scale                      *float64
}

// datasetFlags adds the shared dataset-selection flags.
func datasetFlags(fs *flag.FlagSet) *dsFlags {
	f := &dsFlags{}
	f.dataset = fs.String("dataset", "", "built-in dataset name (see `catdb datasets`)")
	f.csv = fs.String("csv", "", "path to a CSV file (single-table dataset)")
	f.target = fs.String("target", "", "target column (required with -csv)")
	f.task = fs.String("task", "binary", "task type with -csv: binary|multiclass|regression")
	f.scale = fs.Float64("scale", 0.2, "row-count scale for built-in datasets")
	return f
}

func (f *dsFlags) load() (*catdb.Dataset, error) {
	if *f.dataset != "" {
		return catdb.LoadDataset(*f.dataset, *f.scale)
	}
	if *f.csv == "" {
		return nil, fmt.Errorf("one of -dataset or -csv is required")
	}
	if *f.target == "" {
		return nil, fmt.Errorf("-target is required with -csv")
	}
	var tk catdb.Task
	switch *f.task {
	case "binary":
		tk = catdb.Binary
	case "multiclass":
		tk = catdb.Multiclass
	case "regression":
		tk = catdb.Regression
	default:
		return nil, fmt.Errorf("unknown task %q", *f.task)
	}
	return catdb.ReadCSVFile(*f.csv, *f.target, tk)
}

func cmdDatasets() error {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "ID\tName\tTables\tRows\tCols\tTask\tClasses\tPaperRows")
	for _, in := range data.AllInfo() {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%s\t%d\t%d\n",
			in.ID, in.Name, in.Tables, in.Rows, in.Cols, in.Task, in.Classes, data.PaperRows(in.Name))
	}
	return w.Flush()
}

func cmdProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	df := datasetFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ds, err := df.load()
	if err != nil {
		return err
	}
	prof, err := catdb.Collect(ds)
	if err != nil {
		return err
	}
	fmt.Printf("dataset=%s rows=%d cols=%d task=%s target=%s profiled in %s\n\n",
		prof.Dataset, prof.Rows, len(prof.Columns), prof.Task, prof.Target, prof.Elapsed)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Column\tType\tFeature\tDistinct%\tMissing%\tTargetCorr")
	for _, c := range prof.Columns {
		fmt.Fprintf(w, "%s\t%s\t%s\t%.1f\t%.1f\t%.2f\n",
			c.Name, c.DataType, c.FeatureType, c.DistinctPct, c.MissingPct, c.TargetCorr)
	}
	return w.Flush()
}

func cmdRefine(args []string) error {
	fs := flag.NewFlagSet("refine", flag.ExitOnError)
	df := datasetFlags(fs)
	model := fs.String("model", "gemini-1.5-pro", "LLM model name")
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ds, err := df.load()
	if err != nil {
		return err
	}
	client, err := catdb.NewLLM(*model, *seed)
	if err != nil {
		return err
	}
	ref, err := catdb.Refine(ds, client)
	if err != nil {
		return err
	}
	fmt.Printf("refined %s in %s: %d updates\n\n", ds.Name, ref.Elapsed, len(ref.Updates))
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Column\tRefinement\tOriginalDistinct\tRefinedDistinct")
	for _, up := range ref.Updates {
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\n", up.Column, up.Kind, up.OriginalDistinct, up.RefinedDistinct)
	}
	return w.Flush()
}

func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	df := datasetFlags(fs)
	model := fs.String("model", "gemini-1.5-pro", "LLM model name")
	seed := fs.Int64("seed", 1, "random seed")
	chains := fs.Int("chains", 1, "β: 1 = CatDB single prompt, >1 = CatDB Chain")
	topK := fs.Int("topk", 0, "α: keep only the K most relevant columns (0 = all)")
	noRefine := fs.Bool("no-refine", false, "skip catalog refinement")
	export := fs.String("export", "", "write the generated pipeline to this .pipe file")
	traceOut := fs.String("trace-out", "", "write the run's span trace to this file (.jsonl = JSON lines, otherwise a human-readable tree)")
	metricsOut := fs.String("metrics-out", "", "write run metrics in Prometheus text format to this file")
	listen := fs.String("listen", "", "serve the live ops plane on this address while generating (/metrics, /api/spans, /debug/pprof; results are bit-identical with or without it)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ds, err := df.load()
	if err != nil {
		return err
	}
	client, err := catdb.NewLLM(*model, *seed)
	if err != nil {
		return err
	}
	var tracer *catdb.Tracer
	var metrics *catdb.Metrics
	// -listen implies live tracing and metrics even without the file
	// exporters: the ops server exists to watch runs that were not
	// configured to save anything.
	if *traceOut != "" || *listen != "" {
		tracer = catdb.NewTracer()
	}
	if *metricsOut != "" || *listen != "" {
		metrics = catdb.NewMetrics()
	}
	if *listen != "" {
		stopOps, serr := startOps(*listen, tracer, metrics)
		if serr != nil {
			return serr
		}
		defer stopOps()
	}
	res, err := catdb.PipGenObserved(ds, client, catdb.Options{
		Seed: *seed, Chains: *chains, TopK: *topK, NoRefine: *noRefine,
	}, tracer, metrics)
	if werr := writeObsOutputs(tracer, metrics, *traceOut, *metricsOut); werr != nil && err == nil {
		err = werr
	}
	if err != nil {
		return err
	}
	fmt.Printf("=== %s pipeline for %s (model %s) ===\n%s\n", res.Variant, res.Dataset, res.Model, res.Pipeline)
	ex := res.Exec
	if ex.Metric == "r2" {
		fmt.Printf("train R2=%.2f  test R2=%.2f  RMSE=%.3f\n", ex.TrainR2, ex.TestR2, ex.TestRMSE)
	} else {
		fmt.Printf("train acc=%.2f auc=%.2f  test acc=%.2f auc=%.2f\n", ex.TrainAcc, ex.TrainAUC, ex.TestAcc, ex.TestAUC)
	}
	fmt.Printf("model=%s features=%d rows=%d\n", ex.ModelName, ex.Features, ex.TrainRows)
	fmt.Printf("cost: prompt=%d completion=%d errPrompt=%d errCompletion=%d (calls=%d, kbFixes=%d, llmFixes=%d)\n",
		res.Cost.PromptTokens, res.Cost.CompletionTokens, res.Cost.ErrorPromptTokens,
		res.Cost.ErrorCompletionTokens, res.Cost.LLMCalls, res.Cost.KBFixes, res.Cost.LLMFixes)
	fmt.Printf("time: profile=%s refine=%s generate=%s execute=%s total=%s\n",
		res.ProfileTime, res.RefineTime, res.GenTime, res.ExecTime, res.TotalTime())
	if *export != "" {
		if err := os.WriteFile(*export, []byte(res.Pipeline), 0o644); err != nil {
			return err
		}
		fmt.Printf("pipeline written to %s\n", *export)
	}
	return nil
}

// writeObsOutputs exports the collected span trace and metrics. It runs
// even when generation failed, so a failing run still leaves its partial
// trace behind for diagnosis.
func writeObsOutputs(tracer *catdb.Tracer, metrics *catdb.Metrics, tracePath, metricsPath string) error {
	if tracer != nil && tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		if strings.HasSuffix(tracePath, ".jsonl") {
			err = tracer.WriteJSONL(f)
		} else {
			err = tracer.WriteTree(f)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "trace written to %s\n", tracePath)
	}
	if metrics != nil && metricsPath != "" {
		f, err := os.Create(metricsPath)
		if err != nil {
			return err
		}
		err = metrics.WriteProm(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "metrics written to %s\n", metricsPath)
	}
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	df := datasetFlags(fs)
	pipe := fs.String("pipe", "", "path to a .pipe file (required)")
	seed := fs.Int64("seed", 1, "random seed")
	refine := fs.Bool("refine", false, "apply catalog refinement before running (use when the pipeline was generated without -no-refine)")
	model := fs.String("model", "gemini-1.5-pro", "LLM model for -refine")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pipe == "" {
		return fmt.Errorf("-pipe is required")
	}
	ds, tr, te, err := prepareSplit(df, *refine, *model, *seed)
	if err != nil {
		return err
	}
	src, err := os.ReadFile(*pipe)
	if err != nil {
		return err
	}
	res, err := catdb.ExecutePipeline(string(src), tr, te, ds.Target, ds.Task, *seed)
	if err != nil {
		return err
	}
	printExecResult(res)
	return nil
}

// prepareSplit loads a dataset, optionally refines it, and splits it
// 70/30 — the shared front half of `catdb run` and `catdb fit`.
func prepareSplit(df *dsFlags, refine bool, model string, seed int64) (*catdb.Dataset, *catdb.Table, *catdb.Table, error) {
	ds, err := df.load()
	if err != nil {
		return nil, nil, nil, err
	}
	var tb *catdb.Table
	if refine {
		client, err := catdb.NewLLM(model, seed)
		if err != nil {
			return nil, nil, nil, err
		}
		ref, err := catdb.Refine(ds, client)
		if err != nil {
			return nil, nil, nil, err
		}
		tb = ref.Table
	} else {
		tb, err = ds.Consolidate()
		if err != nil {
			return nil, nil, nil, err
		}
	}
	var tr, te *catdb.Table
	if ds.Task.IsClassification() {
		tr, te = tb.StratifiedSplit(ds.Target, 0.7, seed)
	} else {
		tr, te = tb.Split(0.7, seed)
	}
	return ds, tr, te, nil
}

func printExecResult(res *catdb.PipelineResult) {
	if res.Metric == "r2" {
		fmt.Printf("train R2=%.2f  test R2=%.2f  RMSE=%.3f\n", res.TrainR2, res.TestR2, res.TestRMSE)
	} else {
		fmt.Printf("train acc=%.2f auc=%.2f  test acc=%.2f auc=%.2f\n", res.TrainAcc, res.TrainAUC, res.TestAcc, res.TestAUC)
	}
	fmt.Printf("model=%s features=%d rows=%d\n", res.ModelName, res.Features, res.TrainRows)
}

func cmdFit(args []string) error {
	fs := flag.NewFlagSet("fit", flag.ExitOnError)
	df := datasetFlags(fs)
	pipe := fs.String("pipe", "", "path to a .pipe file (required)")
	seed := fs.Int64("seed", 1, "random seed")
	refine := fs.Bool("refine", false, "apply catalog refinement before fitting")
	model := fs.String("model", "gemini-1.5-pro", "LLM model for -refine")
	out := fs.String("out", "model.catdb.json", "fitted-pipeline artifact output path")
	listen := fs.String("listen", "", "serve the live ops plane on this address while fitting (/metrics, /api/spans, /debug/pprof; the artifact is byte-identical with or without it)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pipe == "" {
		return fmt.Errorf("-pipe is required")
	}
	var tracer *catdb.Tracer
	var metrics *catdb.Metrics
	var fitSpan *catdb.Span
	if *listen != "" {
		tracer = catdb.NewTracer()
		metrics = catdb.NewMetrics()
		fitSpan = tracer.Root("fit")
		stopOps, serr := startOps(*listen, tracer, metrics)
		if serr != nil {
			return serr
		}
		defer stopOps()
	}
	ds, tr, te, err := prepareSplit(df, *refine, *model, *seed)
	if err != nil {
		return err
	}
	src, err := os.ReadFile(*pipe)
	if err != nil {
		return err
	}
	res, fp, err := catdb.FitPipelineWith(string(src), tr, te, ds.Target, ds.Task, *seed,
		catdb.ExecOptions{Metrics: metrics, TraceSpan: fitSpan})
	fitSpan.End()
	if err != nil {
		return err
	}
	printExecResult(res)
	if err := fp.SaveFile(*out); err != nil {
		return err
	}
	fmt.Printf("artifact written to %s (%d steps, model=%s)\n", *out, len(fp.Steps), fp.ModelName)
	return nil
}

func cmdPredict(args []string) error {
	fs := flag.NewFlagSet("predict", flag.ExitOnError)
	artifact := fs.String("artifact", "", "fitted-pipeline artifact path (required)")
	csvPath := fs.String("csv", "", "CSV rows to score; '-' reads stdin (required)")
	proba := fs.Bool("proba", false, "classification: also emit per-class probability columns")
	metricsOut := fs.String("metrics-out", "", "write serving metrics in Prometheus text format to this file")
	listen := fs.String("listen", "", "serve the live ops plane on this address while scoring (/metrics, /debug/pprof; predictions are identical with or without it)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *artifact == "" {
		return fmt.Errorf("-artifact is required")
	}
	if *csvPath == "" {
		return fmt.Errorf("-csv is required ('-' for stdin)")
	}
	fp, err := catdb.LoadFittedPipelineFile(*artifact)
	if err != nil {
		return err
	}
	var metrics *catdb.Metrics
	if *metricsOut != "" || *listen != "" {
		metrics = catdb.NewMetrics()
		fp.Metrics = metrics
	}
	if *listen != "" {
		stopOps, serr := startOps(*listen, nil, metrics)
		if serr != nil {
			return serr
		}
		defer stopOps()
	}
	var in io.Reader = os.Stdin
	if *csvPath != "-" {
		f, err := os.Open(*csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	tb, err := catdb.ReadTableCSV(in, "batch")
	if err != nil {
		return err
	}
	pred, err := catdb.Predict(fp, tb)
	if werr := writeObsOutputs(nil, metrics, "", *metricsOut); werr != nil && err == nil {
		err = werr
	}
	if err != nil {
		return err
	}
	out := data.NewTable("predictions")
	if pred.Task == "regression" {
		out.MustAddColumn(data.NewString("prediction", formatFloats(pred.Values)))
	} else {
		out.MustAddColumn(data.NewString("prediction", pred.Labels))
	}
	if pred.Task != "regression" && *proba {
		for j, cl := range pred.Classes {
			p := make([]float64, pred.Rows)
			for i := range p {
				p[i] = pred.Proba[i][j]
			}
			if err := out.AddColumn(data.NewString("proba_"+cl, formatFloats(p))); err != nil {
				return err
			}
		}
	}
	if err := data.WriteCSV(os.Stdout, out); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "scored %d rows (task=%s model=%s)\n", pred.Rows, pred.Task, fp.ModelName)
	return nil
}

// formatFloats renders each value in its shortest exact form.
func formatFloats(vals []float64) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return out
}
