package main

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"time"

	"catdb/internal/catalog"
	"catdb/internal/core"
	"catdb/internal/data"
	"catdb/internal/llm"
	"catdb/internal/pipescript"
	"catdb/internal/pool"
)

// workload is one grid of CatDB runs plus the deployment that follows
// them. Registry datasets are fixed by name and scale, and each cell's
// simulated LLM has a fixed seed of its own, so the same faults are
// injected whatever the workload seed; the workload seed drives every
// run's split, validation sample and model randomness. A serve-shaped
// workload instead generates one large table (from serveDataSeed),
// generates the pipeline on its first GenRows rows and deploys it on the
// next DeployRows.
type workload struct {
	Name     string   `json:"name"`
	Why      string   `json:"why"`
	Datasets []string `json:"datasets,omitempty"`
	Scale    float64  `json:"scale,omitempty"`
	Models   []string `json:"models"`
	// Chains lists β per cell: 1 is CatDB, 3 is CatDB Chain.
	Chains []int `json:"chains"`

	ServeRows       int     `json:"serve_rows,omitempty"`
	GenRows         int     `json:"gen_rows,omitempty"`
	DeployRows      int     `json:"deploy_rows,omitempty"`
	DeployTrainFrac float64 `json:"deploy_train_frac,omitempty"`

	// BatchRows is how many held-out rows each deployment scores in
	// 512-row batches, cycling through them (0 = each held-out row once).
	BatchRows int `json:"batch_rows,omitempty"`
	// SingleRows is how many single-row Predict requests a pass issues,
	// spread evenly over the deployed pipelines.
	SingleRows int `json:"single_rows"`
}

var workloads = []*workload{
	{
		Name:       "gen-repair",
		Why:        "small datasets crossed with every LLM and both variants: the repair loop, prompts and sample validation do the work",
		Datasets:   []string{"Wifi", "Diabetes", "Tic-Tac-Toe", "CMC", "EU-IT", "Etailing", "Utility"},
		Scale:      0.2,
		Models:     llm.ModelNames(),
		Chains:     []int{1, 3},
		BatchRows:  2048,
		SingleRows: 4200,
	},
	{
		Name:            "serve",
		Why:             "one large NYC-shaped table: CSV ingest, fitting and applying recorded parameters to held-out rows dominate",
		ServeRows:       200000,
		GenRows:         1000,
		DeployRows:      10000,
		DeployTrainFrac: 0.2,
		Models:          []string{"gpt-4o"},
		Chains:          []int{1},
		SingleRows:      1000,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

// smoke returns a small version of the workload with the same shape, for
// the benchmark's own tests.
func (w *workload) smoke() *workload {
	s := *w
	switch {
	case w.ServeRows > 0:
		s.ServeRows, s.GenRows, s.DeployRows = 12000, 1500, 6000
	default:
		s.Datasets = w.Datasets[:2]
		s.Models = w.Models[:1]
		s.Scale = w.Scale / 2
	}
	s.SingleRows = 100
	return &s
}

// source is one dataset of a workload: the generated reference and its
// CSV encoding, one file per table.
type source struct {
	ds   *data.Dataset
	csvs [][]byte
}

// inputs is what set-up hands to every pass.
type inputs struct {
	seed    int64
	sources []source
}

// setup generates the workload's datasets and encodes them as CSV.
func (w *workload) setup(seed int64) (*inputs, error) {
	var dss []*data.Dataset
	if w.ServeRows > 0 {
		ds, err := data.Generate(serveSpec(w.ServeRows), serveDataSeed)
		if err != nil {
			return nil, err
		}
		dss = append(dss, ds)
	}
	for _, name := range w.Datasets {
		ds, err := data.Load(name, w.Scale)
		if err != nil {
			return nil, err
		}
		dss = append(dss, ds)
	}
	in := &inputs{seed: seed}
	for _, ds := range dss {
		src := source{ds: ds}
		for _, t := range ds.Tables {
			var b bytes.Buffer
			if err := data.WriteCSV(&b, t); err != nil {
				return nil, err
			}
			src.csvs = append(src.csvs, b.Bytes())
		}
		in.sources = append(in.sources, src)
	}
	return in, nil
}

// serveDataSeed generates the serve table. It is fixed, as registry
// datasets are, because the table decides which pipeline the LLM writes:
// under seeds 0-20 a table generated from the workload seed gave one of
// two pipelines whose Fit and Predict costs differ, which spread the
// serve metrics between seeds by more than the run-to-run noise.
const serveDataSeed = 0

// serveSpec is an NYC-shaped regression table: 16 features (numeric,
// low- and high-cardinality categorical, some missing) and the target.
func serveSpec(rows int) data.Spec {
	cols := []data.ColumnSpec{
		{Name: "trip_distance", Type: data.ColNumeric, Mean: 3, Std: 2.5, Weight: 1.5, OutlierRate: 0.002},
		{Name: "pickup_hour", Type: data.ColNumeric, Mean: 13, Std: 6, Weight: 0.5},
		{Name: "passenger_count", Type: data.ColNumeric, Mean: 1.6, Std: 1.2, Weight: 0.1},
		{Name: "pickup_zone", Type: data.ColCategorical, Cardinality: 40, Weight: 0.7},
		{Name: "dropoff_zone", Type: data.ColCategorical, Cardinality: 40, Weight: 0.5},
		{Name: "vendor", Type: data.ColCategorical, Cardinality: 3},
		{Name: "payment_type", Type: data.ColCategorical, Cardinality: 5, Weight: 0.2},
		{Name: "tolls", Type: data.ColNumeric, Mean: 0.4, Std: 1.5, Weight: 0.4},
	}
	for i := 0; i < 8; i++ {
		cols = append(cols, data.ColumnSpec{
			Name: fmt.Sprintf("meta%d", i+1), Type: data.ColNumeric,
			Mean: float64(i%7) * 3, Std: 1 + float64(i%5)/2, Weight: 0.6 * float64(1-i%4/3),
			MissingRate: 0.05,
		})
	}
	return data.Spec{Name: "Trips", Rows: rows, Task: data.Regression, NoiseStd: 0.2,
		Description: "Taxi trips; predict the total amount.", Columns: cols}
}

// cellResult is the outcome of one grid cell. Every field but WallS is
// deterministic for a seed and is checked against the cells file.
type cellResult struct {
	Dataset  string  `json:"dataset"`
	Model    string  `json:"model"`
	Variant  string  `json:"variant"`
	LLMSeed  int64   `json:"llm_seed"`
	WallS    float64 `json:"wall_s"`
	Tokens   int     `json:"tokens"`
	Attempts int     `json:"attempts"`
	KBFixes  int     `json:"kb_fixes"`
	LLMFixes int     `json:"llm_fixes"`
	Fallback bool    `json:"fallback"`
	Score    float64 `json:"score"`
	// FitScore is the held-out score of the fitted serving artifact, set
	// on the one cell per dataset that is deployed.
	FitScore *float64 `json:"fit_score,omitempty"`
}

func (c cellResult) key() string { return c.Dataset + "/" + c.Model + "/" + c.Variant }

// passStats is what one pass measured. Every pass issues the same calls
// in the same order, so the i-th entry of each time list is the same call
// in every pass.
type passStats struct {
	wall       time.Duration // stopwatch time of the whole pass
	cells      []cellResult  // one per Runner.Run
	runT       []time.Duration
	ingestT    []time.Duration
	refineT    []time.Duration // deployment refinements
	fitT       []time.Duration
	batchT     []time.Duration
	rowLat     []time.Duration
	batchRows  int
	refused    int           // held-out rows left out because Predict would refuse them
	bytes      int           // CSV bytes ingested
	ingestMed  time.Duration // median read of all CSV files after the pass
	allocBytes uint64
	settled    rtReading // collections forced by settle, left out of the traced GC counts
	probes     []time.Duration
	attempted  int
	failed     int
}

// passRun carries one pass's state. Its stopwatch stops while the
// benchmark does client-side work (slicing tables, building request
// batches, checking outputs, traced-pass replays), so pass wall time is
// the time spent inside the library's public calls and between them.
type passRun struct {
	w   *workload
	in  *inputs
	tr  *tracing // nil for untraced passes
	chk *checker
	sw  stopwatch
	p   *passStats
}

// pass runs the user flow once over every dataset of the workload.
func (w *workload) pass(in *inputs, tr *tracing, chk *checker) *passStats {
	pr := &passRun{w: w, in: in, tr: tr, chk: chk, p: &passStats{}}
	alloc0 := heapAllocBytes()
	pr.sw.start()
	cell := 0
	for _, src := range in.sources {
		pr.settle()
		ds := pr.ingest(src)
		if ds == nil {
			continue
		}
		genDS, deployDS := ds, ds
		if w.ServeRows > 0 {
			pr.sw.stop()
			genDS, deployDS = w.serveSlices(ds)
			pr.sw.start()
		}
		var deployed *deployCell
		for _, model := range w.Models {
			for _, chains := range w.Chains {
				llmSeed := pool.DeriveSeed(0, cell, ds.Name, model)
				cell++
				pr.settle()
				res, ok := pr.runCell(genDS, model, chains, llmSeed)
				if ok && deployed == nil {
					deployed = &deployCell{res: res, model: model, llmSeed: llmSeed, idx: len(pr.p.cells) - 1}
				}
			}
		}
		if deployed != nil {
			pr.deploy(deployDS, deployed)
		}
	}
	pr.p.wall = pr.sw.stop()
	pr.p.allocBytes = heapAllocBytes() - alloc0
	pr.settle()
	pr.p.ingestMed = ingestProbe(in)
	return pr.p
}

// settle collects the garbage left so far with the stopwatch stopped, so
// that each timed call starts from the same heap state in every pass and
// under every seed. Without it a collection of serve's large live heap
// lands inside whichever call happens to cross the GC trigger, and which
// call that is shifts with the seed. It then times the reference probe
// (probe.go) twice.
func (pr *passRun) settle() {
	running := pr.sw.running
	pr.sw.stop()
	before := readRuntime()
	runtime.GC()
	after := readRuntime()
	pr.p.settled.cycles += after.cycles - before.cycles
	pr.p.settled.pauseS += after.pauseS - before.pauseS
	pr.p.probes = append(pr.p.probes, probe(), probe())
	if running {
		pr.sw.start()
	}
}

// ingestProbe reads all of the workload's CSV files again, repeatedly
// for at least a quarter of a second, and returns the median repeat.
// The pass's own reads are too short on small workloads to time alone.
func ingestProbe(in *inputs) time.Duration {
	var took []float64
	start := time.Now()
	for len(took) == 0 || time.Since(start) < 250*time.Millisecond {
		t0 := time.Now()
		for _, src := range in.sources {
			for i, b := range src.csvs {
				if _, err := data.ReadCSV(bytes.NewReader(b), src.ds.Tables[i].Name); err != nil {
					return 0
				}
			}
		}
		took = append(took, time.Since(t0).Seconds())
	}
	return time.Duration(median(took) * float64(time.Second))
}

// ingest reads every table of a source back from its CSV encoding.
func (pr *passRun) ingest(src source) *data.Dataset {
	ds := &data.Dataset{Name: src.ds.Name, Primary: src.ds.Primary, Target: src.ds.Target,
		Task: src.ds.Task, Description: src.ds.Description,
		Relations: append([]data.Relation(nil), src.ds.Relations...)}
	for i, ref := range src.ds.Tables {
		pr.p.attempted++
		sp := pr.tr.root("ingest")
		start := time.Now()
		t, err := data.ReadCSV(bytes.NewReader(src.csvs[i]), ref.Name)
		pr.p.ingestT = append(pr.p.ingestT, time.Since(start))
		sp.End()
		pr.p.bytes += len(src.csvs[i])
		if err != nil {
			pr.p.failed++
			pr.chk.fail(src.ds.Name, "ReadCSV %s: %v", ref.Name, err)
			return nil
		}
		pr.sw.stop()
		pr.chk.sameTable(src.ds.Name, ref, t)
		pr.sw.start()
		ds.Tables = append(ds.Tables, t)
	}
	return ds
}

// serveSlices splits a serve-shaped table into the generation sample and
// the deployment rows.
func (w *workload) serveSlices(ds *data.Dataset) (gen, deploy *data.Dataset) {
	t := ds.PrimaryTable()
	rows := make([]int, w.DeployRows)
	for i := range rows {
		rows[i] = w.GenRows + i
	}
	slice := func(t *data.Table) *data.Dataset {
		out := *ds
		out.Tables = []*data.Table{t}
		return &out
	}
	return slice(t.Head(w.GenRows)), slice(t.SelectRows(rows))
}

// runCell is one catdb.PipGen call: a fresh client and runner per run, so
// nothing is cached across runs.
func (pr *passRun) runCell(ds *data.Dataset, model string, chains int, llmSeed int64) (*core.Result, bool) {
	pr.p.attempted++
	cr := cellResult{Dataset: ds.Name, Model: model, Variant: variantName(chains), LLMSeed: llmSeed}
	client, err := llm.New(model, llmSeed)
	if err != nil {
		pr.p.failed++
		pr.chk.fail(cr.key(), "llm.New: %v", err)
		return nil, false
	}
	r := core.NewRunner(pr.tr.client(client))
	pr.tr.attach(r)
	start := time.Now()
	res, err := r.Run(ds, core.Options{Seed: pr.in.seed, Chains: chains})
	took := time.Since(start)
	cr.WallS = took.Seconds()
	pr.p.runT = append(pr.p.runT, took)
	if err != nil {
		pr.p.failed++
		pr.chk.fail(cr.key(), "Run: %v", err)
		return nil, false
	}
	cr.Tokens = res.Cost.Total()
	cr.Attempts = res.Cost.Attempts
	cr.KBFixes = res.Cost.KBFixes
	cr.LLMFixes = res.Cost.LLMFixes
	cr.Fallback = res.Handcrafted
	cr.Score = res.Exec.Primary()
	pr.p.cells = append(pr.p.cells, cr)
	if pr.tr != nil {
		pr.sw.stop()
		pr.tr.replayRun(pr, ds, res, client.Name(), llmSeed)
		pr.sw.start()
	}
	return res, true
}

func variantName(chains int) string {
	if chains > 1 {
		return "CatDB Chain"
	}
	return "CatDB"
}

// deployCell names the run whose pipeline a dataset deploys.
type deployCell struct {
	res     *core.Result
	model   string
	llmSeed int64
	idx     int // index into passStats.cells
}

// refineAndSplit repeats the run's data preparation: a fresh client with
// the run's seed reproduces its catalog refinement exactly, and the split
// uses the run's seed and train share.
func refineAndSplit(ds *data.Dataset, client llm.Client, seed int64, trainFrac float64) (train, test *data.Table, err error) {
	ref, err := catalog.RefineDataset(ds, client, catalog.Options{Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	if ds.Task.IsClassification() {
		train, test = ref.Table.StratifiedSplit(ds.Target, trainFrac, seed)
	} else {
		train, test = ref.Table.Split(trainFrac, seed)
	}
	return train, test, nil
}

const batchSize = 512

// accepted returns the rows the artifact can serve. Predict refuses a
// batch in which a fitted feature is still missing after the recorded
// steps (E_FEATURE_NAN), which happens where a generated pipeline imputes
// only the columns that had gaps in its training split. The executor's
// own scoring zero-fills those cells instead, so such rows are left out
// of serving, counted, and reported.
func accepted(fp *pipescript.FittedPipeline, rows *data.Table) ([]int, error) {
	tt, err := fp.Transform(rows)
	if err != nil {
		return nil, err
	}
	var keep []int
	for i := 0; i < tt.NumRows(); i++ {
		ok := true
		for _, f := range fp.Features {
			c := tt.Col(f)
			if c == nil || !c.Kind.IsNumeric() || c.IsMissing(i) {
				ok = false
				break
			}
		}
		if ok {
			keep = append(keep, i)
		}
	}
	return keep, nil
}

// deploy turns one generated pipeline into a serving artifact and scores
// the held-out rows with it: in 512-row batches, then one row at a time.
func (pr *passRun) deploy(ds *data.Dataset, d *deployCell) {
	cr := &pr.p.cells[d.idx]
	name := cr.key()
	pr.p.attempted++
	client, err := llm.New(d.model, d.llmSeed)
	if err != nil {
		pr.p.failed++
		pr.chk.fail(name, "llm.New: %v", err)
		return
	}
	trainFrac := 0.7
	if pr.w.DeployTrainFrac > 0 {
		trainFrac = pr.w.DeployTrainFrac
	}
	pr.settle()
	sp := pr.tr.root("deploy-refine")
	start := time.Now()
	train, test, err := refineAndSplit(ds, pr.tr.client(client), pr.in.seed, trainFrac)
	pr.p.refineT = append(pr.p.refineT, time.Since(start))
	sp.End()
	if err != nil {
		pr.p.failed++
		pr.chk.fail(name, "refine: %v", err)
		return
	}
	prog, err := pipescript.Parse(d.res.Pipeline)
	if err != nil {
		pr.p.failed++
		pr.chk.fail(name, "parse final pipeline: %v", err)
		return
	}
	ex := &pipescript.Executor{Target: ds.Target, Task: ds.Task, Seed: pr.in.seed, CapturePredictions: true}
	pr.settle()
	sp = pr.tr.root("fit")
	start = time.Now()
	res, fp, err := ex.Fit(prog, train, test)
	pr.p.fitT = append(pr.p.fitT, time.Since(start))
	sp.End()
	if err != nil {
		pr.p.failed++
		pr.chk.fail(name, "Fit: %v", err)
		return
	}

	pr.sw.stop()
	score := res.Primary()
	cr.FitScore = &score
	if pr.w.ServeRows == 0 && score != cr.Score {
		// The deployment repeats the run's refinement and split, so the
		// artifact must score exactly what the run reported.
		pr.chk.fail(name, "fit score %v != run score %v", score, cr.Score)
	}
	if pr.tr != nil {
		pr.tr.replayFit(pr, prog, ds, train, test, sp)
	}
	rows := test.Clone()
	rows.DropColumn(ds.Target)
	keep, err := accepted(fp, rows)
	if err != nil || len(keep) == 0 {
		pr.p.failed++
		pr.chk.fail(name, "no held-out row is servable (%d rows): %v", rows.NumRows(), err)
		pr.sw.start()
		return
	}
	pr.p.refused += rows.NumRows() - len(keep)
	want := make([]float64, len(keep))
	for k, i := range keep {
		want[k] = res.TestPredictions[i]
	}
	rows = rows.SelectRows(keep)
	n := rows.NumRows()
	total := n
	if pr.w.BatchRows > 0 {
		total = pr.w.BatchRows
	}
	var batches []*data.Table
	for off := 0; off < total; off += batchSize {
		idx := make([]int, 0, batchSize)
		for i := off; i < total && i < off+batchSize; i++ {
			idx = append(idx, i%n)
		}
		batches = append(batches, rows.SelectRows(idx))
	}
	for len(want) < total {
		want = append(want, want[len(want)%n])
	}
	singles := pr.w.SingleRows / len(pr.in.sources)
	one := make([]*data.Table, singles)
	for i := range one {
		one[i] = rows.SelectRows([]int{i % n})
	}
	pr.settle()
	pr.sw.start()

	var got []float64
	for _, b := range batches {
		pr.p.attempted++
		sp := pr.tr.root("predict")
		start := time.Now()
		out, err := fp.Predict(b)
		took := time.Since(start)
		sp.End()
		pr.p.batchT = append(pr.p.batchT, took)
		pr.p.batchRows += b.NumRows()
		if err != nil {
			pr.p.failed++
			pr.chk.fail(name, "Predict batch: %v", err)
			return
		}
		got = append(got, out.Values...)
		if pr.tr != nil {
			pr.sw.stop()
			pr.tr.replayTransform(fp, b, sp)
			pr.sw.start()
		}
	}
	pr.sw.stop()
	pr.chk.sameFloats(name, "batched predictions vs executor capture", got, want)
	pr.settle()
	pr.sw.start()

	for i, row := range one {
		pr.p.attempted++
		sp := pr.tr.root("predict")
		start := time.Now()
		out, err := fp.Predict(row)
		took := time.Since(start)
		sp.End()
		pr.p.rowLat = append(pr.p.rowLat, took)
		if err != nil {
			pr.p.failed++
			pr.chk.fail(name, "Predict row: %v", err)
			return
		}
		pr.sw.stop()
		if want := got[i%n]; len(out.Values) != 1 || out.Values[0] != want {
			pr.chk.fail(name, "single-row prediction %d = %v, batched %v", i%n, out.Values, want)
		}
		if pr.tr != nil {
			pr.tr.replayTransform(fp, row, sp)
		}
		pr.sw.start()
	}
}
