package bench

import (
	"fmt"
	"time"

	"catdb/internal/baselines"
	"catdb/internal/core"
	"catdb/internal/data"
	"catdb/internal/llm"
	"catdb/internal/obs"
)

// table78Datasets are the eight datasets of the single-iteration study
// (§5.5, Tables 7 and 8).
var table78Datasets = []string{
	"Airline", "IMDB", "Accidents", "Financial",
	"CMC", "Bike-Sharing", "House-Sales", "NYC",
}

// Table7Row is one (dataset, model, system) single-iteration outcome.
type Table7Row struct {
	Dataset string
	Model   string
	System  string
	Score   float64 // test AUC or R² in [0,100]
	Failed  bool
	Reason  string
	Tokens  int
	ErrTok  int
	Total   time.Duration
}

// Table7Result holds the single-iteration sweep (Tables 7 and 8 plus the
// Figure 13 token decomposition share these runs).
type Table7Result struct {
	Rows []Table7Row
}

// Get returns the row for a (dataset, model, system) triple, or nil.
func (r *Table7Result) Get(dataset, model, system string) *Table7Row {
	for i := range r.Rows {
		row := &r.Rows[i]
		if row.Dataset == dataset && row.Model == model && row.System == system {
			return row
		}
	}
	return nil
}

// RunTable7SingleIteration reproduces Table 7: one generation (with up to
// 15 error-correction attempts) per dataset/LLM/system, AutoML tools with
// a budget matched to the measured CatDB runtime.
func RunTable7SingleIteration(cfg Config) (*Table7Result, error) {
	cfg = cfg.withDefaults()
	res := &Table7Result{}
	datasets := table78Datasets
	models := llm.ModelNames()
	if cfg.Fast {
		datasets = []string{"CMC", "Bike-Sharing"}
		models = models[:1]
	}
	// Two phases: the LLM-driven systems are independent cells, but the
	// AutoML tools need the measured CatDB runtime of their dataset as a
	// time budget, so they only fan out after every LLM cell of that
	// dataset has finished.
	type prep struct {
		ds     *data.Dataset
		tr, te *data.Table
	}
	preps := make([]prep, len(datasets))
	for i, name := range datasets {
		ds, err := data.Load(name, cfg.Scale)
		if err != nil {
			return nil, err
		}
		tb, err := ds.Consolidate()
		if err != nil {
			return nil, err
		}
		var tr, te *data.Table
		if ds.Task.IsClassification() {
			tr, te = tb.StratifiedSplit(ds.Target, 0.7, cfg.Seed)
		} else {
			tr, te = tb.Split(0.7, cfg.Seed)
		}
		preps[i] = prep{ds: ds, tr: tr, te: te}
	}

	// Phase 1: LLM systems, one cell per (dataset, model, system), in the
	// paper's row order.
	var llmCells []func(sp *obs.Span) (Table7Row, error)
	for di := range preps {
		p := preps[di]
		name := datasets[di]
		for _, model := range models {
			model := model
			for _, v := range []struct {
				label  string
				chains int
			}{{"CatDB", 1}, {"CatDB Chain", 3}} {
				v := v
				llmCells = append(llmCells, func(sp *obs.Span) (Table7Row, error) {
					client, cerr := llm.New(model, cfg.Seed+int64(len(model))+int64(v.chains))
					if cerr != nil {
						return Table7Row{}, cerr
					}
					r := core.NewRunner(client)
					r.ProfileCache = cfg.ProfileCache
					cfg.instrument(r, sp)
					out, rerr := r.Run(p.ds, core.Options{Seed: cfg.Seed, Chains: v.chains})
					row := Table7Row{Dataset: name, Model: model, System: v.label}
					if rerr != nil {
						row.Failed, row.Reason = true, rerr.Error()
					} else {
						row.Score = out.Exec.Primary()
						row.Tokens = out.Cost.Total()
						row.ErrTok = out.Cost.ErrorTokens()
						row.Total = out.TotalTime()
					}
					return row, nil
				})
			}
			for _, backend := range []baselines.CAAFEBackend{baselines.CAAFETabPFN, baselines.CAAFEForest} {
				backend := backend
				llmCells = append(llmCells, func(*obs.Span) (Table7Row, error) {
					o := baselines.RunCAAFE(p.tr, p.te, p.ds.Target, p.ds.Task, baselines.CAAFEOptions{
						Backend: backend, Seed: cfg.Seed, Rounds: 2, MaxPairs: 40,
					})
					return outcomeToT7(name, model, o), nil
				})
			}
			llmCells = append(llmCells, func(*obs.Span) (Table7Row, error) {
				clientA, _ := llm.New(model, cfg.Seed+41)
				return outcomeToT7(name, model,
					baselines.RunAIDE(p.ds, clientA, baselines.LLMBaselineOptions{Seed: cfg.Seed})), nil
			})
			llmCells = append(llmCells, func(*obs.Span) (Table7Row, error) {
				clientG, _ := llm.New(model, cfg.Seed+43)
				return outcomeToT7(name, model,
					baselines.RunAutoGen(p.ds, clientG, baselines.LLMBaselineOptions{Seed: cfg.Seed})), nil
			})
		}
	}
	llmRows, err := mapCells(cfg, "table7-llm", len(llmCells), func(i int, sp *obs.Span) (Table7Row, error) { return llmCells[i](sp) })
	if err != nil {
		return nil, err
	}

	// Phase 2: AutoML tools (model-independent), budget = measured CatDB
	// time of the dataset.
	rowsPerDataset := len(models) * 6 // CatDB, Chain, CAAFE x2, AIDE, AutoGen
	budgets := make([]time.Duration, len(datasets))
	for di := range datasets {
		var catdbRuntime time.Duration
		for _, row := range llmRows[di*rowsPerDataset : (di+1)*rowsPerDataset] {
			if row.System == "CatDB" && !row.Failed && row.Total > catdbRuntime {
				catdbRuntime = row.Total
			}
		}
		if catdbRuntime < 5*time.Second {
			catdbRuntime = 5 * time.Second
		}
		// Fast mode is for CI: cap the wall-clock budget so slow runners
		// (race detector, loaded machines) don't inflate the AutoML phase.
		if cfg.Fast && catdbRuntime > 5*time.Second {
			catdbRuntime = 5 * time.Second
		}
		budgets[di] = catdbRuntime
	}
	tools := baselines.AutoMLTools()
	autoPerDataset := len(tools) + 1 // tools + cleaning workflow
	autoRows, err := mapCells(cfg, "table7-automl", len(datasets)*autoPerDataset, func(k int, sp *obs.Span) (Table7Row, error) {
		di, ti := k/autoPerDataset, k%autoPerDataset
		sp.SetStr("dataset", datasets[di])
		p := preps[di]
		opts := baselines.AutoMLOptions{Seed: cfg.Seed, TimeBudget: budgets[di]}
		if ti < len(tools) {
			o := baselines.RunAutoML(tools[ti], p.tr, p.te, p.ds.Target, p.ds.Task, opts)
			return outcomeToT7(datasets[di], "-", o), nil
		}
		// Cleaning + AutoML workflow (FLAML as representative).
		wo, _ := baselines.RunCleaningWorkflow(baselines.CleanL2C, baselines.FLAML, p.tr, p.te,
			p.ds.Target, p.ds.Task, opts)
		return outcomeToT7(datasets[di], "-", wo), nil
	})
	if err != nil {
		return nil, err
	}

	// Reassemble in the serial order: per dataset, the LLM rows then the
	// AutoML rows.
	for di := range datasets {
		res.Rows = append(res.Rows, llmRows[di*rowsPerDataset:(di+1)*rowsPerDataset]...)
		res.Rows = append(res.Rows, autoRows[di*autoPerDataset:(di+1)*autoPerDataset]...)
	}

	t := &table{header: []string{"Dataset", "LLM", "System", "AUC/R2", "Tokens", "ErrTokens", "Total[s]"}}
	for _, r := range res.Rows {
		t.add(r.Dataset, r.Model, r.System,
			orNA(r.Failed, r.Reason, f1(r.Score)),
			fmt.Sprint(r.Tokens), fmt.Sprint(r.ErrTok), secs(r.Total))
	}
	t.render(cfg.Out, "Table 7 (+Figure 13 tokens): Single-Iteration Performance")
	return res, nil
}

func outcomeToT7(dataset, model string, o baselines.Outcome) Table7Row {
	return Table7Row{
		Dataset: dataset, Model: model, System: o.System,
		Score: o.Primary(), Failed: o.Failed, Reason: o.Reason,
		Tokens: o.Tokens, Total: o.Total(),
	}
}

// Table8Row is one (system, model) end-to-end runtime aggregate.
type Table8Row struct {
	System string
	Model  string
	Fail   int
	AvgSec float64
	SumSec float64
}

// Table8Result holds the end-to-end runtime aggregation of Table 8,
// derived from the Table 7 sweep.
type Table8Result struct {
	Rows []Table8Row
}

// AggregateTable8 folds a Table 7 sweep into Table 8's Fail/AVG/SUM rows.
func AggregateTable8(t7 *Table7Result) *Table8Result {
	type key struct{ system, model string }
	sums := map[key]*Table8Row{}
	counts := map[key]int{}
	var order []key
	for _, r := range t7.Rows {
		if r.Model == "-" {
			continue // AutoML tools are not LLM-dependent
		}
		k := key{r.System, r.Model}
		row, ok := sums[k]
		if !ok {
			row = &Table8Row{System: r.System, Model: r.Model}
			sums[k] = row
			order = append(order, k)
		}
		if r.Failed {
			row.Fail++
			continue
		}
		counts[k]++
		row.SumSec += r.Total.Seconds()
	}
	out := &Table8Result{}
	for _, k := range order {
		row := sums[k]
		if counts[k] > 0 {
			row.AvgSec = row.SumSec / float64(counts[k])
		}
		out.Rows = append(out.Rows, *row)
	}
	return out
}

// RunTable8EndToEnd runs the Table 7 sweep and prints the Table 8 view.
func RunTable8EndToEnd(cfg Config) (*Table8Result, error) {
	cfg = cfg.withDefaults()
	t7, err := RunTable7SingleIteration(Config{
		Scale: cfg.Scale, Seed: cfg.Seed, Fast: cfg.Fast,
		Tracer: cfg.Tracer, Metrics: cfg.Metrics, Progress: cfg.Progress,
	})
	if err != nil {
		return nil, err
	}
	res := AggregateTable8(t7)
	t := &table{header: []string{"Baseline", "LLM", "Fail", "AVG[s]", "SUM[s]"}}
	for _, r := range res.Rows {
		t.add(r.System, r.Model, fmt.Sprint(r.Fail), fmt.Sprintf("%.1f", r.AvgSec), fmt.Sprintf("%.1f", r.SumSec))
	}
	t.render(cfg.Out, "Table 8: End-to-End Runtime Across LLMs")
	return res, nil
}
