package bench

import (
	"fmt"
	"sort"

	"catdb/internal/baselines"
	"catdb/internal/core"
	"catdb/internal/data"
	"catdb/internal/llm"
	"catdb/internal/obs"
)

// iterDatasets are the three datasets of the 10-iteration study (§5.4).
var iterDatasets = []string{"Diabetes", "Gas-Drift", "Volkert"}

// Fig11Cell aggregates one (dataset, model, system) distribution over the
// repeated iterations.
type Fig11Cell struct {
	Dataset string
	Model   string
	System  string
	AUCs    []float64 // successful iterations only
	Fails   int
	// Cost/runtime aggregates reused by Figure 12.
	TotalTokens      int
	ErrTokens        int
	TotalGenSeconds  float64
	TotalExecSeconds float64
}

// Mean returns the mean AUC of successful iterations.
func (c *Fig11Cell) Mean() float64 {
	if len(c.AUCs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range c.AUCs {
		s += v
	}
	return s / float64(len(c.AUCs))
}

// MinMax returns the observed AUC range.
func (c *Fig11Cell) MinMax() (float64, float64) {
	if len(c.AUCs) == 0 {
		return 0, 0
	}
	sorted := append([]float64(nil), c.AUCs...)
	sort.Float64s(sorted)
	return sorted[0], sorted[len(sorted)-1]
}

// Fig11Result holds the 10-iteration quality and cost study (Figures 11
// and 12 share the same runs).
type Fig11Result struct {
	Cells []*Fig11Cell
}

// Get returns the cell for a (dataset, model, system) triple, or nil.
func (r *Fig11Result) Get(dataset, model, system string) *Fig11Cell {
	for _, c := range r.Cells {
		if c.Dataset == dataset && c.Model == model && c.System == system {
			return c
		}
	}
	return nil
}

// RunFig11TenIterations reproduces Figures 11 and 12: AUC distributions,
// token costs, and runtimes over repeated pipeline generations for CatDB,
// CatDB Chain, CAAFE (both backends), AIDE, and AutoGen across the three
// LLMs.
func RunFig11TenIterations(cfg Config) (*Fig11Result, error) {
	cfg = cfg.withDefaults()
	res := &Fig11Result{}
	datasets := iterDatasets
	models := llm.ModelNames()
	if cfg.Fast {
		datasets = []string{"Diabetes"}
		models = models[:2]
	}
	cell := func(dataset, model, system string) *Fig11Cell {
		if c := res.Get(dataset, model, system); c != nil {
			return c
		}
		c := &Fig11Cell{Dataset: dataset, Model: model, System: system}
		res.Cells = append(res.Cells, c)
		return c
	}
	// Each worker cell computes one (dataset, model, iteration, system)
	// outcome and returns it as a contribution; contributions are folded
	// into the Fig11Cell aggregates strictly in the serial loop order, so
	// AUC lists and token sums are identical at any worker count.
	type contrib struct {
		system            string
		failed            bool
		auc               float64
		tokens, errTokens int
		genSec, execSec   float64
	}
	type job func(sp *obs.Span) contrib
	var jobs []job
	for _, name := range datasets {
		ds, err := data.Load(name, cfg.Scale)
		if err != nil {
			return nil, err
		}
		tb, err := ds.Consolidate()
		if err != nil {
			return nil, err
		}
		tr, te := tb.StratifiedSplit(ds.Target, 0.7, cfg.Seed)
		for _, model := range models {
			model := model
			for iter := 0; iter < cfg.Iterations; iter++ {
				seed := cfg.Seed + int64(iter)*101

				// CatDB and CatDB Chain.
				for _, v := range []struct {
					label  string
					chains int
				}{{"CatDB", 1}, {"CatDB Chain", 2}} {
					v := v
					jobs = append(jobs, func(sp *obs.Span) contrib {
						c := contrib{system: v.label}
						client, cerr := llm.New(model, seed+int64(v.chains))
						if cerr != nil {
							c.failed = true
							return c
						}
						r := core.NewRunner(client)
						r.ProfileCache = cfg.ProfileCache
						cfg.instrument(r, sp)
						out, rerr := r.Run(ds, core.Options{Seed: seed, Chains: v.chains})
						if rerr != nil {
							c.failed = true
							return c
						}
						c.auc = out.Exec.TestAUC
						c.tokens = out.Cost.Total()
						c.errTokens = out.Cost.ErrorTokens()
						c.genSec = (out.ProfileTime + out.RefineTime + out.GenTime).Seconds()
						c.execSec = out.ExecTime.Seconds()
						return c
					})
				}

				// CAAFE (LLM-independent backend; run once per model for
				// token parity with the paper's setup).
				for _, backend := range []baselines.CAAFEBackend{baselines.CAAFETabPFN, baselines.CAAFEForest} {
					backend := backend
					jobs = append(jobs, func(*obs.Span) contrib {
						c := contrib{system: "CAAFE " + string(backend)}
						o := baselines.RunCAAFE(tr, te, ds.Target, ds.Task, baselines.CAAFEOptions{
							Backend: backend, Seed: seed, Rounds: 2, MaxPairs: 40,
						})
						if o.Failed {
							c.failed = true
							return c
						}
						c.auc = o.TestAUC
						c.tokens = o.Tokens
						c.genSec = o.GenTime.Seconds()
						c.execSec = o.ExecTime.Seconds()
						return c
					})
				}

				// AIDE and AutoGen.
				jobs = append(jobs, func(*obs.Span) contrib {
					c := contrib{system: "AIDE"}
					clientA, _ := llm.New(model, seed+31)
					o := baselines.RunAIDE(ds, clientA, baselines.LLMBaselineOptions{Seed: seed})
					if o.Failed {
						c.failed = true
						return c
					}
					c.auc, c.tokens, c.execSec = o.TestAUC, o.Tokens, o.ExecTime.Seconds()
					return c
				})
				jobs = append(jobs, func(*obs.Span) contrib {
					c := contrib{system: "AutoGen"}
					clientG, _ := llm.New(model, seed+37)
					o := baselines.RunAutoGen(ds, clientG, baselines.LLMBaselineOptions{Seed: seed})
					if o.Failed {
						c.failed = true
						return c
					}
					c.auc, c.tokens, c.execSec = o.TestAUC, o.Tokens, o.ExecTime.Seconds()
					return c
				})
			}
		}
	}
	// jobs[k] belongs to dataset jobOwner[k]: reconstruct the (dataset,
	// model) of each job from its position so the merge can address the
	// right aggregate without threading labels through every closure.
	jobsPerIter := 6 // CatDB, Chain, CAAFE x2, AIDE, AutoGen
	jobsPerModel := cfg.Iterations * jobsPerIter
	jobsPerDataset := len(models) * jobsPerModel
	contribs, err := mapCells(cfg, "fig1112", len(jobs), func(k int, sp *obs.Span) (contrib, error) { return jobs[k](sp), nil })
	if err != nil {
		return nil, err
	}
	for k, c := range contribs {
		name := datasets[k/jobsPerDataset]
		model := models[(k%jobsPerDataset)/jobsPerModel]
		agg := cell(name, model, c.system)
		if c.failed {
			agg.Fails++
			continue
		}
		agg.AUCs = append(agg.AUCs, c.auc)
		agg.TotalTokens += c.tokens
		agg.ErrTokens += c.errTokens
		agg.TotalGenSeconds += c.genSec
		agg.TotalExecSeconds += c.execSec
	}

	t := &table{header: []string{"Dataset", "Model", "System", "AUC mean", "AUC min", "AUC max", "Fails", "Tokens", "ErrTokens", "Gen[s]", "Exec[s]"}}
	for _, c := range res.Cells {
		lo, hi := c.MinMax()
		t.add(c.Dataset, c.Model, c.System, f1(c.Mean()), f1(lo), f1(hi),
			fmt.Sprint(c.Fails), fmt.Sprint(c.TotalTokens), fmt.Sprint(c.ErrTokens),
			fmt.Sprintf("%.2f", c.TotalGenSeconds), fmt.Sprintf("%.2f", c.TotalExecSeconds))
	}
	t.render(cfg.Out, fmt.Sprintf("Figures 11+12: %d-iteration quality, cost, and runtime", cfg.Iterations))
	return res, nil
}
