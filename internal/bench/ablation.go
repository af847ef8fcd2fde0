package bench

import (
	"fmt"

	"catdb/internal/core"
	"catdb/internal/data"
	"catdb/internal/llm"
	"catdb/internal/obs"
)

// AblationRow is one (dataset, variant) aggregate over repeated runs.
type AblationRow struct {
	Dataset     string
	Variant     string
	MeanScore   float64
	Fails       int
	Runs        int
	Attempts    int // error-correction attempts across runs
	ErrTokens   int // error-management tokens across runs
	KBFixes     int
	Handcrafted int // times the τ₂ fallback fired
}

// AblationResult holds the design-choice ablation study.
type AblationResult struct {
	Rows []AblationRow
}

// Get returns the row for a dataset/variant pair, or nil.
func (r *AblationResult) Get(dataset, variant string) *AblationRow {
	for i := range r.Rows {
		if r.Rows[i].Dataset == dataset && r.Rows[i].Variant == variant {
			return &r.Rows[i]
		}
	}
	return nil
}

// ablationVariants isolates CatDB's design choices, one per row:
// rules, catalog refinement, the local knowledge base, the static
// code-analysis repair pass, and the τ₂ error-correction budget.
var ablationVariants = []struct {
	name string
	opts func(seed int64) core.Options
	noKB bool
}{
	{"full", func(s int64) core.Options { return core.Options{Seed: s} }, false},
	{"no-rules", func(s int64) core.Options { return core.Options{Seed: s, MetadataOnly: true} }, false},
	{"no-refine", func(s int64) core.Options { return core.Options{Seed: s, NoRefine: true} }, false},
	{"no-kb", func(s int64) core.Options { return core.Options{Seed: s} }, true},
	{"static-repair", func(s int64) core.Options { return core.Options{Seed: s, StaticRepair: true} }, false},
	{"tau2=1", func(s int64) core.Options { return core.Options{Seed: s, MaxAttempts: 1} }, false},
}

// RunAblation measures the contribution of each CatDB design choice on a
// dirty multiclass dataset and a regression dataset, using the
// error-prone Llama personality so the error-management ablations have
// signal.
func RunAblation(cfg Config) (*AblationResult, error) {
	cfg = cfg.withDefaults()
	res := &AblationResult{}
	datasets := []string{"Etailing", "Utility"}
	if cfg.Fast {
		datasets = datasets[:1]
	}
	// One cell per (dataset, variant, iteration); per-run outcomes are
	// folded into the per-variant aggregates in iteration order.
	type cell struct {
		ds      *data.Dataset
		variant int
		iter    int
	}
	type runOut struct {
		failed      bool
		score       float64
		attempts    int
		errTokens   int
		kbFixes     int
		handcrafted bool
	}
	var cells []cell
	for _, name := range datasets {
		ds, err := data.Load(name, cfg.Scale)
		if err != nil {
			return nil, err
		}
		for vi := range ablationVariants {
			for i := 0; i < cfg.Iterations; i++ {
				cells = append(cells, cell{ds: ds, variant: vi, iter: i})
			}
		}
	}
	outs, err := mapCells(cfg, "ablation", len(cells), func(k int, sp *obs.Span) (runOut, error) {
		c := cells[k]
		v := ablationVariants[c.variant]
		sp.SetStr("dataset", c.ds.Name)
		sp.SetStr("variant", v.name)
		seed := cfg.Seed + int64(c.iter)*53
		client, cerr := llm.New("llama3.1-70b", seed)
		if cerr != nil {
			return runOut{}, cerr
		}
		r := core.NewRunner(client)
		r.ProfileCache = cfg.ProfileCache
		cfg.instrument(r, sp)
		if v.noKB {
			r.KB = nil
		}
		out, rerr := r.Run(c.ds, v.opts(seed))
		if rerr != nil {
			return runOut{failed: true}, nil
		}
		return runOut{
			score: out.Exec.Primary(), attempts: out.Cost.Attempts,
			errTokens: out.Cost.ErrorTokens(), kbFixes: out.Cost.KBFixes,
			handcrafted: out.Handcrafted,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for k := 0; k < len(cells); k += cfg.Iterations {
		c := cells[k]
		row := AblationRow{Dataset: c.ds.Name, Variant: ablationVariants[c.variant].name}
		var scoreSum float64
		for i := 0; i < cfg.Iterations; i++ {
			o := outs[k+i]
			row.Runs++
			if o.failed {
				row.Fails++
				continue
			}
			scoreSum += o.score
			row.Attempts += o.attempts
			row.ErrTokens += o.errTokens
			row.KBFixes += o.kbFixes
			if o.handcrafted {
				row.Handcrafted++
			}
		}
		if ok := row.Runs - row.Fails; ok > 0 {
			row.MeanScore = scoreSum / float64(ok)
		}
		res.Rows = append(res.Rows, row)
	}

	t := &table{header: []string{"Dataset", "Variant", "Score", "Attempts", "ErrTokens", "KBFixes", "Handcrafted", "Fails"}}
	for _, r := range res.Rows {
		t.add(r.Dataset, r.Variant, f1(r.MeanScore),
			fmt.Sprint(r.Attempts), fmt.Sprint(r.ErrTokens),
			fmt.Sprint(r.KBFixes), fmt.Sprint(r.Handcrafted), fmt.Sprint(r.Fails))
	}
	t.render(cfg.Out, "Ablation: contribution of CatDB's design choices (LLM = Llama)")
	return res, nil
}
