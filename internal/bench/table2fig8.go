package bench

import (
	"fmt"
	"sort"

	"catdb/internal/core"
	"catdb/internal/data"
	"catdb/internal/errkb"
	"catdb/internal/llm"
	"catdb/internal/obs"
)

// Table2Result holds the error-trace dataset statistics (Table 2) and the
// error-type histogram (Figure 8).
type Table2Result struct {
	Store         *errkb.TraceStore
	Distributions []errkb.Distribution
	Histogram     map[string]int
}

// RunTable2ErrorTraces reproduces the error-trace dataset of §4.2: many
// pipeline generations across datasets and models, every encountered
// error classified and recorded, then summarized as the per-model KB/SE/RE
// distribution (Table 2) and the 23-type histogram (Figure 8).
func RunTable2ErrorTraces(cfg Config) (*Table2Result, error) {
	cfg = cfg.withDefaults()
	store := errkb.NewTraceStore()
	datasets := []string{"Diabetes", "CMC", "Utility", "Etailing"}
	models := []string{"llama3.1-70b", "gemini-1.5-pro"}
	runs := cfg.Iterations
	if cfg.Fast {
		datasets = datasets[:2]
		runs = 3
	}
	// One cell per (model, dataset, iteration); every cell gets its own
	// client, runner, and trace store (the shared TraceStore would make
	// trace order scheduling-dependent), and the per-cell stores are
	// merged back in the serial loop order.
	type cell struct {
		model, dataset string
		ds             *data.Dataset
		iter           int
	}
	var cells []cell
	for _, model := range models {
		for _, name := range datasets {
			ds, err := data.Load(name, cfg.Scale)
			if err != nil {
				return nil, err
			}
			for i := 0; i < runs; i++ {
				cells = append(cells, cell{model: model, dataset: name, ds: ds, iter: i})
			}
		}
	}
	stores, err := mapCells(cfg, "table2", len(cells), func(k int, sp *obs.Span) (*errkb.TraceStore, error) {
		c := cells[k]
		sp.SetStr("dataset", c.dataset)
		sp.SetStr("model", c.model)
		client, cerr := llm.New(c.model, cfg.Seed+int64(c.iter)*977)
		if cerr != nil {
			return nil, cerr
		}
		r := core.NewRunner(client)
		r.ProfileCache = cfg.ProfileCache
		cfg.instrument(r, sp)
		r.Traces = errkb.NewTraceStore()
		// NoRefine keeps the runs cheap; refinement does not change the
		// generation-error profile.
		if _, err := r.Run(c.ds, core.Options{Seed: cfg.Seed + int64(c.iter), NoRefine: true}); err != nil {
			return nil, err
		}
		return r.Traces, nil
	})
	if err != nil {
		return nil, err
	}
	for _, s := range stores {
		store.Traces = append(store.Traces, s.Traces...)
	}
	res := &Table2Result{
		Store:         store,
		Distributions: store.DistributionByModel(),
		Histogram:     store.TypeHistogram(),
	}

	t := &table{header: []string{"LLM", "Total Errors", "KB [%]", "SE [%]", "RE [%]"}}
	for _, d := range res.Distributions {
		t.add(d.Model, fmt.Sprint(d.TotalRequests),
			fmt.Sprintf("%.3f", d.KBPct), fmt.Sprintf("%.3f", d.SEPct), fmt.Sprintf("%.3f", d.REPct))
	}
	t.render(cfg.Out, "Table 2: Error Distributions of Error Trace Dataset")

	t2 := &table{header: []string{"ErrorType", "Count"}}
	types := make([]string, 0, len(res.Histogram))
	for typ := range res.Histogram {
		types = append(types, typ)
	}
	sort.Slice(types, func(i, j int) bool {
		if res.Histogram[types[i]] != res.Histogram[types[j]] {
			return res.Histogram[types[i]] > res.Histogram[types[j]]
		}
		return types[i] < types[j]
	})
	for _, typ := range types {
		t2.add(typ, fmt.Sprint(res.Histogram[typ]))
	}
	t2.render(cfg.Out, "Figure 8: Ratio and Distribution of Errors")
	return res, nil
}
