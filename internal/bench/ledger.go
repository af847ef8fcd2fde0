package bench

import (
	"fmt"

	"catdb/internal/core"
	"catdb/internal/obs/ledger"
)

// ledgerRecord adapts a completed core.Result into the persistent run
// ledger's schema. The config hash covers the full run identity —
// dataset, model, variant, harness scale, and the run's own options
// (seed, metadata combo, metadata-only, top-K, chains, no-refine) — so
// `benchjson -compare` only ever diffs runs of the same configuration;
// e.g. Figure 10's eleven metadata combos on one dataset all hash
// differently even though their Results look alike.
func (c Config) ledgerRecord(opts core.Options, res *core.Result) ledger.Record {
	rec := ledger.Record{
		ConfigHash: ledger.ConfigHash(
			res.Dataset, res.Model, res.Variant,
			fmt.Sprint(c.Scale),
			fmt.Sprint(opts.Seed), fmt.Sprint(opts.Combo), fmt.Sprint(opts.MetadataOnly),
			fmt.Sprint(opts.TopK), fmt.Sprint(opts.Chains), fmt.Sprint(opts.NoRefine),
		),
		Dataset: res.Dataset,
		Model:   res.Model,
		Variant: res.Variant,
		Seed:    opts.Seed,
		StageSeconds: map[string]float64{
			"profile":  res.ProfileTime.Seconds(),
			"refine":   res.RefineTime.Seconds(),
			"generate": res.GenTime.Seconds(),
			"exec":     res.ExecTime.Seconds(),
		},
		Tokens: map[string]int{
			"prompt":           res.Cost.PromptTokens,
			"completion":       res.Cost.CompletionTokens,
			"error_prompt":     res.Cost.ErrorPromptTokens,
			"error_completion": res.Cost.ErrorCompletionTokens,
		},
		LLMCalls:    res.Cost.LLMCalls,
		Attempts:    res.Cost.Attempts,
		KBFixes:     res.Cost.KBFixes,
		LLMFixes:    res.Cost.LLMFixes,
		Handcrafted: res.Handcrafted,
	}
	if x := res.Exec; x != nil {
		rec.Metrics = map[string]float64{}
		if x.Metric == "r2" {
			rec.Metrics["test_r2"] = x.TestR2
			rec.Metrics["test_rmse"] = x.TestRMSE
		} else {
			rec.Metrics["test_acc"] = x.TestAcc
			rec.Metrics["test_auc"] = x.TestAUC
		}
	}
	return rec
}
