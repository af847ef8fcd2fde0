// Package catalog implements the data catalog and its LLM-assisted
// refinements of §3.2: feature-type inference over string columns
// (categorical / list / sentence / composite), categorical-value
// deduplication, composite-column splitting, sentence-token extraction,
// list k-hot materialization, and the materialization of the prepared
// dataset (Figures 4 and 5). It also records the per-column refinement
// updates reported in Table 4.
package catalog

import (
	"fmt"
	"strings"
	"time"

	"catdb/internal/data"
	"catdb/internal/llm"
	"catdb/internal/pipescript"
	"catdb/internal/profile"
)

// UpdateKind names one refinement action.
type UpdateKind string

// Refinement actions (§3.2).
const (
	UpdateDedup        UpdateKind = "dedup-categorical"
	UpdateSentence     UpdateKind = "sentence-to-categorical"
	UpdateList         UpdateKind = "list-k-hot"
	UpdateComposite    UpdateKind = "composite-split"
	UpdateDropConstant UpdateKind = "drop-constant"
)

// Update records one applied refinement: the Table 4 bookkeeping of
// original vs refined distinct counts.
type Update struct {
	Column           string
	Kind             UpdateKind
	OriginalDistinct int
	RefinedDistinct  int
	OriginalType     profile.FeatureType
	RefinedType      profile.FeatureType
	NewColumns       []string
}

// Result is the outcome of refining a dataset.
type Result struct {
	// Table is the materialized prepared dataset (single consolidated
	// table with refinements applied).
	Table *data.Table
	// Profile is the re-profiled refined table.
	Profile *profile.Profile
	// Updates lists every applied refinement in column order.
	Updates []Update
	// Elapsed is the wall time of refinement (Table 6's refined column).
	Elapsed time.Duration
}

const (
	// typeSamples is the values per type-inference request (paper: 10).
	typeSamples = 10
	// dedupBatch is the value-list batch size for dedup prompts.
	dedupBatch = 200
	// maxDedupDistinct skips dedup for columns with more distinct values
	// (they are not categorical candidates).
	maxDedupDistinct = 3000
)

// Options tunes refinement.
type Options struct {
	Seed int64
	// Cache, when set, memoizes the two profiling passes by table content
	// (nil falls back to direct profiling).
	Cache *profile.Cache
}

// RefineDataset consolidates a (multi-table) dataset and refines the
// result; this is CatDB's "Materializing Prepared Data" step, which joins
// multi-table datasets into a single table and applies value mappings.
func RefineDataset(ds *data.Dataset, client llm.Client, opts Options) (*Result, error) {
	t, err := ds.Consolidate()
	if err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	return Refine(t, ds.Target, ds.Task, client, opts)
}

// Refine applies the §3.2 refinement workflow to a single table in place
// of the original dataset (the paper overwrites the input dataset).
func Refine(t *data.Table, target string, task data.Task, client llm.Client, opts Options) (*Result, error) {
	start := time.Now()
	out := t.Clone()
	res := &Result{}

	prof, err := opts.Cache.Table(out, target, task, profile.Options{Samples: typeSamples, Seed: opts.Seed})
	if err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}

	// Pass 1: LLM feature-type inference on string columns, then the
	// structural refinements (split / extract / k-hot).
	for _, cp := range prof.Columns {
		col := out.Col(cp.Name)
		if col == nil || cp.IsTarget || col.Kind != data.KindString {
			continue
		}
		if cp.FeatureType == profile.FeatureConstant {
			out.DropColumn(cp.Name)
			res.Updates = append(res.Updates, Update{
				Column: cp.Name, Kind: UpdateDropConstant,
				OriginalDistinct: cp.DistinctCount, RefinedDistinct: 0,
				OriginalType: cp.FeatureType, RefinedType: profile.FeatureConstant,
			})
			continue
		}
		req := llm.BuildTypeRequest(cp.Name, cp.Samples)
		resp, cerr := client.Complete(req)
		if cerr != nil {
			return nil, fmt.Errorf("catalog: type inference for %q: %w", cp.Name, cerr)
		}
		switch llm.ParseTypeResponse(resp.Text) {
		case "list":
			items := pipescript.ListItems(col, 256)
			origDistinct := col.DistinctCount()
			if err := pipescript.KHot(out, cp.Name, items); err != nil {
				return nil, fmt.Errorf("catalog: k-hot %q: %w", cp.Name, err)
			}
			var newCols []string
			for _, c := range out.Cols {
				if strings.HasPrefix(c.Name, cp.Name+"__") {
					newCols = append(newCols, c.Name)
				}
			}
			res.Updates = append(res.Updates, Update{
				Column: cp.Name, Kind: UpdateList,
				OriginalDistinct: origDistinct, RefinedDistinct: len(items),
				OriginalType: cp.FeatureType, RefinedType: profile.FeatureList,
				NewColumns: newCols,
			})
		case "composite":
			origDistinct := col.DistinctCount()
			nameA, nameB := cp.Name+"_part", cp.Name+"_code"
			if err := pipescript.SplitComposite(out, cp.Name, nameA, nameB); err != nil {
				return nil, fmt.Errorf("catalog: split %q: %w", cp.Name, err)
			}
			refined := out.Col(nameA).DistinctCount()
			if d := out.Col(nameB).DistinctCount(); d > refined {
				refined = d
			}
			res.Updates = append(res.Updates, Update{
				Column: cp.Name, Kind: UpdateComposite,
				OriginalDistinct: origDistinct, RefinedDistinct: refined,
				OriginalType: cp.FeatureType, RefinedType: profile.FeatureCategorical,
				NewColumns: []string{nameA, nameB},
			})
		case "sentence":
			origDistinct := col.DistinctCount()
			pipescript.ExtractTokens(col)
			res.Updates = append(res.Updates, Update{
				Column: cp.Name, Kind: UpdateSentence,
				OriginalDistinct: origDistinct, RefinedDistinct: col.DistinctCount(),
				OriginalType: cp.FeatureType, RefinedType: profile.FeatureCategorical,
			})
		}
	}

	// Pass 2: categorical-value deduplication via the LLM (batched), on
	// every remaining string column including a string-valued target —
	// the EU-IT pathology lives in the target labels.
	for _, col := range out.Cols {
		if col.Kind != data.KindString {
			continue
		}
		if n := col.DistinctCount(); n < 2 || n > maxDedupDistinct {
			continue
		}
		distinct := col.Distinct()
		mapping := map[string]string{}
		for lo := 0; lo < len(distinct); lo += dedupBatch {
			hi := lo + dedupBatch
			if hi > len(distinct) {
				hi = len(distinct)
			}
			req := llm.BuildDedupRequest(col.Name, distinct[lo:hi])
			resp, cerr := client.Complete(req)
			if cerr != nil {
				return nil, fmt.Errorf("catalog: dedup for %q: %w", col.Name, cerr)
			}
			for raw, canon := range llm.ParseDedupResponse(resp.Text) {
				mapping[raw] = canon
			}
		}
		before := len(distinct)
		pipescript.ApplyValueMapping(col, mapping)
		after := col.DistinctCount()
		if after < before {
			res.Updates = append(res.Updates, Update{
				Column: col.Name, Kind: UpdateDedup,
				OriginalDistinct: before, RefinedDistinct: after,
				OriginalType: profile.FeatureCategorical, RefinedType: profile.FeatureCategorical,
			})
		}
	}

	refProf, err := opts.Cache.Table(out, target, task, profile.Options{Samples: typeSamples, Seed: opts.Seed})
	if err != nil {
		return nil, fmt.Errorf("catalog: re-profile: %w", err)
	}
	res.Table = out
	res.Profile = refProf
	res.Elapsed = time.Since(start)
	return res, nil
}

// UpdateFor returns the refinement update recorded for a column, or nil.
func (r *Result) UpdateFor(column string) *Update {
	for i := range r.Updates {
		if r.Updates[i].Column == column {
			return &r.Updates[i]
		}
	}
	return nil
}
