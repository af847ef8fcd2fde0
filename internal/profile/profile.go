// Package profile implements Algorithm 1 (PROFILING) of the paper: for
// every column of a dataset it extracts the schema (name, data type), the
// distinct-value and missing-value percentages, basic statistics, value
// samples, and the column's association with the target (Pearson or
// Cramér's V, from internal/embed). Of Algorithm 1's pairwise lines 7-9
// only that target association is computed: no prompt, rule or
// experiment reads column similarities or inclusion dependencies.
package profile

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"catdb/internal/data"
	"catdb/internal/embed"
	"catdb/internal/pool"
)

// FeatureType is the ML-level feature type layered over the physical kind.
// Profiling assigns a basic guess; internal/catalog refines it with the
// (simulated) LLM per §3.2.
type FeatureType int

// Feature types recognised by the catalog.
const (
	FeatureUnknown FeatureType = iota
	FeatureNumerical
	FeatureCategorical
	FeatureBoolean
	FeatureSentence // free text requiring refinement
	FeatureList     // multi-valued cells ("Python, Java")
	FeatureConstant
	FeatureID
)

// String returns the lower-case feature type name as used in prompts.
func (f FeatureType) String() string {
	switch f {
	case FeatureNumerical:
		return "numerical"
	case FeatureCategorical:
		return "categorical"
	case FeatureBoolean:
		return "boolean"
	case FeatureSentence:
		return "sentence"
	case FeatureList:
		return "list"
	case FeatureConstant:
		return "constant"
	case FeatureID:
		return "id"
	default:
		return "unknown"
	}
}

// ColumnProfile is the per-column entry of the data profile (the
// dictionary P[c] of Algorithm 1).
type ColumnProfile struct {
	Name           string
	DataType       data.Kind
	FeatureType    FeatureType
	DistinctPct    float64 // percentage in [0,100]
	MissingPct     float64 // percentage in [0,100]
	DistinctCount  int
	Stats          data.Stats
	Samples        []string
	DistinctValues []string // all values for categorical candidates
	TargetCorr     float64  // association with the target column
	IsTarget       bool
}

// Profile is the full data profile of a (consolidated) table.
type Profile struct {
	Dataset string
	Rows    int
	Target  string
	Task    data.Task
	Columns []*ColumnProfile
	Elapsed time.Duration // wall time of profiling (Figure 9a)

	// index maps column name → Columns position. Table builds it eagerly
	// (never lazily: cached profiles are read by concurrent bench cells,
	// and a lazy fill would race), so Column is O(1) in the prompt
	// construction and catalog refinement loops.
	index map[string]int
}

// Column returns the profile entry for a column name, or nil. Profiles
// built by Table answer from the eager name index; hand-assembled profiles
// (tests) fall back to a linear scan.
func (p *Profile) Column(name string) *ColumnProfile {
	if p.index != nil {
		if i, ok := p.index[name]; ok && i < len(p.Columns) {
			return p.Columns[i]
		}
		return nil
	}
	for _, c := range p.Columns {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// buildIndex (re)builds the name→position index; call after Columns is
// fully assembled and before the profile is shared.
func (p *Profile) buildIndex() {
	idx := make(map[string]int, len(p.Columns))
	for i, c := range p.Columns {
		idx[c.Name] = i
	}
	p.index = idx
}

// maxRowsForPairwise caps the rows of the working sample that each
// column's target association (TargetCorr) is computed over.
const maxRowsForPairwise = 2000

// Options tunes profiling.
type Options struct {
	// Samples is τ₁ of Algorithm 1: values stored per non-categorical
	// column. Default 10 (the paper's LLM-type-inference sample size).
	Samples int
	// CategoricalMaxDistinct is the distinct-count threshold under which a
	// string column is treated as a categorical candidate. Default 64.
	CategoricalMaxDistinct int
	// Seed drives sample selection. Every column derives its own RNG from
	// (Seed, column index, column name), so the profile is bit-identical
	// at any worker count.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Samples <= 0 {
		o.Samples = 10
	}
	if o.CategoricalMaxDistinct <= 0 {
		o.CategoricalMaxDistinct = 64
	}
	return o
}

// Table profiles a single table (Algorithm 1) against the given target
// column and task. The per-column work fans out over the worker pool,
// so GOMAXPROCS bounds it; every column derives its sampling RNG from the
// profiling seed and its own identity, and the one piece of shared
// column state workers read (the target's working-sample summary) is
// warmed before the fan-out, so the result is bit-identical to the
// serial loop at any worker count.
func Table(t *data.Table, target string, task data.Task, opts Options) (*Profile, error) {
	opts = opts.withDefaults()
	start := time.Now()
	if t.NumRows() == 0 {
		return nil, fmt.Errorf("profile: table %q is empty", t.Name)
	}
	p := &Profile{Dataset: t.Name, Rows: t.NumRows(), Target: target, Task: task}
	rng := rand.New(rand.NewSource(opts.Seed))

	// Working sample: the rows every column's target association is
	// computed over.
	work := t
	if t.NumRows() > maxRowsForPairwise {
		work = t.Sample(maxRowsForPairwise, rng)
	}
	// CramersV reads the target's working-sample summary from every
	// worker; warm it here so no two workers race to compute it.
	targetCol := work.Col(target)
	if targetCol != nil {
		targetCol.Summary()
	}

	cols, err := pool.Map(len(t.Cols), func(ci int) (*ColumnProfile, error) {
		c := t.Cols[ci]
		sum := c.Summary()
		// All ratio/count fields come from the column's summary (the same
		// float expressions as the Column convenience methods).
		cp := &ColumnProfile{
			Name:          c.Name,
			DataType:      c.Kind,
			DistinctPct:   distinctRatio(sum) * 100,
			MissingPct:    missingRatio(sum) * 100,
			DistinctCount: sum.DistinctCount(),
			IsTarget:      c.Name == target,
		}
		cp.FeatureType = guessFeatureType(c, sum, opts)
		if c.Kind.IsNumeric() {
			cp.Stats = sum.Stats
		}
		colRng := rand.New(rand.NewSource(pool.DeriveSeed(opts.Seed, ci, c.Name)))
		cp.Samples = sampleValues(c, opts.Samples, colRng)
		if cp.FeatureType == FeatureCategorical || cp.FeatureType == FeatureBoolean {
			cp.DistinctValues = sum.Distinct()
		}
		// Association with the target over the working sample (the
		// correlations of Alg. 1 lines 7-9).
		if targetCol != nil && c.Name != target {
			wc := work.Cols[ci]
			if wc.Kind.IsNumeric() && targetCol.Kind.IsNumeric() {
				cp.TargetCorr = embed.Correlation(wc, targetCol)
			} else {
				cp.TargetCorr = embed.CramersV(wc, targetCol)
			}
		}
		return cp, nil
	})
	if err != nil {
		return nil, err
	}
	p.Columns = cols
	p.buildIndex()
	p.Elapsed = time.Since(start)
	return p, nil
}

// Dataset consolidates a (possibly multi-table) dataset and profiles the
// result; this is the entry point CatDB uses.
func Dataset(ds *data.Dataset, opts Options) (*Profile, error) {
	t, err := ds.Consolidate()
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := Table(t, ds.Target, ds.Task, opts)
	if err != nil {
		return nil, err
	}
	p.Dataset = ds.Name
	return p, nil
}

// distinctRatio and missingRatio mirror Column.DistinctRatio and
// Column.MissingRatio over an already-computed summary (same expressions,
// so results are bit-identical).
func distinctRatio(s *data.Summary) float64 {
	n := s.Present()
	if n == 0 {
		return 0
	}
	return float64(s.DistinctCount()) / float64(n)
}

func missingRatio(s *data.Summary) float64 {
	if s.Rows == 0 {
		return 0
	}
	return float64(s.Rows-s.Present()) / float64(s.Rows)
}

// guessFeatureType is the profiler's pre-LLM heuristic (the catalog's LLM
// pass can overturn it, e.g. sentence → categorical). It reads all counts
// from the provided summary.
func guessFeatureType(c *data.Column, sum *data.Summary, opts Options) FeatureType {
	if sum.DistinctCount() == 1 && sum.Present() > 0 {
		return FeatureConstant
	}
	switch c.Kind {
	case data.KindBool:
		return FeatureBoolean
	case data.KindInt:
		if distinctRatio(sum) > 0.98 && sum.DistinctCount() > 50 {
			return FeatureID
		}
		if sum.DistinctCount() <= 12 {
			return FeatureCategorical
		}
		return FeatureNumerical
	case data.KindFloat:
		return FeatureNumerical
	}
	// String columns.
	dc := sum.DistinctCount()
	if dc <= opts.CategoricalMaxDistinct {
		return FeatureCategorical
	}
	multiWord, commaSep, n := 0, 0, 0
	for i := 0; i < c.Len() && n < 200; i++ {
		if c.IsMissing(i) {
			continue
		}
		n++
		v := c.Str(i)
		if strings.Contains(v, ", ") {
			commaSep++
		}
		if strings.Count(strings.TrimSpace(v), " ") >= 1 {
			multiWord++
		}
	}
	if n == 0 {
		return FeatureUnknown
	}
	if float64(commaSep)/float64(n) > 0.3 {
		return FeatureList
	}
	if float64(multiWord)/float64(n) > 0.3 {
		return FeatureSentence
	}
	if distinctRatio(sum) > 0.98 {
		return FeatureID
	}
	return FeatureSentence
}

// sampleValues draws up to n present values uniformly without replacement
// with a bounded reservoir (algorithm R), then shuffles the reservoir so
// the sample order stays random. Memory is O(n) — the sample budget — not
// O(rows): the old implementation materialized and shuffled a full
// row-index slice per column.
func sampleValues(c *data.Column, n int, rng *rand.Rand) []string {
	if n <= 0 {
		return nil
	}
	reservoir := make([]int, 0, n)
	seen := 0
	for i := 0; i < c.Len(); i++ {
		if c.IsMissing(i) {
			continue
		}
		seen++
		if len(reservoir) < n {
			reservoir = append(reservoir, i)
			continue
		}
		if j := rng.Intn(seen); j < n {
			reservoir[j] = i
		}
	}
	if len(reservoir) == 0 {
		return nil
	}
	rng.Shuffle(len(reservoir), func(i, j int) { reservoir[i], reservoir[j] = reservoir[j], reservoir[i] })
	out := make([]string, len(reservoir))
	for i, r := range reservoir {
		out[i] = c.ValueString(r)
	}
	return out
}

// TypeCensus counts feature types across a set of profiles (Figure 9b).
func TypeCensus(profiles []*Profile) map[FeatureType]int {
	out := map[FeatureType]int{}
	for _, p := range profiles {
		for _, c := range p.Columns {
			if c.IsTarget {
				continue
			}
			out[c.FeatureType]++
		}
	}
	return out
}
