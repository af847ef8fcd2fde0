// Package prompt implements the paper's prompt construction: metadata
// projection and rule definition (Algorithm 2, METADATAANDRULES), the
// overall single/chain prompt construction (Algorithm 3, PROMPT), the
// eleven metadata combinations of Table 1, the Figure 6 templates, and
// token accounting. Prompts are rendered into a rigid textual wire format
// with <TASK>/<SCHEMA>/<RULES> sections that the (simulated) LLM parses.
package prompt

import (
	"fmt"
	"strings"

	"catdb/internal/data"
	"catdb/internal/profile"
)

// ModelSpec is the prompt-relevant description of an LLM (Algorithm 3's M
// parameter): its name and context budget.
type ModelSpec struct {
	Name string
	// MaxPromptTokens is the context limit; schema/rule lines beyond it are
	// truncated, reproducing the "ignored rules" failure of Figure 10(c).
	MaxPromptTokens int
}

// Combo selects one of Table 1's metadata combinations (#1-#11). Each
// combination always includes the schema; the other data-profiling items
// are toggled per the table.
type Combo int

// The 11 metadata combinations of Table 1 plus the adaptive CatDB
// selection (ComboAdaptive) used by default.
const (
	Combo1  Combo = 1  // schema only
	Combo2  Combo = 2  // + distinct counts
	Combo3  Combo = 3  // + missing frequency
	Combo4  Combo = 4  // + basic statistics
	Combo5  Combo = 5  // + categorical values
	Combo6  Combo = 6  // distinct + missing
	Combo7  Combo = 7  // distinct + statistics
	Combo8  Combo = 8  // missing + statistics
	Combo9  Combo = 9  // missing + categorical values
	Combo10 Combo = 10 // statistics + categorical values
	Combo11 Combo = 11 // everything
	// ComboAdaptive is CatDB's data-characteristic-driven projection: it
	// includes each item only where it is informative (e.g. statistics for
	// numerical columns, values for categorical ones).
	ComboAdaptive Combo = 0
)

// items describes which data-profiling items a combination carries.
type items struct {
	distinct, missing, stats, catValues bool
}

func (c Combo) items() items {
	switch c {
	case Combo1:
		return items{}
	case Combo2:
		return items{distinct: true}
	case Combo3:
		return items{missing: true}
	case Combo4:
		return items{stats: true}
	case Combo5:
		return items{catValues: true}
	case Combo6:
		return items{distinct: true, missing: true}
	case Combo7:
		return items{distinct: true, stats: true}
	case Combo8:
		return items{missing: true, stats: true}
	case Combo9:
		return items{missing: true, catValues: true}
	case Combo10:
		return items{stats: true, catValues: true}
	default: // Combo11 and ComboAdaptive carry everything available
		return items{distinct: true, missing: true, stats: true, catValues: true}
	}
}

// ColumnMeta is the projected per-column metadata used in prompts (the S
// messages of Algorithm 2).
type ColumnMeta struct {
	Name           string
	DataType       data.Kind
	FeatureType    profile.FeatureType
	DistinctPct    float64
	MissingPct     float64
	DistinctCount  int
	Stats          data.Stats
	DistinctValues []string
	TargetCorr     float64
	IsTarget       bool
}

// Input is everything Algorithm 3 needs about a dataset.
type Input struct {
	Dataset     string
	Task        data.Task
	Target      string
	Rows        int
	Cols        []ColumnMeta
	Description string
	// TopClassShare is the largest class's share of training rows for
	// classification tasks (the label-imbalance signal of Algorithm 2).
	TopClassShare float64
}

// InputFromProfile projects a data profile into prompt input.
func InputFromProfile(p *profile.Profile, topClassShare float64, description string) Input {
	in := Input{
		Dataset: p.Dataset, Task: p.Task, Target: p.Target, Rows: p.Rows,
		Description: description, TopClassShare: topClassShare,
	}
	for _, c := range p.Columns {
		in.Cols = append(in.Cols, ColumnMeta{
			Name: c.Name, DataType: c.DataType, FeatureType: c.FeatureType,
			DistinctPct: c.DistinctPct, MissingPct: c.MissingPct,
			DistinctCount: c.DistinctCount, Stats: c.Stats,
			DistinctValues: c.DistinctValues, TargetCorr: c.TargetCorr,
			IsTarget: c.IsTarget,
		})
	}
	return in
}

// Kind labels what a constructed prompt asks for.
type Kind string

// Prompt kinds (Figure 6's ordering for CatDB Chain).
const (
	KindPipeline       Kind = "pipeline"        // single-prompt CatDB: full pipeline
	KindPreprocessing  Kind = "preprocessing"   // chain: per-chunk data preparation
	KindFeatureEng     Kind = "fe-engineering"  // chain: per-chunk feature engineering
	KindModelSelection Kind = "model-selection" // chain: final model selection
)

// Prompt is one constructed LLM prompt.
type Prompt struct {
	Kind      Kind
	Text      string
	Tokens    int
	Truncated bool // context limit forced dropping schema/rule lines
}

// CountTokens approximates LLM tokenization at ~4 characters per token,
// the standard rule of thumb for English/code.
func CountTokens(s string) int { return (len(s) + 3) / 4 }

// Config tunes prompt construction (the α, β, and metadata knobs).
type Config struct {
	Combo Combo // metadata combination; ComboAdaptive is the CatDB default
	// TopK is α: keep only the K columns most associated with the target
	// (0 = all columns).
	TopK int
	// Chains is β: 1 = single prompt (CatDB), >1 = CatDB Chain.
	Chains int
	// IncludeRules attaches the R messages; metadata-only baselines set
	// this false.
	IncludeRules bool
	// IncludeDescription attaches the optional user description.
	IncludeDescription bool
}

// DefaultConfig is CatDB's default: adaptive metadata with rules, single
// prompt.
func DefaultConfig() Config {
	return Config{Combo: ComboAdaptive, Chains: 1, IncludeRules: true, IncludeDescription: true}
}

func taskName(t data.Task) string { return t.String() }

func fmtFloat(v float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.3f", v), "0"), ".")
}
