package pipescript

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"catdb/internal/data"
	"catdb/internal/ml"
	"catdb/internal/obs"
)

// ArtifactVersion is the fitted-pipeline schema version. Load rejects
// artifacts from any other version rather than guessing at forward or
// backward compatibility.
const ArtifactVersion = 1

// FittedStep is one recorded preprocessing step of a fitted pipeline:
// the op name plus exactly the parameters fitted on training data. The
// union of fields across ops is flattened into a single struct so the
// JSON encoding stays schema-stable; only the fields an op uses are set.
type FittedStep struct {
	Op   string `json:"op"`
	Col  string `json:"col,omitempty"`
	ColB string `json:"col_b,omitempty"` // interaction: second source column

	// Output column names (interaction; split_composite uses both).
	Name  string `json:"name,omitempty"`
	NameB string `json:"name_b,omitempty"`

	// impute fill values.
	Num float64 `json:"num,omitempty"`
	Str string  `json:"str,omitempty"`

	// clip bounds (clip_outliers, remove_outliers, winsorize).
	Lo float64 `json:"lo,omitempty"`
	Hi float64 `json:"hi,omitempty"`

	// scale parameters; Method doubles as the interaction op.
	Method string  `json:"method,omitempty"`
	A      float64 `json:"a,omitempty"`
	B      float64 `json:"b,omitempty"`

	// Encoder state.
	Cats     []string          `json:"cats,omitempty"`      // onehot/khot vocabulary
	Buckets  int               `json:"buckets,omitempty"`   // hash_encode
	Mapping  map[string]int    `json:"mapping,omitempty"`   // ordinal
	ValueMap map[string]string `json:"value_map,omitempty"` // dedup_values raw→canonical
	Edges    []float64         `json:"edges,omitempty"`     // bin_numeric
	Cols     []string          `json:"cols,omitempty"`      // drop set

	// target_encode smoothed-mean state. Sums and counts are kept (rather
	// than precomputed encodings) so the transform path runs the identical
	// arithmetic the fit path ran, including for unseen categories.
	Sums   map[string]float64 `json:"sums,omitempty"`
	Counts map[string]float64 `json:"counts,omitempty"`
	Global float64            `json:"global,omitempty"`
}

// FittedPipeline is the versioned, serializable artifact a fit run
// produces: every fitted preprocessing step plus the trained model.
// Applying it to new rows (Transform/Predict) touches only feature
// columns — steps addressing the label column are evaluation-only and
// never recorded, so a serving artifact cannot read or write labels.
//
// Transform and Predict are safe for concurrent use. The first call
// derives, once, each step's compiled state, and the first Predict the
// live model (see compiledSteps and liveModel); the recorded fields and
// Workers must not change after that, and a FittedPipeline must not be
// copied by value.
type FittedPipeline struct {
	Version   int             `json:"version"`
	Pipeline  string          `json:"pipeline,omitempty"` // source program name
	Task      string          `json:"task"`               // binary | multiclass | regression
	Metric    string          `json:"metric"`             // auc | r2
	ModelName string          `json:"model_name"`
	Features  []string        `json:"features"`          // model input columns, in matrix order
	Classes   []string        `json:"classes,omitempty"` // class index → label (classification)
	Steps     []FittedStep    `json:"steps"`
	Model     *ml.FittedModel `json:"model"`

	// Runtime settings — never serialized. Workers bounds the goroutines
	// inference uses (0 = GOMAXPROCS, 1 = serial; predictions are
	// identical at any setting); the first Predict reads it. Metrics, when
	// set, records per-stage transform latencies and prediction counters,
	// through instruments resolved once per registry; nil reads no clock
	// and touches no registry.
	Workers int           `json:"-"`
	Metrics *obs.Registry `json:"-"`

	// Derived once each, read-only afterwards: Steps' compiled state, and
	// the live model or the error reconstructing it.
	stepsOnce, modelOnce sync.Once
	compiled             []compiledStep
	model                any
	modelErr             error
	// handles caches the instruments resolved from Metrics.
	handles atomic.Pointer[servingMetrics]
}

// Save writes the artifact as deterministic JSON: struct fields encode
// in declaration order and map keys sort, so identical fits produce
// byte-identical artifacts.
func (fp *FittedPipeline) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(fp)
}

// SaveFile writes the artifact to path.
func (fp *FittedPipeline) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fp.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFittedPipeline reads and version-checks an artifact.
func LoadFittedPipeline(r io.Reader) (*FittedPipeline, error) {
	var fp FittedPipeline
	if err := json.NewDecoder(r).Decode(&fp); err != nil {
		return nil, fmt.Errorf("pipescript: decode artifact: %w", err)
	}
	if fp.Version != ArtifactVersion {
		return nil, &ArtifactError{Code: ErrArtifactVersion,
			Msg: fmt.Sprintf("artifact version %d, this build reads version %d", fp.Version, ArtifactVersion)}
	}
	return &fp, nil
}

// LoadFittedPipelineFile reads an artifact from path.
func LoadFittedPipelineFile(path string) (*FittedPipeline, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadFittedPipeline(f)
}

// Fit executes the program like Execute and additionally records every
// fitted preprocessing parameter and the trained model into a
// FittedPipeline artifact. The returned Result is computed by exactly
// the same code path as Execute — the evaluation split is transformed by
// the very step objects the artifact stores, so applying the artifact to
// the same rows later is bit-identical by construction. Fit is not safe
// for concurrent use of one Executor.
func (e *Executor) Fit(p *Program, train, test *data.Table) (*Result, *FittedPipeline, error) {
	fp := &FittedPipeline{
		Version:  ArtifactVersion,
		Pipeline: p.Name,
		Task:     e.Task.String(),
	}
	e.record = fp
	defer func() { e.record = nil }()
	res, err := e.Execute(p, train, test)
	if err != nil {
		return nil, nil, err
	}
	if fp.Model == nil {
		return nil, nil, rtErr(lastLine(p), ErrNoTrainStmt, "pipeline trained no model to export")
	}
	return res, fp, nil
}

// touchesTarget reports whether a step addresses the label column. Such
// steps stay evaluation-only: they are applied to the held-out split for
// scoring parity with Execute but are never recorded into the artifact,
// preserving the transform path's no-label-access invariant.
func (s FittedStep) touchesTarget(target string) bool {
	if target == "" {
		return false
	}
	if s.Col == target || s.ColB == target {
		return true
	}
	for _, c := range s.Cols {
		if c == target {
			return true
		}
	}
	return false
}

// recordAndApply applies a fitted step to the evaluation split and, when
// an artifact is being recorded, appends it (unless it touches the
// target). Both the inline evaluation path and the serving path funnel
// through FittedStep.apply, which is what makes them bit-identical.
func (e *Executor) recordAndApply(step FittedStep, te *data.Table) error {
	if e.record != nil && !step.touchesTarget(e.Target) {
		e.record.Steps = append(e.record.Steps, step)
	}
	cs := step.compile()
	return step.apply(te, &cs)
}
