package pipescript

import (
	"fmt"

	"catdb/internal/data"
	"catdb/internal/ml"
	"catdb/internal/obs"
)

// This file is the transform/serving half of the fit/transform split:
// it applies a FittedPipeline artifact to incoming row batches and
// scores them. It deliberately has no notion of a label column — every
// parameter was fitted and recorded during Fit, and `make verify`
// lint-checks that nothing here references the executor's label field.

// Artifact error codes, reported when applying or scoring an artifact
// fails. They are distinct from pipeline RuntimeError codes: these are
// serving-contract violations, not pipeline-authoring mistakes.
const (
	ErrArtifactVersion = "E_ARTIFACT_VERSION" // artifact from another schema version
	ErrArtifactModel   = "E_ARTIFACT_MODEL"   // artifact has no (or a corrupt) model
	ErrFeatureAbsent   = "E_FEATURE_ABSENT"   // fitted feature column missing after transform
	ErrFeatureType     = "E_FEATURE_TYPE"     // fitted feature column is not numeric
	ErrFeatureNaN      = "E_FEATURE_NAN"      // fitted feature column has missing values
	ErrStepFailed      = "E_STEP_FAILED"      // a recorded step failed to apply
)

// ArtifactError is a serving-contract failure with a machine-readable
// category, so callers can distinguish schema drift in incoming rows
// from corrupt artifacts.
type ArtifactError struct {
	Code string
	Msg  string
}

// Error implements the error interface.
func (e *ArtifactError) Error() string {
	return fmt.Sprintf("pipescript: artifact error [%s]: %s", e.Code, e.Msg)
}

func artErr(code, format string, args ...interface{}) *ArtifactError {
	return &ArtifactError{Code: code, Msg: fmt.Sprintf(format, args...)}
}

// transformBuckets extends the default latency bounds downward: per-stage
// transform work and single-row predictions sit well under a millisecond.
var transformBuckets = append([]float64{0.00001, 0.00005, 0.0001, 0.0005}, obs.DefBuckets...)

// compiledStep is what a recorded step's parameters imply for every
// batch: the encoded output names and category → column map of onehot
// and khot, and dedup_values' normalized map. A FittedPipeline derives
// it once per step and keeps it beside Steps, so the artifact's JSON
// does not change.
type compiledStep struct {
	enc      *catEncoding
	byNormal map[string]string
}

// compile derives the step's per-batch state from its parameters.
func (s *FittedStep) compile() compiledStep {
	switch s.Op {
	case "onehot", "khot":
		return compiledStep{enc: newCatEncoding(s.Col, s.Cats)}
	case "dedup_values":
		return compiledStep{byNormal: normalizedMap(s.ValueMap)}
	}
	return compiledStep{}
}

// apply applies one recorded step to a table, with cs the step's
// compiled state. Columns absent from the batch are skipped, matching
// how the executor treats the evaluation split; this is the single
// implementation both paths share.
func (s *FittedStep) apply(t *data.Table, cs *compiledStep) error {
	switch s.Op {
	case "impute":
		if c := t.Col(s.Col); c != nil {
			applyImpute(c, s.Num, s.Str)
		}
	case "clip":
		if c := t.Col(s.Col); c != nil {
			clipColumn(c, s.Lo, s.Hi)
		}
	case "scale":
		if c := t.Col(s.Col); c != nil {
			scaleParams{method: s.Method, a: s.A, b: s.B}.apply(c)
		}
	case "onehot":
		if t.Col(s.Col) != nil {
			return oneHot(t, s.Col, cs.enc)
		}
	case "khot":
		if t.Col(s.Col) != nil {
			return kHot(t, s.Col, cs.enc)
		}
	case "hash_encode":
		if t.Col(s.Col) != nil {
			return hashEncode(t, s.Col, s.Buckets)
		}
	case "ordinal":
		if t.Col(s.Col) != nil {
			return ordinalEncode(t, s.Col, s.Mapping)
		}
	case "drop":
		for _, name := range s.Cols {
			t.DropColumn(name)
		}
	case "split_composite":
		if t.Col(s.Col) != nil {
			return SplitComposite(t, s.Col, s.Name, s.NameB)
		}
	case "extract_token":
		if c := t.Col(s.Col); c != nil {
			ExtractTokens(c)
		}
	case "dedup_values":
		if c := t.Col(s.Col); c != nil {
			applyMapping(c, s.ValueMap, cs.byNormal)
		}
	case "bin_numeric":
		if c := t.Col(s.Col); c != nil {
			binifyColumn(c, s.Edges)
		}
	case "log_transform":
		if c := t.Col(s.Col); c != nil {
			logTransformColumn(c)
		}
	case "interaction":
		return buildInteraction(t, s.Col, s.ColB, s.Method, s.Name)
	case "target_encode":
		if t.Col(s.Col) != nil {
			return smoothedMeanEncode(t, s.Col, s.Sums, s.Counts, s.Global)
		}
	default:
		return fmt.Errorf("unknown fitted step %q", s.Op)
	}
	return nil
}

// compiledSteps returns each recorded step's compiled state, derived
// under stepsOnce by the first Transform or Predict and read-only
// afterwards.
func (fp *FittedPipeline) compiledSteps() []compiledStep {
	fp.stepsOnce.Do(func() {
		fp.compiled = make([]compiledStep, len(fp.Steps))
		for i := range fp.Steps {
			fp.compiled[i] = fp.Steps[i].compile()
		}
	})
	return fp.compiled
}

// liveModel returns the model the artifact carries, or the error
// reconstructing it, both derived under modelOnce by the first Predict
// and read-only afterwards. Transform never needs the model, so it never
// builds one.
func (fp *FittedPipeline) liveModel() (any, error) {
	fp.modelOnce.Do(func() { fp.model, fp.modelErr = fp.buildModel() })
	return fp.model, fp.modelErr
}

// buildModel reconstructs the model the artifact carries. A panic while
// it does is an error too, so that liveModel memoizes it.
func (fp *FittedPipeline) buildModel() (m any, err error) {
	if fp.Model == nil {
		return nil, artErr(ErrArtifactModel, "artifact carries no model")
	}
	defer func() {
		if r := recover(); r != nil {
			m, err = nil, artErr(ErrArtifactModel, "model reconstruction panicked: %v", r)
		}
	}()
	m, err = fp.Model.Model(fp.Workers)
	if err != nil {
		return nil, artErr(ErrArtifactModel, "%v", err)
	}
	// The instance stores compare each stored row with the query value by
	// value, and only here is the query's width known: a wider stored row
	// would index past the query, and a narrower one would score a prefix.
	if k := fp.Model.Kind; k == ml.KindKNN || k == ml.KindTabPFN {
		for i, row := range fp.Model.X {
			if len(row) != len(fp.Features) {
				return nil, artErr(ErrArtifactModel, "%s dump stores row %d with %d values for %d features",
					k, i, len(row), len(fp.Features))
			}
		}
	}
	return m, nil
}

// servingMetrics are the instruments Transform and Predict record into,
// resolved from one registry once instead of by name on every step: a
// stage histogram per recorded step (steps of one op share it), the
// call histogram, and the row and batch counters.
type servingMetrics struct {
	reg           *obs.Registry
	stages        []*obs.Histogram
	predict       *obs.Histogram
	rows, batches *obs.Counter
}

// metrics returns the instruments of fp.Metrics, or nil when no registry
// is attached. It resolves them on the first call with a registry, and
// again after Metrics changes to another.
func (fp *FittedPipeline) metrics() *servingMetrics {
	reg := fp.Metrics
	if reg == nil {
		return nil
	}
	if m := fp.handles.Load(); m != nil && m.reg == reg {
		return m
	}
	m := &servingMetrics{
		reg:     reg,
		stages:  make([]*obs.Histogram, len(fp.Steps)),
		predict: reg.Histogram("catdb_predict_seconds", transformBuckets),
		rows:    reg.Counter("catdb_predict_rows_total"),
		batches: reg.Counter("catdb_predict_batches_total"),
	}
	for i := range fp.Steps {
		m.stages[i] = reg.Histogram("catdb_transform_stage_seconds", transformBuckets, "op", fp.Steps[i].Op)
	}
	fp.handles.Store(m)
	return m
}

// Transform applies the recorded preprocessing steps to a clone of t,
// returning the feature-space view of the batch. The input table is
// never mutated. Steps run in recorded order, each as one serial row
// loop. A step that panics is an E_STEP_FAILED artifact error naming it.
func (fp *FittedPipeline) Transform(t *data.Table) (out *data.Table, err error) {
	step := -1
	defer fp.recoverServing(&step, &err)
	return fp.transform(t, &step, fp.metrics())
}

// transform is the body of Transform. It keeps *step at the index of the
// step being applied, and at -1 outside the steps, for recoverServing.
// Steps are timed only when m is not nil.
func (fp *FittedPipeline) transform(t *data.Table, step *int, m *servingMetrics) (*data.Table, error) {
	compiled := fp.compiledSteps()
	out := t.Clone()
	for i := range fp.Steps {
		*step = i
		s := &fp.Steps[i]
		var err error
		if m == nil {
			err = s.apply(out, &compiled[i])
		} else {
			start := obs.Now()
			err = s.apply(out, &compiled[i])
			m.stages[i].Observe(obs.Since(start).Seconds())
		}
		if err != nil {
			return nil, artErr(ErrStepFailed, "step %d (%s on %q): %v", i, s.Op, s.Col, err)
		}
	}
	*step = -1
	return out, nil
}

// recoverServing is the serving path's one recovery point, as execStmt
// is the executor's; Transform and Predict each defer it once per call.
// A panic while step *step applies becomes E_STEP_FAILED naming the step
// and its op. Any other panic is in model inference (a pool task's panic
// included, which batch inference re-raises on the caller) and becomes
// E_ARTIFACT_MODEL.
func (fp *FittedPipeline) recoverServing(step *int, err *error) {
	r := recover()
	if r == nil {
		return
	}
	if i := *step; i >= 0 && i < len(fp.Steps) {
		s := &fp.Steps[i]
		*err = artErr(ErrStepFailed, "step %d (%s on %q) panicked: %v", i, s.Op, s.Col, r)
		return
	}
	*err = artErr(ErrArtifactModel, "model inference panicked: %v", r)
}

// Predictions is the output of scoring a row batch with an artifact.
type Predictions struct {
	Rows    int
	Task    string   // binary | multiclass | regression
	Classes []string // classification label vocabulary, artifact order
	// Values holds the regression prediction per row, or the predicted
	// class index (as float64) for classification.
	Values []float64
	// Labels and Proba are classification-only: the predicted label and
	// the normalized class distribution per row.
	Labels []string
	Proba  [][]float64
}

// Predict transforms a row batch and scores it with the fitted model.
// Incoming rows must contain every raw column the recorded steps expect;
// after transformation each fitted feature column must exist, be
// numeric, and be complete — violations return an *ArtifactError with a
// specific code instead of silently skewed scores (the strict version of
// the zero-fill contract matrixAligned applies during fitting).
func (fp *FittedPipeline) Predict(t *data.Table) (*Predictions, error) {
	m := fp.metrics()
	if m == nil {
		return fp.predict(t, nil)
	}
	start := obs.Now()
	p, err := fp.predict(t, m)
	m.predict.Observe(obs.Since(start).Seconds())
	if err != nil {
		code := "E_UNKNOWN"
		if ae, ok := err.(*ArtifactError); ok {
			code = ae.Code
		}
		m.reg.Counter("catdb_predict_errors_total", "code", code).Inc()
	} else {
		m.rows.Add(int64(p.Rows))
		m.batches.Inc()
	}
	return p, err
}

func (fp *FittedPipeline) predict(t *data.Table, m *servingMetrics) (_ *Predictions, err error) {
	step := -1
	defer fp.recoverServing(&step, &err)
	if fp.Version != ArtifactVersion {
		return nil, artErr(ErrArtifactVersion,
			"artifact version %d, this build reads version %d", fp.Version, ArtifactVersion)
	}
	if fp.Model == nil {
		return nil, artErr(ErrArtifactModel, "artifact carries no model")
	}
	tt, err := fp.transform(t, &step, m)
	if err != nil {
		return nil, err
	}
	// Each fitted feature is resolved once, for the check and the matrix.
	cols := make([]*data.Column, len(fp.Features))
	for j, name := range fp.Features {
		c := tt.Col(name)
		if c == nil {
			return nil, artErr(ErrFeatureAbsent,
				"fitted feature %q is missing from the transformed batch (schema drift?)", name)
		}
		if !c.Kind.IsNumeric() {
			return nil, artErr(ErrFeatureType, "fitted feature %q is %s, want numeric", name, c.Kind)
		}
		if n := c.MissingCount(); n > 0 {
			return nil, artErr(ErrFeatureNaN,
				"fitted feature %q has %d missing values in the batch", name, n)
		}
		cols[j] = c
	}
	model, err := fp.liveModel()
	if err != nil {
		return nil, err
	}
	X := columnMatrix(cols, tt.NumRows())
	out := &Predictions{Rows: len(X), Task: fp.Task, Classes: fp.Classes}
	if fp.Task == data.Regression.String() {
		reg, ok := model.(ml.Regressor)
		if !ok {
			return nil, artErr(ErrArtifactModel, "model kind %q cannot do regression", fp.Model.Kind)
		}
		out.Values = reg.Predict(X)
		return out, nil
	}
	clf, ok := model.(ml.Classifier)
	if !ok {
		return nil, artErr(ErrArtifactModel, "model kind %q cannot classify", fp.Model.Kind)
	}
	out.Proba = clf.Proba(X)
	out.Values = make([]float64, len(out.Proba))
	out.Labels = make([]string, len(out.Proba))
	for i, row := range out.Proba {
		idx := argmax(row)
		out.Values[i] = float64(idx)
		if idx < len(fp.Classes) {
			out.Labels[i] = fp.Classes[idx]
		}
	}
	return out, nil
}
