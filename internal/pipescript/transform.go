package pipescript

import (
	"fmt"

	"catdb/internal/data"
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

// apply applies one recorded step to a table. Columns absent from the
// batch are skipped, matching how the executor treats the evaluation
// split; this is the single implementation both paths share. The
// sharder routes elementwise row loops over the pool (nil = serial);
// results are bit-identical either way.
func (s *FittedStep) apply(sh *sharder, t *data.Table) error {
	switch s.Op {
	case "impute":
		if c := t.Col(s.Col); c != nil {
			applyImpute(sh, c, s.Num, s.Str)
		}
	case "clip":
		if c := t.Col(s.Col); c != nil {
			clipColumn(sh, c, s.Lo, s.Hi)
		}
	case "scale":
		if c := t.Col(s.Col); c != nil {
			scaleParams{method: s.Method, a: s.A, b: s.B}.apply(sh, c)
		}
	case "onehot":
		if t.Col(s.Col) != nil {
			return oneHot(sh, t, s.Col, s.Cats)
		}
	case "khot":
		if t.Col(s.Col) != nil {
			return kHot(sh, t, s.Col, s.Cats)
		}
	case "hash_encode":
		if t.Col(s.Col) != nil {
			return hashEncode(sh, t, s.Col, s.Buckets)
		}
	case "ordinal":
		if t.Col(s.Col) != nil {
			return ordinalEncode(sh, t, s.Col, s.Mapping)
		}
	case "drop":
		for _, name := range s.Cols {
			t.DropColumn(name)
		}
	case "split_composite":
		if t.Col(s.Col) != nil {
			return splitComposite(sh, t, s.Col, s.Name, s.NameB)
		}
	case "extract_token":
		if c := t.Col(s.Col); c != nil {
			extractToken(sh, c)
		}
	case "dedup_values":
		if c := t.Col(s.Col); c != nil {
			byNormal := map[string]string{}
			for raw, canon := range s.ValueMap {
				byNormal[NormalizeValue(raw)] = canon
			}
			applyMapping(sh, c, s.ValueMap, byNormal)
		}
	case "bin_numeric":
		if c := t.Col(s.Col); c != nil {
			binifyColumn(sh, c, s.Edges)
		}
	case "log_transform":
		if c := t.Col(s.Col); c != nil {
			logTransformColumn(sh, c)
		}
	case "interaction":
		return buildInteraction(sh, t, s.Col, s.ColB, s.Method, s.Name)
	case "target_encode":
		if t.Col(s.Col) != nil {
			return smoothedMeanEncode(sh, t, s.Col, s.Sums, s.Counts, s.Global)
		}
	default:
		return fmt.Errorf("unknown fitted step %q", s.Op)
	}
	return nil
}

// sharderFor builds the per-call row sharder the serving path uses:
// the same engine the executor runs, sized by the artifact's Workers.
// Each call gets a fresh worker budget — serving calls are independent,
// so there is no cross-call budget to share beyond the pool itself.
func (fp *FittedPipeline) sharderFor() *sharder {
	return newSharder(fp.shardRows, newWorkerBudget(fp.Workers), fp.Metrics)
}

// Transform applies the recorded preprocessing steps to a clone of t,
// returning the feature-space view of the batch. The input table is
// never mutated. Steps run in recorded order; elementwise row loops
// shard over the pool, and the output is bit-identical to the serial
// loop.
func (fp *FittedPipeline) Transform(t *data.Table) (*data.Table, error) {
	out := t.Clone()
	sh := fp.sharderFor()
	for i := range fp.Steps {
		step := &fp.Steps[i]
		start := obs.Now()
		if err := step.apply(sh, out); err != nil {
			return nil, artErr(ErrStepFailed, "step %d (%s on %q): %v", i, step.Op, step.Col, err)
		}
		// Nil-registry calls are free, so no conditional is needed here.
		fp.Metrics.Histogram("catdb_transform_stage_seconds", transformBuckets,
			"op", step.Op).Observe(obs.Since(start).Seconds())
	}
	return out, nil
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

// liveModel reconstructs (once) the model the artifact carries.
func (fp *FittedPipeline) liveModel() (any, error) {
	if fp.model != nil {
		return fp.model, nil
	}
	m, err := fp.Model.Model(fp.Workers)
	if err != nil {
		return nil, artErr(ErrArtifactModel, "%v", err)
	}
	fp.model = m
	return m, nil
}

// Predict transforms a row batch and scores it with the fitted model.
// Incoming rows must contain every raw column the recorded steps expect;
// after transformation each fitted feature column must exist, be
// numeric, and be complete — violations return an *ArtifactError with a
// specific code instead of silently skewed scores (the strict version of
// the zero-fill contract matrixAligned applies during fitting).
func (fp *FittedPipeline) Predict(t *data.Table) (*Predictions, error) {
	start := obs.Now()
	p, err := fp.predict(t)
	fp.Metrics.Histogram("catdb_predict_seconds", transformBuckets).Observe(obs.Since(start).Seconds())
	if err != nil {
		code := "E_UNKNOWN"
		if ae, ok := err.(*ArtifactError); ok {
			code = ae.Code
		}
		fp.Metrics.Counter("catdb_predict_errors_total", "code", code).Inc()
	} else {
		fp.Metrics.Counter("catdb_predict_rows_total").Add(int64(p.Rows))
		fp.Metrics.Counter("catdb_predict_batches_total").Inc()
	}
	return p, err
}

func (fp *FittedPipeline) predict(t *data.Table) (*Predictions, error) {
	if fp.Version != ArtifactVersion {
		return nil, artErr(ErrArtifactVersion,
			"artifact version %d, this build reads version %d", fp.Version, ArtifactVersion)
	}
	if fp.Model == nil {
		return nil, artErr(ErrArtifactModel, "artifact carries no model")
	}
	tt, err := fp.Transform(t)
	if err != nil {
		return nil, err
	}
	for _, name := range fp.Features {
		c := tt.Col(name)
		if c == nil {
			return nil, artErr(ErrFeatureAbsent,
				"fitted feature %q is missing from the transformed batch (schema drift?)", name)
		}
		if !c.Kind.IsNumeric() {
			return nil, artErr(ErrFeatureType, "fitted feature %q is %s, want numeric", name, c.Kind)
		}
		if c.MissingCount() > 0 {
			return nil, artErr(ErrFeatureNaN,
				"fitted feature %q has %d missing values in the batch", name, c.MissingCount())
		}
	}
	X, _ := matrixAligned(fp.sharderFor(), tt, fp.Features)
	m, err := fp.liveModel()
	if err != nil {
		return nil, err
	}
	out := &Predictions{Rows: len(X), Task: fp.Task, Classes: fp.Classes}
	if fp.Task == data.Regression.String() {
		reg, ok := m.(regressorIface)
		if !ok {
			return nil, artErr(ErrArtifactModel, "model kind %q cannot do regression", fp.Model.Kind)
		}
		out.Values = reg.Predict(X)
		return out, nil
	}
	clf, ok := m.(classifierIface)
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
