package pipescript

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"catdb/internal/data"
	"catdb/internal/ml"
	"catdb/internal/obs"
	"catdb/internal/pool"
)

// messyRegTable builds a regression table with a noisy numeric target,
// missing values, and a dirty categorical for target encoding.
func messyRegTable(n int, seed int64) *data.Table {
	rng := rand.New(rand.NewSource(seed))
	num := make([]float64, n)
	num2 := make([]float64, n)
	cat := make([]string, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		c := i % 3
		num[i] = float64(c)*2 + rng.NormFloat64()*0.4
		num2[i] = rng.NormFloat64() * 3
		cat[i] = []string{"red", "RED", "green", "Green", "blue", "blue "}[c*2+rng.Intn(2)]
		y[i] = 4*float64(c) + 0.5*num2[i] + rng.NormFloat64()*0.3
	}
	t := data.NewTable("mr")
	t.MustAddColumn(data.NewNumeric("num", num))
	t.MustAddColumn(data.NewNumeric("num2", num2))
	t.MustAddColumn(data.NewString("cat", cat))
	t.MustAddColumn(data.NewNumeric("y", y))
	for i := 0; i < n; i += 17 {
		t.Col("num").SetMissing(i)
	}
	return t
}

// fitRoundTrip fits a pipeline, serializes the artifact, and loads it
// back, returning the inline result and the round-tripped artifact.
func fitRoundTrip(t *testing.T, ex *Executor, src string, tr, te *data.Table) (*Result, *FittedPipeline) {
	t.Helper()
	ex.CapturePredictions = true
	res, fp, err := ex.Fit(mustParse(t, src), tr, te)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fp.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	back, err := LoadFittedPipeline(&buf)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return res, back
}

// reload returns a fresh copy of fp through a Save/Load round trip. A
// FittedPipeline is not copied by value, and a fresh one derives its live
// model again on its first Predict.
func reload(t *testing.T, fp *FittedPipeline) *FittedPipeline {
	t.Helper()
	var buf bytes.Buffer
	if err := fp.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	back, err := LoadFittedPipeline(&buf)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return back
}

func TestArtifactClassificationBitIdentical(t *testing.T) {
	src := `pipeline "clf"
impute "num" strategy=median
dedup_values "cat"
onehot "cat"
khot "lst"
winsorize "num" lower=0.05 upper=0.95
scale all_numeric method=standard
train model=%s target="y" trees=10 rounds=8
evaluate metric=auto
`
	for _, model := range []string{"random_forest", "gbm", "knn"} {
		for _, fitWorkers := range []int{1, 4} {
			tr, te := split(messyTable(900, 2), 5)
			setProcs(t, fitWorkers)
			ex := &Executor{Target: "y", Task: data.Multiclass, Seed: 3}
			res, fp := fitRoundTrip(t, ex, fmt.Sprintf(src, model), tr, te)
			if len(res.TestProba) == 0 {
				t.Fatalf("%s: no captured test probabilities", model)
			}
			for _, predWorkers := range []int{1, 4} {
				setProcs(t, predWorkers)
				pred, err := fp.Predict(te)
				if err != nil {
					t.Fatalf("%s: predict: %v", model, err)
				}
				if pred.Rows != len(res.TestProba) {
					t.Fatalf("%s: %d rows scored, inline scored %d", model, pred.Rows, len(res.TestProba))
				}
				for i := range pred.Proba {
					for j := range pred.Proba[i] {
						if pred.Proba[i][j] != res.TestProba[i][j] {
							t.Fatalf("%s (fit w=%d, pred w=%d) row %d class %d: artifact %v != inline %v",
								model, fitWorkers, predWorkers, i, j, pred.Proba[i][j], res.TestProba[i][j])
						}
					}
					if pred.Values[i] != res.TestPredictions[i] || pred.Labels[i] != res.TestLabels[i] {
						t.Fatalf("%s row %d: label %q/%v != inline %q/%v", model, i,
							pred.Labels[i], pred.Values[i], res.TestLabels[i], res.TestPredictions[i])
					}
				}
			}
		}
	}
}

func TestArtifactRegressionBitIdentical(t *testing.T) {
	src := `pipeline "reg"
impute "num" strategy=median
target_encode "cat"
winsorize "num2" lower=0.02 upper=0.98
scale "num" method=standard
train model=%s target="y" trees=10 rounds=8
evaluate metric=auto
`
	for _, model := range []string{"random_forest", "gbm", "knn"} {
		tr, te := split(messyRegTable(900, 4), 6)
		setProcs(t, 2)
		ex := &Executor{Target: "y", Task: data.Regression, Seed: 3}
		res, fp := fitRoundTrip(t, ex, fmt.Sprintf(src, model), tr, te)
		if len(res.TestPredictions) == 0 {
			t.Fatalf("%s: no captured test predictions", model)
		}
		for _, predWorkers := range []int{1, 4} {
			setProcs(t, predWorkers)
			pred, err := fp.Predict(te)
			if err != nil {
				t.Fatalf("%s: predict: %v", model, err)
			}
			for i := range pred.Values {
				if pred.Values[i] != res.TestPredictions[i] {
					t.Fatalf("%s (pred w=%d) row %d: artifact %v != inline %v",
						model, predWorkers, i, pred.Values[i], res.TestPredictions[i])
				}
			}
		}
	}
}

func TestArtifactDeterministicAcrossWorkersAndSaves(t *testing.T) {
	src := `pipeline "det"
impute "num" strategy=median
dedup_values "cat"
onehot "cat"
khot "lst"
scale all_numeric method=standard
train model=random_forest target="y" trees=8
evaluate metric=auto
`
	var blobs [][]byte
	for _, workers := range []int{1, 4} {
		tr, te := split(messyTable(600, 2), 5)
		setProcs(t, workers)
		ex := &Executor{Target: "y", Task: data.Multiclass, Seed: 3}
		_, fp, err := ex.Fit(mustParse(t, src), tr, te)
		if err != nil {
			t.Fatal(err)
		}
		var a, b bytes.Buffer
		if err := fp.Save(&a); err != nil {
			t.Fatal(err)
		}
		if err := fp.Save(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatal("artifact encoding not deterministic across saves")
		}
		blobs = append(blobs, a.Bytes())
	}
	if !bytes.Equal(blobs[0], blobs[1]) {
		t.Fatal("artifact differs between fit worker counts")
	}
}

// TestScaleExemptsTargetOnTestSplit is the regression test for the
// target-leakage bug: `scale "y"` used to rescale held-out ground truth,
// so TestRMSE was computed in scaled units instead of target units.
func TestScaleExemptsTargetOnTestSplit(t *testing.T) {
	tr, te := split(messyRegTable(600, 9), 11)
	rawY := append([]float64(nil), te.Col("y").NumsView()...)
	src := `pipeline "leak"
impute "num" strategy=median
drop "cat"
scale "y" method=standard
train model=linear_regression target="y"
evaluate metric=auto
`
	ex := &Executor{Target: "y", Task: data.Regression, Seed: 1, CapturePredictions: true}
	res, err := ex.Execute(mustParse(t, src), tr, te)
	if err != nil {
		t.Fatal(err)
	}
	// The model learned the scaled target, so its raw-unit RMSE is large;
	// the reported metric must be against the UNSCALED test truth.
	want := ml.RMSE(res.TestPredictions, rawY)
	if res.TestRMSE != want {
		t.Fatalf("TestRMSE = %v, want %v (computed against raw ground truth)", res.TestRMSE, want)
	}
	// The scaled train target has std≈1 while raw y spans ~4 units per
	// class; the honest RMSE is far above the scaled-truth RMSE the old
	// code reported (which was < 1 by construction).
	if res.TestRMSE < 1 {
		t.Fatalf("TestRMSE = %v suspiciously small: test ground truth looks rescaled", res.TestRMSE)
	}
}

// TestTrainRejectsMissingTarget is the regression test for the
// NaN-target bug: missing regression targets used to flow into the fit
// as silent zeros, and missing classification labels became a "" class.
func TestTrainRejectsMissingTarget(t *testing.T) {
	src := `pipeline "nan"
impute "num" strategy=median
drop "cat"
train model=decision_tree target="y"
evaluate metric=auto
`
	t.Run("regression", func(t *testing.T) {
		tab := messyRegTable(300, 3)
		for i := 0; i < tab.NumRows(); i += 11 {
			tab.Col("y").SetMissing(i)
		}
		tr, te := split(tab, 5)
		ex := &Executor{Target: "y", Task: data.Regression, Seed: 1}
		_, err := ex.Execute(mustParse(t, src), tr, te)
		var re *RuntimeError
		if !errors.As(err, &re) || re.Code != ErrNaNInMatrix {
			t.Fatalf("err = %v, want %s for missing regression targets", err, ErrNaNInMatrix)
		}
	})
	t.Run("classification", func(t *testing.T) {
		tab := messyTable(300, 3)
		for i := 0; i < tab.NumRows(); i += 11 {
			tab.Col("y").SetMissing(i)
		}
		tr, te := split(tab, 5)
		ex := &Executor{Target: "y", Task: data.Multiclass, Seed: 1}
		src := `pipeline "nanc"
impute "num" strategy=median
dedup_values "cat"
onehot "cat"
khot "lst"
train model=decision_tree target="y"
evaluate metric=auto
`
		_, err := ex.Execute(mustParse(t, src), tr, te)
		var re *RuntimeError
		if !errors.As(err, &re) || re.Code != ErrNaNInMatrix {
			t.Fatalf("err = %v, want %s for missing class labels", err, ErrNaNInMatrix)
		}
	})
}

// Serving is bit-identical at any worker count: Transform and Predict
// over the same batch must not depend on GOMAXPROCS, which sizes the
// pool inference fans out over.
func TestServingWorkersIdentical(t *testing.T) {
	src := `pipeline "serve"
impute "num" strategy=median
dedup_values "cat"
onehot "cat"
khot "lst"
scale "num" method=standard
train model=random_forest target="y" trees=10
`
	tr, te := split(messyTable(500, 8), 3)
	ex := &Executor{Target: "y", Task: data.Multiclass, Seed: 4}
	_, fp, err := ex.Fit(mustParse(t, src), tr, te)
	if err != nil {
		t.Fatal(err)
	}
	batch := messyTable(400, 9)
	batch.DropColumn("y")

	setProcs(t, 1)
	wantT, err := fp.Transform(batch)
	if err != nil {
		t.Fatal(err)
	}
	wantP, err := fp.Predict(batch)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 8} {
		setProcs(t, w)
		gotT, err := fp.Transform(batch)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := gotT.ColumnNames(), wantT.ColumnNames(); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: transformed columns %v, want %v", w, got, want)
		}
		for _, name := range wantT.ColumnNames() {
			wc, gc := wantT.Col(name), gotT.Col(name)
			for i := 0; i < wc.Len(); i++ {
				if wc.ValueString(i) != gc.ValueString(i) || wc.IsMissing(i) != gc.IsMissing(i) {
					t.Fatalf("workers=%d: column %q row %d differs (%q vs %q)",
						w, name, i, wc.ValueString(i), gc.ValueString(i))
				}
			}
		}
		gotP, err := fp.Predict(batch)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wantP, gotP) {
			t.Fatalf("workers=%d: predictions differ", w)
		}
	}
}

func TestArtifactNeverRecordsLabelSteps(t *testing.T) {
	src := `pipeline "labels"
impute "num" strategy=median
impute "y" strategy=most_frequent
dedup_values "y"
dedup_values "cat"
onehot "cat"
khot "lst"
train model=decision_tree target="y"
evaluate metric=auto
`
	tab := messyTable(300, 3)
	for i := 0; i < tab.NumRows(); i += 13 {
		tab.Col("num").SetMissing(i)
	}
	tr, te := split(tab, 5)
	ex := &Executor{Target: "y", Task: data.Multiclass, Seed: 1}
	_, fp, err := ex.Fit(mustParse(t, src), tr, te)
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range fp.Steps {
		if step.touchesTarget("y") {
			t.Fatalf("artifact recorded a label-touching step: %+v", step)
		}
	}
	for _, f := range fp.Features {
		if f == "y" {
			t.Fatal("label column listed as a model feature")
		}
	}
}

func TestPredictContractErrors(t *testing.T) {
	src := `pipeline "contract"
dedup_values "cat"
onehot "cat"
khot "lst"
train model=decision_tree target="y"
evaluate metric=auto
`
	base := messyTable(300, 3)
	// No missing numerics for this pipeline (no impute step).
	for i := 0; i < base.NumRows(); i++ {
		if base.Col("num").IsMissing(i) {
			base.Col("num").ClearMissing(i)
			base.Col("num").SetNum(i, 0)
		}
	}
	tr, te := split(base, 5)
	ex := &Executor{Target: "y", Task: data.Multiclass, Seed: 1}
	_, fp, err := ex.Fit(mustParse(t, src), tr, te)
	if err != nil {
		t.Fatal(err)
	}
	wantCode := func(t *testing.T, err error, code string) {
		t.Helper()
		var ae *ArtifactError
		if !errors.As(err, &ae) || ae.Code != code {
			t.Fatalf("err = %v, want artifact error %s", err, code)
		}
	}
	t.Run("absent_feature", func(t *testing.T) {
		batch := te.Clone()
		batch.DropColumn("cat") // its onehot features can never materialize
		_, err := fp.Predict(batch)
		wantCode(t, err, ErrFeatureAbsent)
	})
	t.Run("nan_feature", func(t *testing.T) {
		src := te.Clone()
		for i := 0; i < 5; i++ {
			src.Col("num").SetMissing(i)
		}
		// A row-mapped view that keeps gaps 0, 2 and 4 but not 1 and 3:
		// the count must go through the view mapping, not the whole mask.
		rows := []int{0, 2, 4}
		for i := 5; i < src.NumRows(); i++ {
			rows = append(rows, i)
		}
		_, err := fp.Predict(src.SelectRows(rows))
		wantCode(t, err, ErrFeatureNaN)
		if !strings.Contains(err.Error(), `fitted feature "num" has 3 missing values`) {
			t.Fatalf("err = %v, want it to count 3 missing values", err)
		}
	})
	t.Run("version_mismatch", func(t *testing.T) {
		bad := reload(t, fp)
		bad.Version = ArtifactVersion + 1
		_, err := bad.Predict(te)
		wantCode(t, err, ErrArtifactVersion)
		var buf bytes.Buffer
		if err := bad.Save(&buf); err != nil {
			t.Fatal(err)
		}
		_, err = LoadFittedPipeline(&buf)
		wantCode(t, err, ErrArtifactVersion)
	})
	t.Run("no_model", func(t *testing.T) {
		bad := reload(t, fp)
		bad.Model = nil
		_, err := bad.Predict(te)
		wantCode(t, err, ErrArtifactModel)
	})
	t.Run("unknown_step", func(t *testing.T) {
		bad := reload(t, fp)
		bad.Steps = append([]FittedStep{{Op: "no_such_op", Col: "num"}}, fp.Steps...)
		_, err := bad.Predict(te)
		wantCode(t, err, ErrStepFailed)
		if !strings.Contains(err.Error(), `step 0 (no_such_op on "num")`) {
			t.Fatalf("err = %v, want it to name the failing step", err)
		}
	})
}

// TestPredictCorruptTreeModel pins containment for corrupt tree dumps:
// an artifact whose model would index out of range at inference gets
// E_ARTIFACT_MODEL from Predict instead of a panic.
func TestPredictCorruptTreeModel(t *testing.T) {
	src := `pipeline "corrupt"
impute "num" strategy=median
target_encode "cat"
train model=random_forest target="y" trees=4
evaluate metric=auto
`
	tr, te := split(messyRegTable(300, 2), 5)
	ex := &Executor{Target: "y", Task: data.Regression, Seed: 1}
	_, fp := fitRoundTrip(t, ex, src, tr, te)
	leaf := func(v ...float64) ml.FlatNode { return ml.FlatNode{Left: -1, Right: -1, Leaf: true, Value: v} }
	split := func(f int) ml.FlatNode { return ml.FlatNode{Feature: f, Threshold: 0.5, Left: 1, Right: 2} }
	one := func(nodes ...ml.FlatNode) [][]ml.FlatNode { return [][]ml.FlatNode{nodes} }
	for name, m := range map[string]ml.FittedModel{
		"forest leaf without values": {Kind: ml.KindForest, Trees: one(split(0), leaf(), leaf(1))},
		"gbm leaf without values":    {Kind: ml.KindGBM, LearningRate: 0.1, Trees: one(split(0), leaf(1), leaf())},
		"leaf with extra classes":    {Kind: ml.KindForest, Classes: 2, Trees: one(split(0), leaf(1, 2, 3), leaf(1, 2))},
		"split on feature -1":        {Kind: ml.KindForest, Trees: one(split(-1), leaf(1), leaf(2))},
		"forest negative classes":    {Kind: ml.KindForest, Classes: -1, Trees: one(leaf(1))},
		"extra-trees negative class": {Kind: ml.KindExtraTrees, Classes: -1, Trees: one(leaf(1))},
		"gbm negative classes":       {Kind: ml.KindGBM, Classes: -1, Trees: one(leaf(1))},
	} {
		bad := reload(t, fp)
		bad.Model = &m
		var buf bytes.Buffer
		if err := bad.Save(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := LoadFittedPipeline(&buf)
		if err != nil {
			t.Fatal(err)
		}
		_, err = back.Predict(te)
		var ae *ArtifactError
		if !errors.As(err, &ae) || ae.Code != ErrArtifactModel {
			t.Errorf("%s: err = %v, want artifact error %s", name, err, ErrArtifactModel)
		}
	}
}

// TestPredictCorruptScaler pins containment for a linear-model artifact
// whose scaler has fewer deviations than means: Predict returns
// E_ARTIFACT_MODEL instead of indexing past the deviations.
func TestPredictCorruptScaler(t *testing.T) {
	src := `pipeline "scaler"
impute "num" strategy=median
target_encode "cat"
train model=linear_regression target="y"
`
	tr, te := split(messyRegTable(300, 2), 5)
	ex := &Executor{Target: "y", Task: data.Regression, Seed: 1}
	_, fp := fitRoundTrip(t, ex, src, tr, te)
	if len(fp.Features) != 3 {
		t.Fatalf("features %v, want 3", fp.Features)
	}
	m := *fp.Model
	m.Scaler = &ml.ScalerDump{Mean: []float64{0, 0, 0}, Std: []float64{1}}
	bad := reload(t, fp)
	bad.Model = &m
	var buf bytes.Buffer
	if err := bad.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFittedPipeline(&buf)
	if err != nil {
		t.Fatal(err)
	}
	_, err = back.Predict(te)
	var ae *ArtifactError
	if !errors.As(err, &ae) || ae.Code != ErrArtifactModel {
		t.Fatalf("err = %v, want artifact error %s", err, ErrArtifactModel)
	}
}

// TestPredictCorruptNonTreeModel pins containment for corrupt dumps of the
// other model kinds: a shape their inference would index out of range
// gets E_ARTIFACT_MODEL from Predict instead of a panic.
func TestPredictCorruptNonTreeModel(t *testing.T) {
	const src = `pipeline "corrupt"
impute "num" strategy=median
dedup_values "cat"
onehot "cat"
khot "lst"
train model=%s target="y"
`
	tr, te := split(messyTable(300, 3), 5)
	_, clf := fitRoundTrip(t, &Executor{Target: "y", Task: data.Multiclass, Seed: 1},
		fmt.Sprintf(src, "logistic_regression"), tr, te)
	rtr, rte := split(messyRegTable(300, 2), 5)
	_, reg := fitRoundTrip(t, &Executor{Target: "y", Task: data.Regression, Seed: 1}, `pipeline "corrupt"
impute "num" strategy=median
target_encode "cat"
train model=knn target="y"
`, rtr, rte)
	sc := &ml.ScalerDump{Mean: []float64{0}, Std: []float64{1}}
	width := len(clf.Features)
	if width != 7 {
		t.Fatalf("features %v, want 7", clf.Features)
	}
	sc7 := &ml.ScalerDump{Mean: make([]float64, width), Std: make([]float64, width)}
	for j := range sc7.Std {
		sc7.Std[j] = 1
	}
	rows := func(n, w int) [][]float64 {
		X := make([][]float64, n)
		for i := range X {
			X[i] = make([]float64, w)
		}
		return X
	}
	for name, m := range map[string]ml.FittedModel{
		"tabpfn stored rows narrower than the features": {Kind: ml.KindTabPFN, Classes: 3, Bandwidth: 1, Scaler: sc7,
			X: rows(2, 1), Yc: []int{0, 1}},
		"knn stored rows wider than the features": {Kind: ml.KindKNN, Classes: 3, K: 1, Scaler: sc7,
			X: rows(2, 100), Yc: []int{0, 1}},
		"knn stored rows narrower than the features": {Kind: ml.KindKNN, Classes: 3, K: 1, Scaler: sc7,
			X: rows(2, 3), Yc: []int{0, 1}},
		"logistic bc cut to one entry": {Kind: ml.KindLogistic, Classes: 3, Scaler: sc,
			WC: [][]float64{{1}, {1}, {1}}, BC: []float64{0}},
		"logistic with one weight row": {Kind: ml.KindLogistic, Classes: 3, Scaler: sc,
			WC: [][]float64{{1}}, BC: []float64{0, 0, 0}},
		"svm with one bias": {Kind: ml.KindSVM, Classes: 2, Scaler: sc,
			WC: [][]float64{{1}, {1}}, BC: []float64{0}},
		"svm with one weight row": {Kind: ml.KindSVM, Classes: 2, Scaler: sc,
			WC: [][]float64{{1}}, BC: []float64{0, 0}},
		"knn with fewer labels than rows": {Kind: ml.KindKNN, Classes: 2, K: 1, Scaler: sc,
			X: [][]float64{{0}, {1}}, Yc: []int{0}},
		"knn label past the classes": {Kind: ml.KindKNN, Classes: 2, K: 1, Scaler: sc,
			X: [][]float64{{0}, {1}}, Yc: []int{2, 2}},
		"knn regression short targets": {Kind: ml.KindKNN, K: 1, Scaler: sc,
			X: [][]float64{{0}, {1}}, Yr: []float64{1}},
		"tabpfn with fewer labels than rows": {Kind: ml.KindTabPFN, Classes: 2, Bandwidth: 1, Scaler: sc,
			X: [][]float64{{0}, {1}}, Yc: []int{1}},
		"tabpfn negative label": {Kind: ml.KindTabPFN, Classes: 2, Bandwidth: 1, Scaler: sc,
			X: [][]float64{{0}, {1}}, Yc: []int{-1, -1}},
		"naive-bayes one mean row": {Kind: ml.KindNaiveBayes, Classes: 2,
			Prior: []float64{0.5, 0.5}, Mean: [][]float64{{0}}, Vari: [][]float64{{1}, {1}}},
		"naive-bayes one variance row": {Kind: ml.KindNaiveBayes, Classes: 2,
			Prior: []float64{0.5, 0.5}, Mean: [][]float64{{0}, {0}}, Vari: [][]float64{{1}}},
		"naive-bayes short variance row": {Kind: ml.KindNaiveBayes, Classes: 2,
			Prior: []float64{0.5, 0.5}, Mean: [][]float64{{0, 0}, {0, 0}}, Vari: [][]float64{{1, 1}, {1}}},
		"naive-bayes without classes": {Kind: ml.KindNaiveBayes},
	} {
		fp, batch := clf, te
		if m.Kind == ml.KindKNN && m.Classes == 0 {
			fp, batch = reg, rte
		}
		bad := reload(t, fp)
		bad.Model = &m
		var buf bytes.Buffer
		if err := bad.Save(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := LoadFittedPipeline(&buf)
		if err != nil {
			t.Fatal(err)
		}
		_, err = back.Predict(batch)
		var ae *ArtifactError
		if !errors.As(err, &ae) || ae.Code != ErrArtifactModel {
			t.Errorf("%s: err = %v, want artifact error %s", name, err, ErrArtifactModel)
		}
		if strings.Contains(name, "stored rows") && !strings.Contains(fmt.Sprint(err), "values for 7 features") {
			t.Errorf("%s: err = %v, want the stored-row width check", name, err)
		}
	}
}

// panicModel is a classifier whose batch inference panics in a pool
// task, which it re-raises on the caller as ml's batch inference does.
type panicModel struct{}

func (panicModel) FitClass([][]float64, []int, int) error { return nil }

func (panicModel) Proba(X [][]float64) [][]float64 {
	if err := pool.Each(2, func(i int) error {
		var seen map[int]bool
		seen[i] = true // nil map: panics
		return nil
	}); err != nil {
		panic(err)
	}
	return nil
}

// TestPredictModelPanic pins the other half of the recovery point: a
// panic in model inference, here a pool task's, is E_ARTIFACT_MODEL.
func TestPredictModelPanic(t *testing.T) {
	tr, te := split(messyTable(300, 3), 5)
	_, fp := fitRoundTrip(t, &Executor{Target: "y", Task: data.Multiclass, Seed: 1}, `pipeline "panic"
impute "num" strategy=median
onehot "cat"
drop "lst"
train model=decision_tree target="y"
`, tr, te)
	fp.liveModel()
	fp.model = panicModel{}
	_, err := fp.Predict(te)
	var ae *ArtifactError
	if !errors.As(err, &ae) || ae.Code != ErrArtifactModel || !strings.Contains(ae.Msg, "model inference panicked") {
		t.Fatalf("err = %v, want artifact error %s from the model's panic", err, ErrArtifactModel)
	}
}

// TestPredictCorruptStep pins the serving path's recovery point: a
// recorded step that panics while it applies (here a hash_encode step
// whose buckets field is absent, so it reads as zero and the bucket
// index divides by it) gets E_STEP_FAILED naming the step, from both
// Transform and Predict, instead of crashing the process.
func TestPredictCorruptStep(t *testing.T) {
	src := `pipeline "step"
impute "num" strategy=median
hash_encode "cat" buckets=8
drop "lst"
train model=random_forest target="y" trees=4
`
	tr, te := split(messyTable(300, 3), 5)
	_, fp := fitRoundTrip(t, &Executor{Target: "y", Task: data.Multiclass, Seed: 1}, src, tr, te)
	bad := reload(t, fp)
	at := -1
	for i, st := range bad.Steps {
		if st.Op == "hash_encode" {
			bad.Steps[i].Buckets, at = 0, i
		}
	}
	if at < 0 {
		t.Fatalf("no hash_encode step in %+v", fp.Steps)
	}
	var buf bytes.Buffer
	if err := bad.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "buckets") {
		t.Fatal("the saved artifact still names buckets")
	}
	back, err := LoadFittedPipeline(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("step %d (hash_encode on \"cat\") panicked", at)
	_, terr := back.Transform(te)
	_, perr := back.Predict(te)
	for name, err := range map[string]error{"Transform": terr, "Predict": perr} {
		var ae *ArtifactError
		if !errors.As(err, &ae) || ae.Code != ErrStepFailed || !strings.Contains(ae.Msg, want) {
			t.Errorf("%s: err = %v, want artifact error %s naming %q", name, err, ErrStepFailed, want)
		}
	}
}

func TestPredictRecordsMetrics(t *testing.T) {
	src := `pipeline "obs"
dedup_values "cat"
onehot "cat"
khot "lst"
impute "num" strategy=median
train model=decision_tree target="y"
evaluate metric=auto
`
	tr, te := split(messyTable(300, 3), 5)
	ex := &Executor{Target: "y", Task: data.Multiclass, Seed: 1}
	_, fp, err := ex.Fit(mustParse(t, src), tr, te)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	fp.Metrics = reg
	if _, err := fp.Predict(te); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("catdb_predict_rows_total").Value(); got != int64(te.NumRows()) {
		t.Fatalf("rows counter = %d, want %d", got, te.NumRows())
	}
	if reg.Counter("catdb_predict_batches_total").Value() != 1 {
		t.Fatal("batch counter not incremented")
	}
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"catdb_predict_seconds", "catdb_transform_stage_seconds"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("prom output missing %s", want)
		}
	}
}

// TestPredictConcurrent pins the concurrency contract: goroutines that
// call Predict on one freshly loaded artifact, each with the whole batch
// and then every single row, get exactly the serial predictions, with
// and without a registry attached. Under `make race` it also checks that
// the first calls, which derive the live model and the compiled steps,
// do not race.
func TestPredictConcurrent(t *testing.T) {
	src := `pipeline "concurrent"
impute "num" strategy=median
dedup_values "cat"
onehot "cat"
khot "lst"
scale all_numeric method=standard
train model=random_forest target="y" trees=8
`
	tr, te := split(messyTable(400, 4), 3)
	ex := &Executor{Target: "y", Task: data.Multiclass, Seed: 2}
	_, fp, err := ex.Fit(mustParse(t, src), tr, te)
	if err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := fp.Save(&saved); err != nil {
		t.Fatal(err)
	}
	load := func() *FittedPipeline {
		back, err := LoadFittedPipeline(bytes.NewReader(saved.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return back
	}
	batch := te.Clone()
	batch.DropColumn("y")
	rows := make([]*data.Table, 16)
	for i := range rows {
		rows[i] = batch.SelectRows([]int{i})
	}
	serial := load()
	wantBatch, err := serial.Predict(batch)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := make([]*Predictions, len(rows))
	for i, row := range rows {
		if wantRows[i], err = serial.Predict(row); err != nil {
			t.Fatal(err)
		}
	}
	const goroutines = 6
	for _, reg := range []*obs.Registry{nil, obs.NewRegistry()} {
		shared := load()
		shared.Metrics = reg
		errs := make(chan error, goroutines)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				got, err := shared.Predict(batch)
				if err != nil || !reflect.DeepEqual(got, wantBatch) {
					errs <- fmt.Errorf("goroutine %d: batch predictions differ from the serial ones (err %v)", g, err)
					return
				}
				for i := range rows {
					k := (i + g) % len(rows)
					got, err := shared.Predict(rows[k])
					if err != nil || !reflect.DeepEqual(got, wantRows[k]) {
						errs <- fmt.Errorf("goroutine %d: row %d differs from the serial prediction (err %v)", g, k, err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		if reg != nil {
			want := int64(goroutines * (batch.NumRows() + len(rows)))
			if got := reg.Counter("catdb_predict_rows_total").Value(); got != want {
				t.Errorf("rows counter = %d, want %d", got, want)
			}
		}
	}
}
