package ml

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// roundTrip pushes a FittedModel through JSON and back, returning the
// reconstructed live model, and leaves GOMAXPROCS at workers for the rest
// of the test.
func roundTrip(t *testing.T, m any, workers int) any {
	t.Helper()
	setProcs(t, workers)
	fm, err := Export(m)
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	blob, err := json.Marshal(fm)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back FittedModel
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	out, err := back.Model()
	if err != nil {
		t.Fatalf("model: %v", err)
	}
	return out
}

type prober interface {
	Proba(X [][]float64) [][]float64
}

type predictor interface {
	Predict(X [][]float64) []float64
}

func sameProba(t *testing.T, name string, a, b prober, X [][]float64) {
	t.Helper()
	pa, pb := a.Proba(X), b.Proba(X)
	if len(pa) != len(pb) {
		t.Fatalf("%s: proba row count %d vs %d", name, len(pa), len(pb))
	}
	for i := range pa {
		if len(pa[i]) != len(pb[i]) {
			t.Fatalf("%s row %d: class count %d vs %d", name, i, len(pa[i]), len(pb[i]))
		}
		for j := range pa[i] {
			if pa[i][j] != pb[i][j] {
				t.Fatalf("%s row %d class %d: %v != %v (not bit-identical)",
					name, i, j, pa[i][j], pb[i][j])
			}
		}
	}
}

func samePredict(t *testing.T, name string, a, b predictor, X [][]float64) {
	t.Helper()
	pa, pb := a.Predict(X), b.Predict(X)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("%s row %d: %v != %v (not bit-identical)", name, i, pa[i], pb[i])
		}
	}
}

func TestSerializeClassifiersRoundTrip(t *testing.T) {
	X, y := synthClass(400, 3, 0.6, 7)
	Xq, _ := synthClass(90, 3, 0.9, 8)
	cases := []struct {
		name string
		make func() interface {
			FitClass(X [][]float64, y []int, classes int) error
			Proba(X [][]float64) [][]float64
		}
	}{
		{"forest", func() interface {
			FitClass(X [][]float64, y []int, classes int) error
			Proba(X [][]float64) [][]float64
		} {
			return NewForest(ForestConfig{Trees: 12, Seed: 3})
		}},
		{"extra_trees", func() interface {
			FitClass(X [][]float64, y []int, classes int) error
			Proba(X [][]float64) [][]float64
		} {
			return NewExtraTrees(ForestConfig{Trees: 12, Seed: 3})
		}},
		{"tree", func() interface {
			FitClass(X [][]float64, y []int, classes int) error
			Proba(X [][]float64) [][]float64
		} {
			return NewTree(TreeConfig{Seed: 3})
		}},
		{"gbm", func() interface {
			FitClass(X [][]float64, y []int, classes int) error
			Proba(X [][]float64) [][]float64
		} {
			return NewGBM(GBMConfig{Rounds: 10, Seed: 3})
		}},
		{"knn", func() interface {
			FitClass(X [][]float64, y []int, classes int) error
			Proba(X [][]float64) [][]float64
		} {
			return NewKNN(KNNConfig{K: 5})
		}},
		{"logistic", func() interface {
			FitClass(X [][]float64, y []int, classes int) error
			Proba(X [][]float64) [][]float64
		} {
			return NewLogistic(LinearConfig{Epochs: 8, Seed: 3})
		}},
		{"naive_bayes", func() interface {
			FitClass(X [][]float64, y []int, classes int) error
			Proba(X [][]float64) [][]float64
		} {
			return NewNaiveBayes()
		}},
		{"svm", func() interface {
			FitClass(X [][]float64, y []int, classes int) error
			Proba(X [][]float64) [][]float64
		} {
			return NewSVM(LinearConfig{Epochs: 4, Seed: 3})
		}},
		{"tabpfn", func() interface {
			FitClass(X [][]float64, y []int, classes int) error
			Proba(X [][]float64) [][]float64
		} {
			return NewTabPFNSim()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.make()
			if err := m.FitClass(X, y, 3); err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				back := roundTrip(t, m, workers).(prober)
				sameProba(t, tc.name, m, back, Xq)
			}
		})
	}
}

func TestSerializeRegressorsRoundTrip(t *testing.T) {
	X, y := synthReg(400, 0.3, 11)
	Xq, _ := synthReg(90, 0.8, 12)
	cases := []struct {
		name string
		make func() interface {
			Fit(X [][]float64, y []float64) error
			Predict(X [][]float64) []float64
		}
	}{
		{"forest", func() interface {
			Fit(X [][]float64, y []float64) error
			Predict(X [][]float64) []float64
		} {
			return NewForest(ForestConfig{Trees: 12, Seed: 3})
		}},
		{"extra_trees", func() interface {
			Fit(X [][]float64, y []float64) error
			Predict(X [][]float64) []float64
		} {
			return NewExtraTrees(ForestConfig{Trees: 12, Seed: 3})
		}},
		{"tree", func() interface {
			Fit(X [][]float64, y []float64) error
			Predict(X [][]float64) []float64
		} {
			return NewTree(TreeConfig{Seed: 3})
		}},
		{"gbm", func() interface {
			Fit(X [][]float64, y []float64) error
			Predict(X [][]float64) []float64
		} {
			return NewGBM(GBMConfig{Rounds: 10, Seed: 3})
		}},
		{"knn", func() interface {
			Fit(X [][]float64, y []float64) error
			Predict(X [][]float64) []float64
		} {
			return NewKNN(KNNConfig{K: 5})
		}},
		{"linear", func() interface {
			Fit(X [][]float64, y []float64) error
			Predict(X [][]float64) []float64
		} {
			return NewLinear(LinearConfig{Epochs: 30})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.make()
			if err := m.Fit(X, y); err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				back := roundTrip(t, m, workers).(predictor)
				samePredict(t, tc.name, m, back, Xq)
			}
		})
	}
}

func TestSerializeDeterministicEncoding(t *testing.T) {
	X, y := synthClass(200, 2, 0.5, 5)
	f := NewForest(ForestConfig{Trees: 5, Seed: 1})
	if err := f.FitClass(X, y, 2); err != nil {
		t.Fatal(err)
	}
	fm, err := Export(f)
	if err != nil {
		t.Fatal(err)
	}
	a, err := json.Marshal(fm)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(fm)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("encoding is not deterministic across marshals")
	}
}

// malformedTreeDumps are tree-model dumps FittedModel.Model must reject.
// Before the loader checked them, each of the first eight loaded and
// then panicked in Predict or Proba.
func malformedTreeDumps() []struct {
	name string
	fm   FittedModel
} {
	leaf := func(v ...float64) FlatNode { return FlatNode{Left: -1, Right: -1, Leaf: true, Value: v} }
	split := func(f, l, r int) FlatNode { return FlatNode{Feature: f, Threshold: 0.5, Left: l, Right: r} }
	one := func(nodes ...FlatNode) [][]FlatNode { return [][]FlatNode{nodes} }
	return []struct {
		name string
		fm   FittedModel
	}{
		{"regression forest leaf without values", FittedModel{Kind: KindForest,
			Trees: one(split(0, 1, 2), leaf(), leaf(1))}},
		{"gbm leaf without values", FittedModel{Kind: KindGBM, LearningRate: 0.1,
			Trees: one(split(0, 1, 2), leaf(1), leaf())}},
		{"classification leaf with more values than classes", FittedModel{Kind: KindForest, Classes: 2,
			Trees: one(split(0, 1, 2), leaf(1, 2, 3), leaf(1, 2))}},
		{"split on feature -1", FittedModel{Kind: KindForest,
			Trees: one(split(-1, 1, 2), leaf(1), leaf(2))}},
		{"forest with negative classes", FittedModel{Kind: KindForest, Classes: -1, Trees: one(leaf(1))}},
		{"extra-trees with negative classes", FittedModel{Kind: KindExtraTrees, Classes: -2, Trees: one(leaf(1))}},
		{"gbm with negative classes", FittedModel{Kind: KindGBM, Classes: -1, Trees: one(leaf(1))}},
		{"gbm with fewer biases than classes", FittedModel{Kind: KindGBM, Classes: 2, Bias: []float64{0},
			OVR: [][][]FlatNode{one(leaf(1)), one(leaf(-1))}}},
		{"tree without nodes", FittedModel{Kind: KindForest, Trees: [][]FlatNode{{}}}},
		{"self-referential child", FittedModel{Kind: KindTree, Classes: 2,
			Trees: one(split(0, 0, -1))}},
		{"left child not the next node", FittedModel{Kind: KindTree,
			Trees: one(split(0, 2, 1), leaf(1), leaf(2))}},
		{"right child past the last node", FittedModel{Kind: KindTree,
			Trees: one(split(0, 1, 3), leaf(1), leaf(2))}},
		{"split as the last node", FittedModel{Kind: KindExtraTrees,
			Trees: one(split(0, 1, 2))}},
	}
}

// malformedNonTreeDumps are loadable-looking dumps of the other kinds
// whose inference would index out of range.
func malformedNonTreeDumps() []struct {
	name string
	fm   FittedModel
} {
	sc := &ScalerDump{Mean: []float64{0}, Std: []float64{1}}
	return []struct {
		name string
		fm   FittedModel
	}{
		{"logistic with fewer biases than classes", FittedModel{Kind: KindLogistic, Classes: 3, Scaler: sc,
			WC: [][]float64{{1}, {1}, {1}}, BC: []float64{0}}},
		{"logistic with fewer weight rows than classes", FittedModel{Kind: KindLogistic, Classes: 3, Scaler: sc,
			WC: [][]float64{{1}}, BC: []float64{0, 0, 0}}},
		{"svm with fewer biases than classes", FittedModel{Kind: KindSVM, Classes: 2, Scaler: sc,
			WC: [][]float64{{1}, {1}}, BC: []float64{0}}},
		{"svm with fewer weight rows than classes", FittedModel{Kind: KindSVM, Classes: 2, Scaler: sc,
			WC: [][]float64{{1}}, BC: []float64{0, 0}}},
		{"knn with fewer labels than rows", FittedModel{Kind: KindKNN, Classes: 2, K: 1, Scaler: sc,
			X: [][]float64{{0}, {1}}, Yc: []int{0}}},
		{"knn with a label past the classes", FittedModel{Kind: KindKNN, Classes: 2, K: 1, Scaler: sc,
			X: [][]float64{{0}, {1}}, Yc: []int{0, 2}}},
		{"knn regression with fewer targets than rows", FittedModel{Kind: KindKNN, K: 1, Scaler: sc,
			X: [][]float64{{0}, {1}}, Yr: []float64{1}}},
		{"tabpfn with fewer labels than rows", FittedModel{Kind: KindTabPFN, Classes: 2, Bandwidth: 1, Scaler: sc,
			X: [][]float64{{0}, {1}}, Yc: []int{1}}},
		{"tabpfn with a negative label", FittedModel{Kind: KindTabPFN, Classes: 2, Bandwidth: 1, Scaler: sc,
			X: [][]float64{{0}, {1}}, Yc: []int{0, -1}}},
		{"naive-bayes with fewer mean rows than classes", FittedModel{Kind: KindNaiveBayes, Classes: 2,
			Prior: []float64{0.5, 0.5}, Mean: [][]float64{{0}}, Vari: [][]float64{{1}, {1}}}},
		{"naive-bayes with fewer variance rows than classes", FittedModel{Kind: KindNaiveBayes, Classes: 2,
			Prior: []float64{0.5, 0.5}, Mean: [][]float64{{0}, {0}}, Vari: [][]float64{{1}}}},
		{"naive-bayes variance row shorter than its means", FittedModel{Kind: KindNaiveBayes, Classes: 2,
			Prior: []float64{0.5, 0.5}, Mean: [][]float64{{0, 0}, {0, 0}}, Vari: [][]float64{{1, 1}, {1}}}},
		{"naive-bayes without classes", FittedModel{Kind: KindNaiveBayes}},
	}
}

func TestSerializeRejectsUnfittedAndMalformed(t *testing.T) {
	if _, err := Export(NewForest(ForestConfig{})); err == nil {
		t.Fatal("expected error exporting unfitted forest")
	}
	if _, err := Export(NewTree(TreeConfig{})); err == nil {
		t.Fatal("expected error exporting unfitted tree")
	}
	if _, err := Export(42); err == nil {
		t.Fatal("expected error exporting unknown type")
	}
	for _, tc := range append(malformedTreeDumps(), malformedNonTreeDumps()...) {
		if _, err := tc.fm.Model(); err == nil {
			t.Errorf("%s: dump loaded without error", tc.name)
		}
	}
	if _, err := (&FittedModel{Kind: "nope"}).Model(); err == nil {
		t.Fatal("expected error for unknown kind")
	}
}

// FuzzTreeModel feeds arbitrary JSON to the tree-model loader. Whatever
// FittedModel.Model accepts must then predict, and classifiers must
// return class-wide probability rows, without panicking on rows 0, 1
// and 7 wide that hold NaN and ±Inf. Other model kinds are out of scope.
func FuzzTreeModel(f *testing.F) {
	Xc, yc := synthClass(60, 3, 0.6, 1)
	Xr, yr := synthReg(60, 0.3, 2)
	fc := ForestConfig{Trees: 2, MaxDepth: 3, Seed: 1}
	tc := TreeConfig{MaxDepth: 3, Seed: 1}
	gc := GBMConfig{Rounds: 2, MaxDepth: 2, Seed: 1}
	for _, m := range []interface {
		FitClass(X [][]float64, y []int, classes int) error
	}{NewForest(fc), NewExtraTrees(fc), NewTree(tc), NewGBM(gc)} {
		if err := m.FitClass(Xc, yc, 3); err != nil {
			f.Fatal(err)
		}
		f.Add(mustJSON(f, m))
	}
	for _, m := range []interface {
		Fit(X [][]float64, y []float64) error
	}{NewForest(fc), NewExtraTrees(fc), NewTree(tc), NewGBM(gc)} {
		if err := m.Fit(Xr, yr); err != nil {
			f.Fatal(err)
		}
		f.Add(mustJSON(f, m))
	}
	for _, tc := range malformedTreeDumps() {
		blob, err := json.Marshal(tc.fm)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	nan, inf := math.NaN(), math.Inf(1)
	rows := [][]float64{
		{}, {nan}, {inf}, {-inf}, {0},
		{nan, -inf, inf, 0, -1, 1, 0.5},
		{0.5, 1, -1, 0, inf, -inf, nan},
		{0, 0, 0, 0, 0, 0, 0},
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		var fm FittedModel
		if json.Unmarshal(blob, &fm) != nil {
			return
		}
		switch fm.Kind {
		case KindForest, KindExtraTrees, KindTree, KindGBM:
		default:
			return
		}
		m, err := fm.Model()
		if err != nil {
			return
		}
		if got := m.(predictor).Predict(rows); len(got) != len(rows) {
			t.Fatalf("Predict returned %d rows for %d", len(got), len(rows))
		}
		if fm.Classes > 0 {
			for i, p := range m.(prober).Proba(rows) {
				if len(p) != fm.Classes {
					t.Fatalf("Proba row %d has %d classes, want %d", i, len(p), fm.Classes)
				}
			}
		}
	})
}

// mustJSON returns a fitted model's exported JSON.
func mustJSON(f *testing.F, m any) []byte {
	f.Helper()
	fm, err := Export(m)
	if err != nil {
		f.Fatal(err)
	}
	blob, err := json.Marshal(fm)
	if err != nil {
		f.Fatal(err)
	}
	return blob
}
