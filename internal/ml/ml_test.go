package ml

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// synthClass builds a separable 2-feature classification set.
func synthClass(n, classes int, noise float64, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % classes
		angle := 2 * math.Pi * float64(c) / float64(classes)
		X[i] = []float64{
			3*math.Cos(angle) + noise*rng.NormFloat64(),
			3*math.Sin(angle) + noise*rng.NormFloat64(),
		}
		y[i] = c
	}
	return X, y
}

// synthReg builds y = 3*x0 - 2*x1 + noise.
func synthReg(n int, noise float64, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		X[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
		y[i] = 3*X[i][0] - 2*X[i][1] + noise*rng.NormFloat64()
	}
	return X, y
}

func TestTreeClassification(t *testing.T) {
	X, y := synthClass(600, 3, 0.5, 1)
	tr := NewTree(TreeConfig{Seed: 1})
	if err := tr.FitClass(X, y, 3); err != nil {
		t.Fatal(err)
	}
	pred := tr.Predict(X)
	preds := make([]int, len(pred))
	for i, p := range pred {
		preds[i] = int(p)
	}
	if acc := Accuracy(preds, y); acc < 0.9 {
		t.Fatalf("tree train accuracy = %g", acc)
	}
	proba := tr.Proba(X[:5])
	for _, row := range proba {
		var sum float64
		for _, p := range row {
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("proba not normalized: %v", row)
		}
	}
}

func TestTreeRegression(t *testing.T) {
	X, y := synthReg(600, 0.2, 2)
	tr := NewTree(TreeConfig{Seed: 1})
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if r2 := R2(tr.Predict(X), y); r2 < 0.8 {
		t.Fatalf("tree train R2 = %g", r2)
	}
}

func TestTreeErrors(t *testing.T) {
	if err := NewTree(TreeConfig{}).Fit(nil, nil); err == nil {
		t.Fatal("empty X must error")
	}
	if err := NewTree(TreeConfig{}).FitClass([][]float64{{1}}, []int{0}, 1); err == nil {
		t.Fatal("1-class must error")
	}
	if err := NewTree(TreeConfig{}).Fit([][]float64{{1}, {2, 3}}, []float64{1, 2}); err == nil {
		t.Fatal("ragged X must error")
	}
}

func TestForestClassificationGeneralizes(t *testing.T) {
	X, y := synthClass(800, 4, 0.8, 3)
	Xte, yte := synthClass(300, 4, 0.8, 99)
	f := NewForest(ForestConfig{Trees: 20, Seed: 1})
	if err := f.FitClass(X, y, 4); err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(f.PredictClass(Xte), yte); acc < 0.85 {
		t.Fatalf("forest test accuracy = %g", acc)
	}
	if auc := MacroAUC(f.Proba(Xte), yte, 4); auc < 0.9 {
		t.Fatalf("forest AUC = %g", auc)
	}
}

func TestForestRegression(t *testing.T) {
	X, y := synthReg(800, 0.3, 4)
	Xte, yte := synthReg(300, 0.3, 98)
	f := NewForest(ForestConfig{Trees: 20, Seed: 1})
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if r2 := R2(f.Predict(Xte), yte); r2 < 0.75 {
		t.Fatalf("forest test R2 = %g", r2)
	}
}

func TestForestDeterminism(t *testing.T) {
	X, y := synthClass(300, 2, 0.6, 5)
	a := NewForest(ForestConfig{Trees: 8, Seed: 7})
	b := NewForest(ForestConfig{Trees: 8, Seed: 7})
	_ = a.FitClass(X, y, 2)
	_ = b.FitClass(X, y, 2)
	pa, pb := a.PredictClass(X), b.PredictClass(X)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatal("same seed must give same forest")
		}
	}
}

func TestGBMRegression(t *testing.T) {
	X, y := synthReg(600, 0.2, 6)
	g := NewGBM(GBMConfig{Rounds: 40, Seed: 1})
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if r2 := R2(g.Predict(X), y); r2 < 0.85 {
		t.Fatalf("gbm train R2 = %g", r2)
	}
}

func TestGBMClassification(t *testing.T) {
	X, y := synthClass(600, 3, 0.6, 7)
	g := NewGBM(GBMConfig{Rounds: 25, Seed: 1})
	if err := g.FitClass(X, y, 3); err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(g.PredictClass(X), y); acc < 0.85 {
		t.Fatalf("gbm train accuracy = %g", acc)
	}
}

func TestLinearRecoversCoefficients(t *testing.T) {
	X, y := synthReg(500, 0.05, 8)
	l := NewLinear(LinearConfig{Epochs: 300})
	if err := l.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if r2 := R2(l.Predict(X), y); r2 < 0.97 {
		t.Fatalf("linear R2 = %g", r2)
	}
}

func TestLogisticBinary(t *testing.T) {
	X, y := synthClass(500, 2, 0.7, 9)
	l := NewLogistic(LinearConfig{Epochs: 30, Seed: 1})
	if err := l.FitClass(X, y, 2); err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(l.PredictClass(X), y); acc < 0.9 {
		t.Fatalf("logistic accuracy = %g", acc)
	}
}

func TestKNN(t *testing.T) {
	X, y := synthClass(400, 3, 0.5, 10)
	k := NewKNN(KNNConfig{K: 5})
	if err := k.FitClass(X, y, 3); err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(k.PredictClass(X), y); acc < 0.9 {
		t.Fatalf("knn accuracy = %g", acc)
	}
	Xr, yr := synthReg(300, 0.2, 11)
	kr := NewKNN(KNNConfig{K: 5})
	if err := kr.Fit(Xr, yr); err != nil {
		t.Fatal(err)
	}
	if r2 := R2(kr.Predict(Xr), yr); r2 < 0.7 {
		t.Fatalf("knn R2 = %g", r2)
	}
}

func TestNaiveBayes(t *testing.T) {
	X, y := synthClass(500, 3, 0.5, 12)
	nb := NewNaiveBayes()
	if err := nb.FitClass(X, y, 3); err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(nb.PredictClass(X), y); acc < 0.9 {
		t.Fatalf("nb accuracy = %g", acc)
	}
}

func TestTabPFNSimSmallData(t *testing.T) {
	X, y := synthClass(400, 3, 0.5, 13)
	tp := NewTabPFNSim()
	if err := tp.FitClass(X, y, 3); err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(tp.PredictClass(X), y); acc < 0.9 {
		t.Fatalf("tabpfn accuracy = %g", acc)
	}
}

func TestTabPFNSimOOM(t *testing.T) {
	X, y := synthClass(3000, 2, 0.5, 14)
	tp := NewTabPFNSim()
	err := tp.FitClass(X, y, 2)
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("want ErrOutOfMemory, got %v", err)
	}
	// Wide data also fails.
	wide := make([][]float64, 100)
	for i := range wide {
		wide[i] = make([]float64, 200)
	}
	yw := make([]int, 100)
	for i := range yw {
		yw[i] = i % 2
	}
	if err := NewTabPFNSim().FitClass(wide, yw, 2); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("wide data: want ErrOutOfMemory, got %v", err)
	}
}

func TestAccuracy(t *testing.T) {
	if got := Accuracy([]int{1, 2, 3}, []int{1, 2, 0}); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("accuracy = %g", got)
	}
	if Accuracy(nil, nil) != 0 {
		t.Fatal("empty accuracy must be 0")
	}
	if Accuracy([]int{1}, []int{1, 2}) != 0 {
		t.Fatal("length mismatch must be 0")
	}
	if got := AccuracyStrings([]string{"a", "b"}, []string{"a", "c"}); got != 0.5 {
		t.Fatalf("string accuracy = %g", got)
	}
}

func TestBinaryAUC(t *testing.T) {
	// Perfect separation.
	score := []float64{0.1, 0.2, 0.8, 0.9}
	truth := []int{0, 0, 1, 1}
	if got := BinaryAUC(score, truth); got != 1 {
		t.Fatalf("perfect AUC = %g", got)
	}
	// Inverted.
	if got := BinaryAUC(score, []int{1, 1, 0, 0}); got != 0 {
		t.Fatalf("inverted AUC = %g", got)
	}
	// All ties → 0.5.
	if got := BinaryAUC([]float64{0.5, 0.5, 0.5, 0.5}, truth); got != 0.5 {
		t.Fatalf("tied AUC = %g", got)
	}
	// Degenerate single-class → 0.5.
	if got := BinaryAUC(score, []int{1, 1, 1, 1}); got != 0.5 {
		t.Fatalf("single-class AUC = %g", got)
	}
}

func TestMacroAUCAndF1(t *testing.T) {
	proba := [][]float64{
		{0.9, 0.05, 0.05},
		{0.1, 0.8, 0.1},
		{0.2, 0.1, 0.7},
		{0.7, 0.2, 0.1},
	}
	truth := []int{0, 1, 2, 0}
	if auc := MacroAUC(proba, truth, 3); auc != 1 {
		t.Fatalf("macro AUC = %g", auc)
	}
	pred := []int{0, 1, 2, 0}
	if f1 := MacroF1(pred, truth, 3); f1 != 1 {
		t.Fatalf("perfect F1 = %g", f1)
	}
	if f1 := MacroF1([]int{1, 0, 0, 1}, truth, 3); f1 >= 0.5 {
		t.Fatalf("bad F1 = %g", f1)
	}
}

func TestLogLoss(t *testing.T) {
	perfect := [][]float64{{1, 0}, {0, 1}}
	if got := LogLoss(perfect, []int{0, 1}); got > 1e-10 {
		t.Fatalf("perfect logloss = %g", got)
	}
	bad := [][]float64{{0, 1}}
	if got := LogLoss(bad, []int{0}); got < 10 {
		t.Fatalf("bad logloss = %g", got)
	}
}

func TestR2AndRMSE(t *testing.T) {
	pred := []float64{1, 2, 3}
	if got := R2(pred, pred); got != 1 {
		t.Fatalf("identity R2 = %g", got)
	}
	if got := RMSE(pred, pred); got != 0 {
		t.Fatalf("identity RMSE = %g", got)
	}
	if got := R2([]float64{2, 2, 2}, []float64{1, 2, 3}); got >= 0.5 {
		t.Fatalf("mean-predictor R2 = %g", got)
	}
	if got := R2([]float64{5, 5}, []float64{5, 5}); got != 1 {
		t.Fatalf("constant truth exact pred R2 = %g", got)
	}
	if !math.IsNaN(RMSE(nil, nil)) {
		t.Fatal("empty RMSE must be NaN")
	}
}

func TestKNNMaxTrain(t *testing.T) {
	X, y := synthClass(500, 2, 0.5, 15)
	k := NewKNN(KNNConfig{K: 3, MaxTrain: 100})
	if err := k.FitClass(X, y, 2); err != nil {
		t.Fatal(err)
	}
	if len(k.x) != 100 {
		t.Fatalf("stored rows = %d, want 100", len(k.x))
	}
}

func TestExtraTreesClassification(t *testing.T) {
	X, y := synthClass(600, 3, 0.5, 21)
	et := NewExtraTrees(ForestConfig{Trees: 30, Seed: 1})
	if err := et.FitClass(X, y, 3); err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(et.PredictClass(X), y); acc < 0.85 {
		t.Fatalf("extra-trees accuracy = %g", acc)
	}
}

func TestExtraTreesRegression(t *testing.T) {
	X, y := synthReg(600, 0.2, 22)
	et := NewExtraTrees(ForestConfig{Trees: 40, Seed: 1})
	if err := et.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if r2 := R2(et.Predict(X), y); r2 < 0.7 {
		t.Fatalf("extra-trees R2 = %g", r2)
	}
}

func TestSVMBinary(t *testing.T) {
	X, y := synthClass(500, 2, 0.6, 23)
	m := NewSVM(LinearConfig{Epochs: 10, Seed: 1})
	if err := m.FitClass(X, y, 2); err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(m.PredictClass(X), y); acc < 0.9 {
		t.Fatalf("svm accuracy = %g", acc)
	}
}

func TestSVMMulticlass(t *testing.T) {
	X, y := synthClass(600, 4, 0.5, 24)
	m := NewSVM(LinearConfig{Epochs: 10, Seed: 1})
	if err := m.FitClass(X, y, 4); err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(m.PredictClass(X), y); acc < 0.85 {
		t.Fatalf("svm multiclass accuracy = %g", acc)
	}
}

func TestModelErrorsExtra(t *testing.T) {
	if err := NewExtraTrees(ForestConfig{}).FitClass(nil, nil, 2); err == nil {
		t.Fatal("empty X must error")
	}
	if err := NewSVM(LinearConfig{}).FitClass([][]float64{{1}}, []int{0}, 1); err == nil {
		t.Fatal("1-class must error")
	}
}
