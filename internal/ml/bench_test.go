package ml

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// benchRows/benchFeatures size the cold-fit benchmark dataset. The
// acceptance bar for the histogram backend is measured on this shape:
// ≥ 20k rows of mixed continuous + low-cardinality features, the regime
// where sort-and-sweep split finding is most expensive. make bench runs
// this lane at -cpu=1, so the pool runs every fit and inference on one
// worker and the before/after delta is the algorithmic win alone, not
// parallelism.
const (
	benchRows     = 20000
	benchFeatures = 16
	benchClasses  = 3
)

// benchMatrix builds a deterministic synthetic design matrix: half the
// features are continuous signal/noise mixes, half are low-cardinality
// integer codes (the one-hot/ordinal shapes pipeline matrices produce).
func benchMatrix(n, d int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	for i := 0; i < n; i++ {
		row := make([]float64, d)
		for j := 0; j < d; j++ {
			if j%2 == 0 {
				row[j] = rng.NormFloat64()
			} else {
				row[j] = float64(rng.Intn(8))
			}
		}
		X[i] = row
	}
	return X
}

// benchLabels derives an XOR-ish multiclass target with label noise so
// trees must actually grow to fit it.
func benchLabels(X [][]float64, classes int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed + 1))
	y := make([]int, len(X))
	for i, row := range X {
		s := row[0] + 0.5*row[1] - row[2]*row[3]*0.25
		c := 0
		if s > 0.5 {
			c = 1
		}
		if s < -0.5 {
			c = 2 % classes
		}
		if rng.Float64() < 0.05 {
			c = rng.Intn(classes)
		}
		y[i] = c
	}
	return y
}

// benchTarget derives a nonlinear regression target.
func benchTarget(X [][]float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed + 2))
	y := make([]float64, len(X))
	for i, row := range X {
		y[i] = 3*row[0] - 2*row[1] + row[2]*row[3] + 0.3*rng.NormFloat64()
	}
	return y
}

// wideRows/wideFeatures size the serve-shaped design matrix: a few
// continuous columns beside one-hot groups, so most features bin to 2
// codes and a few to the full 256.
const (
	wideRows       = 2000
	wideFeatures   = 100
	wideContinuous = 10
	wideLevels     = 10 // columns per one-hot group
)

// wideData builds the serve-shaped matrix with a 3-class label and a
// regression target that both depend on continuous and one-hot columns.
func wideData(n int, seed int64) ([][]float64, []int, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	yc := make([]int, n)
	yr := make([]float64, n)
	for i := range X {
		row := make([]float64, wideFeatures)
		for j := 0; j < wideContinuous; j++ {
			row[j] = rng.NormFloat64()
		}
		s := row[0] - 0.5*row[1] + 0.25*row[2]*row[3]
		for g, off := 0, wideContinuous; off < wideFeatures; g, off = g+1, off+wideLevels {
			level := rng.Intn(wideLevels)
			row[off+level] = 1
			if g < 3 {
				s += 0.4 * float64(level%3)
			}
		}
		X[i] = row
		yr[i] = s + 0.3*rng.NormFloat64()
		switch {
		case s > 1:
			yc[i] = 1
		case s < 0:
			yc[i] = 2
		}
	}
	return X, yc, yr
}

var (
	benchOnce sync.Once
	benchX    [][]float64
	benchYC   []int
	benchYR   []float64
)

func benchData() ([][]float64, []int, []float64) {
	benchOnce.Do(func() {
		benchX = benchMatrix(benchRows, benchFeatures, 42)
		benchYC = benchLabels(benchX, benchClasses, 42)
		benchYR = benchTarget(benchX, 42)
	})
	return benchX, benchYC, benchYR
}

func sink(v float64) {
	if math.IsNaN(v) {
		panic("benchmark produced NaN")
	}
}

// BenchmarkMLForestFitClass is the cold classification-forest fit the
// execute step of every generated pipeline pays (Alg. 4).
func BenchmarkMLForestFitClass(b *testing.B) {
	X, yc, _ := benchData()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := NewForest(ForestConfig{Trees: 15, Seed: 7})
		if err := f.FitClass(X, yc, benchClasses); err != nil {
			b.Fatal(err)
		}
		sink(f.Proba(X[:1])[0][0])
	}
}

// BenchmarkMLForestFitReg is the cold regression-forest fit.
func BenchmarkMLForestFitReg(b *testing.B) {
	X, _, yr := benchData()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := NewForest(ForestConfig{Trees: 15, Seed: 7})
		if err := f.Fit(X, yr); err != nil {
			b.Fatal(err)
		}
		sink(f.Predict(X[:1])[0])
	}
}

// validationRows is the sample every generated pipeline is validated on
// before its full-split run (Alg. 4; core.Options.ValidationRows). It is
// below histMinRows, so these fits run the exact sweep.
const validationRows = 500

// BenchmarkMLForestFitExactClass is the cold classification-forest fit
// on the validation-sample shape: the exact sort-and-sweep at every node.
func BenchmarkMLForestFitExactClass(b *testing.B) {
	X := benchMatrix(validationRows, benchFeatures, 42)
	yc := benchLabels(X, benchClasses, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := NewForest(ForestConfig{Trees: 15, Seed: 7})
		if err := f.FitClass(X, yc, benchClasses); err != nil {
			b.Fatal(err)
		}
		sink(f.Proba(X[:1])[0][0])
	}
}

// wideClass* size the classification fit of one gen-repair validation
// sample (the EU-IT shape): 170 rows × 62 features, 17 continuous beside
// 45 one-hot columns in 5 groups of 9, and 10 classes. Most features are
// 2-valued and the continuous ones near-unique.
const (
	wideClassRows       = 170
	wideClassContinuous = 17
	wideClassGroups     = 5
	wideClassLevels     = 9
	wideClassClasses    = 10
)

// wideClassData builds the gen-repair-shaped matrix with a 10-class label
// that depends on continuous and one-hot columns, with 10% label noise.
func wideClassData(seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	d := wideClassContinuous + wideClassGroups*wideClassLevels
	X := make([][]float64, wideClassRows)
	y := make([]int, wideClassRows)
	for i := range X {
		row := make([]float64, d)
		for j := 0; j < wideClassContinuous; j++ {
			row[j] = rng.NormFloat64()
		}
		s := row[0] + 0.5*row[1]
		for g := 0; g < wideClassGroups; g++ {
			level := rng.Intn(wideClassLevels)
			row[wideClassContinuous+g*wideClassLevels+level] = 1
			if g < 2 {
				s += 0.5 * float64(level%3)
			}
		}
		c := min(max(int((s+2)*wideClassClasses/6), 0), wideClassClasses-1)
		if rng.Float64() < 0.1 {
			c = rng.Intn(wideClassClasses)
		}
		X[i], y[i] = row, c
	}
	return X, y
}

// BenchmarkMLForestFitExactWideClass is the 50-tree classification
// forest one τ₂ attempt of a gen-repair cell fits on its validation
// sample: few rows, many mostly one-hot features, many classes.
func BenchmarkMLForestFitExactWideClass(b *testing.B) {
	X, y := wideClassData(42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := NewForest(ForestConfig{Trees: 50, Seed: 7})
		if err := f.FitClass(X, y, wideClassClasses); err != nil {
			b.Fatal(err)
		}
		sink(f.Proba(X[:1])[0][0])
	}
}

// BenchmarkMLForestFitExactReg is the exact-sweep regression fit on the
// validation-sample shape.
func BenchmarkMLForestFitExactReg(b *testing.B) {
	X := benchMatrix(validationRows, benchFeatures, 42)
	yr := benchTarget(X, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := NewForest(ForestConfig{Trees: 15, Seed: 7})
		if err := f.Fit(X, yr); err != nil {
			b.Fatal(err)
		}
		sink(f.Predict(X[:1])[0])
	}
}

// BenchmarkMLForestFitHistWide is the cold regression-forest fit on the
// serve shape: 2,000 rows × 100 features, 90 of them one-hot, grown on
// histograms.
func BenchmarkMLForestFitHistWide(b *testing.B) {
	X, _, yr := wideData(wideRows, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := NewForest(ForestConfig{Trees: 40, Seed: 7})
		if err := f.Fit(X, yr); err != nil {
			b.Fatal(err)
		}
		sink(f.Predict(X[:1])[0])
	}
}

// BenchmarkMLGBMFitClass is the cold one-vs-rest boosted fit (rounds ×
// classes tree fits over the same matrix).
func BenchmarkMLGBMFitClass(b *testing.B) {
	X, yc, _ := benchData()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := NewGBM(GBMConfig{Rounds: 40, Seed: 7})
		if err := g.FitClass(X, yc, benchClasses); err != nil {
			b.Fatal(err)
		}
		sink(g.Proba(X[:1])[0][0])
	}
}

// BenchmarkMLGBMFitReg is the cold least-squares boosted fit.
func BenchmarkMLGBMFitReg(b *testing.B) {
	X, _, yr := benchData()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := NewGBM(GBMConfig{Rounds: 40, Seed: 7})
		if err := g.Fit(X, yr); err != nil {
			b.Fatal(err)
		}
		sink(g.Predict(X[:1])[0])
	}
}

// BenchmarkMLExtraTreesFitClass is the cold extra-trees fit.
func BenchmarkMLExtraTreesFitClass(b *testing.B) {
	X, yc, _ := benchData()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewExtraTrees(ForestConfig{Trees: 15, Seed: 7})
		if err := e.FitClass(X, yc, benchClasses); err != nil {
			b.Fatal(err)
		}
		sink(e.Proba(X[:1])[0][0])
	}
}

var (
	benchForestOnce    sync.Once
	benchForest        *Forest
	benchForestRegOnce sync.Once
	benchForestReg     *Forest
	benchGBMOnce       sync.Once
	benchGBM           *GBM
)

// BenchmarkMLForestProba times batch inference over the full matrix.
func BenchmarkMLForestProba(b *testing.B) {
	X, yc, _ := benchData()
	benchForestOnce.Do(func() {
		benchForest = NewForest(ForestConfig{Trees: 15, Seed: 7})
		if err := benchForest.FitClass(X, yc, benchClasses); err != nil {
			b.Fatal(err)
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink(benchForest.Proba(X)[0][0])
	}
}

// BenchmarkMLForestPredictReg times batch regression-forest inference
// over the full matrix: the model the serve workload trains and scores.
func BenchmarkMLForestPredictReg(b *testing.B) {
	X, _, yr := benchData()
	benchForestRegOnce.Do(func() {
		benchForestReg = NewForest(ForestConfig{Trees: 15, Seed: 7})
		if err := benchForestReg.Fit(X, yr); err != nil {
			b.Fatal(err)
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink(benchForestReg.Predict(X)[0])
	}
}

// BenchmarkMLGBMProba times batch boosted inference over the full matrix.
func BenchmarkMLGBMProba(b *testing.B) {
	X, yc, _ := benchData()
	benchGBMOnce.Do(func() {
		benchGBM = NewGBM(GBMConfig{Rounds: 40, Seed: 7})
		if err := benchGBM.FitClass(X, yc, benchClasses); err != nil {
			b.Fatal(err)
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink(benchGBM.Proba(X)[0][0])
	}
}

// BenchmarkMLKNNPredict times brute-force batch KNN prediction (4k
// stored rows, 2k queries), the per-row scan the pool now parallelizes.
func BenchmarkMLKNNPredict(b *testing.B) {
	X, yc, _ := benchData()
	k := NewKNN(KNNConfig{K: 7, MaxTrain: 4000})
	if err := k.FitClass(X[:4000], yc[:4000], benchClasses); err != nil {
		b.Fatal(err)
	}
	q := X[4000:6000]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := k.PredictClass(q)
		sink(float64(p[0]))
	}
}
