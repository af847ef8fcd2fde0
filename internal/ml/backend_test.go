package ml

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// gridData builds a dataset whose features have few distinct values, so
// histogram binning is lossless (one bin per value, midpoint edges) and
// the histogram sweep proposes exactly the exact sweep's candidates.
func gridData(n int, seed int64) ([][]float64, []int, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	yc := make([]int, n)
	yr := make([]float64, n)
	for i := 0; i < n; i++ {
		X[i] = []float64{
			float64(i % 13),
			float64((i * 7) % 11),
			float64(rng.Intn(6)),
		}
		c := 0
		if X[i][0] > 6 {
			c = 1
		}
		if X[i][1] > 7 && X[i][2] < 3 {
			c = 2
		}
		if rng.Float64() < 0.05 {
			c = rng.Intn(3)
		}
		yc[i] = c
		yr[i] = 2*X[i][0] - X[i][1] + X[i][2]*X[i][2] + 0.1*rng.NormFloat64()
	}
	return X, yc, yr
}

// TestHistMatchesExactClassification pins the two sweeps against each
// other: on losslessly-binnable data with all candidate thresholds
// enabled, histogram split finding must reproduce the exact tree's
// training-set behaviour bit for bit (same candidates, same integer
// count arithmetic, same tie order).
func TestHistMatchesExactClassification(t *testing.T) {
	X, yc, _ := gridData(240, 3)
	yf := labelFloats(yc)
	mk := func(bm *binnedMatrix) *Tree {
		tr := NewTree(TreeConfig{
			MaxDepth: 6, MinLeaf: 2, MaxThresholds: 10000,
			Seed: 11, exactBelow: 2,
		})
		if err := tr.fitRows(bm, X, yf, classCodes(yf, 3), 3, nil, nil); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	exact, hist := mk(nil), mk(newBinnedMatrix(X))
	pe, ph := exact.Proba(X), hist.Proba(X)
	for i := range pe {
		for j := range pe[i] {
			if pe[i][j] != ph[i][j] {
				t.Fatalf("row %d class %d: exact %v hist %v", i, j, pe[i], ph[i])
			}
		}
	}
}

// TestHistMatchesExactRegression allows float-summation drift between
// the two sweeps but requires the same training rows to land in leaves
// with near-identical values.
func TestHistMatchesExactRegression(t *testing.T) {
	X, _, yr := gridData(240, 4)
	mk := func(bm *binnedMatrix) *Tree {
		tr := NewTree(TreeConfig{
			MaxDepth: 6, MinLeaf: 2, MaxThresholds: 10000,
			Seed: 11, exactBelow: 2,
		})
		if err := tr.fitRows(bm, X, yr, nil, 0, nil, nil); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	exact, hist := mk(nil), mk(newBinnedMatrix(X))
	pe, ph := exact.Predict(X), hist.Predict(X)
	var se, sh float64
	for i := range pe {
		se += (pe[i] - yr[i]) * (pe[i] - yr[i])
		sh += (ph[i] - yr[i]) * (ph[i] - yr[i])
	}
	// Both sweeps must fit the training set essentially equally well.
	if math.Abs(se-sh) > 0.01*(1+se) {
		t.Fatalf("train SSE diverged: exact %g hist %g", se, sh)
	}
}

// TestHistCloseToExactSynthetic checks quality parity on continuous data
// where 256-bin quantization is lossy: held-out AUC / R² must stay
// within tolerance of the sort-based baseline.
func TestHistCloseToExactSynthetic(t *testing.T) {
	X, y := synthClass(2000, 3, 0.8, 31)
	Xte, yte := synthClass(600, 3, 0.8, 131)
	var auc [2]float64
	for i, bm := range []*binnedMatrix{nil, newBinnedMatrix(X)} {
		f := NewForest(ForestConfig{Trees: 15, Seed: 5})
		if err := f.fit(bm, X, labelFloats(y), 3); err != nil {
			t.Fatal(err)
		}
		auc[i] = MacroAUC(f.Proba(Xte), yte, 3)
	}
	if math.Abs(auc[0]-auc[1]) > 0.03 {
		t.Fatalf("forest AUC diverged: exact %g hist %g", auc[0], auc[1])
	}
	Xr, yr := synthReg(2000, 0.3, 32)
	Xrte, yrte := synthReg(600, 0.3, 132)
	var r2 [2]float64
	for i, bm := range []*binnedMatrix{nil, newBinnedMatrix(Xr)} {
		g := NewGBM(GBMConfig{Rounds: 30, Seed: 5})
		if err := g.fit(bm, Xr, yr); err != nil {
			t.Fatal(err)
		}
		r2[i] = R2(g.Predict(Xrte), yrte)
	}
	if math.Abs(r2[0]-r2[1]) > 0.05 {
		t.Fatalf("gbm R2 diverged: exact %g hist %g", r2[0], r2[1])
	}
}

// TestSplitPathFollowsRowCount pins the one split-path rule (binnedFor):
// a public fit of histMinRows-1 rows exports what the exact seam (a nil
// matrix) does, and a fit of histMinRows rows what the histogram seam
// does, for every tree model and both tasks. The two seams must export
// different models at each size, or the comparison could not tell the
// paths apart.
func TestSplitPathFollowsRowCount(t *testing.T) {
	for _, rows := range []int{histMinRows - 1, histMinRows} {
		X := benchMatrix(rows, benchFeatures, 42)
		yc, yr := benchLabels(X, benchClasses, 42), benchTarget(X, 42)
		yf := labelFloats(yc)
		fc := ForestConfig{Trees: 4, Seed: 7, Workers: 1}
		gc := GBMConfig{Rounds: 5, Seed: 7, Workers: 1}
		tc := TreeConfig{Seed: 7}
		models := []struct {
			name   string
			public func() (any, error)
			seam   func(bm *binnedMatrix) (any, error)
		}{
			{"tree-class",
				func() (any, error) { m := NewTree(tc); return m, m.FitClass(X, yc, benchClasses) },
				func(bm *binnedMatrix) (any, error) {
					m := NewTree(tc)
					return m, m.fitRows(bm, X, yf, classCodes(yf, benchClasses), benchClasses, nil, nil)
				}},
			{"tree-reg",
				func() (any, error) { m := NewTree(tc); return m, m.Fit(X, yr) },
				func(bm *binnedMatrix) (any, error) {
					m := NewTree(tc)
					return m, m.fitRows(bm, X, yr, nil, 0, nil, nil)
				}},
			{"forest-class",
				func() (any, error) { m := NewForest(fc); return m, m.FitClass(X, yc, benchClasses) },
				func(bm *binnedMatrix) (any, error) { m := NewForest(fc); return m, m.fit(bm, X, yf, benchClasses) }},
			{"forest-reg",
				func() (any, error) { m := NewForest(fc); return m, m.Fit(X, yr) },
				func(bm *binnedMatrix) (any, error) { m := NewForest(fc); return m, m.fit(bm, X, yr, 0) }},
			{"extra-class",
				func() (any, error) { m := NewExtraTrees(fc); return m, m.FitClass(X, yc, benchClasses) },
				func(bm *binnedMatrix) (any, error) { m := NewExtraTrees(fc); return m, m.fit(bm, X, yf, benchClasses) }},
			{"extra-reg",
				func() (any, error) { m := NewExtraTrees(fc); return m, m.Fit(X, yr) },
				func(bm *binnedMatrix) (any, error) { m := NewExtraTrees(fc); return m, m.fit(bm, X, yr, 0) }},
			{"gbm-class",
				func() (any, error) { m := NewGBM(gc); return m, m.FitClass(X, yc, benchClasses) },
				func(bm *binnedMatrix) (any, error) { m := NewGBM(gc); return m, m.fitClass(bm, X, yc, benchClasses) }},
			{"gbm-reg",
				func() (any, error) { m := NewGBM(gc); return m, m.Fit(X, yr) },
				func(bm *binnedMatrix) (any, error) { m := NewGBM(gc); return m, m.fit(bm, X, yr) }},
		}
		digest := func(m any, err error) string {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
			return exportDigest(t, m)
		}
		for _, m := range models {
			exact, hist := digest(m.seam(nil)), digest(m.seam(newBinnedMatrix(X)))
			if exact == hist {
				t.Fatalf("%d rows, %s: the exact and histogram seams export the same model", rows, m.name)
			}
			want, path := exact, "exact"
			if rows >= histMinRows {
				want, path = hist, "histogram"
			}
			if got := digest(m.public()); got != want {
				t.Errorf("%d rows, %s: public fit differs from the %s seam", rows, m.name, path)
			}
		}
	}
}

// workerCounts returns the pinned worker settings of the determinism
// contract: serial, a fixed small pool, and GOMAXPROCS.
func workerCounts() []int {
	return []int{1, 4, runtime.GOMAXPROCS(0)}
}

func TestForestWorkerInvariance(t *testing.T) {
	X, y := synthClass(900, 3, 0.7, 41)
	var ref [][]float64
	for _, w := range workerCounts() {
		f := NewForest(ForestConfig{Trees: 10, Seed: 3, Workers: w})
		if err := f.FitClass(X, y, 3); err != nil {
			t.Fatal(err)
		}
		p := f.Proba(X)
		if ref == nil {
			ref = p
			continue
		}
		for i := range p {
			for j := range p[i] {
				if p[i][j] != ref[i][j] {
					t.Fatalf("workers=%d: proba[%d][%d] = %v, want %v", w, i, j, p[i][j], ref[i][j])
				}
			}
		}
	}
}

func TestExtraTreesWorkerInvariance(t *testing.T) {
	X, y := synthClass(900, 3, 0.7, 42)
	var ref [][]float64
	for _, w := range workerCounts() {
		e := NewExtraTrees(ForestConfig{Trees: 12, Seed: 3, Workers: w})
		if err := e.FitClass(X, y, 3); err != nil {
			t.Fatal(err)
		}
		p := e.Proba(X)
		if ref == nil {
			ref = p
			continue
		}
		for i := range p {
			for j := range p[i] {
				if p[i][j] != ref[i][j] {
					t.Fatalf("workers=%d: proba[%d][%d] = %v, want %v", w, i, j, p[i][j], ref[i][j])
				}
			}
		}
	}
}

func TestGBMWorkerInvariance(t *testing.T) {
	X, y := synthClass(900, 4, 0.7, 43)
	var ref [][]float64
	for _, w := range workerCounts() {
		g := NewGBM(GBMConfig{Rounds: 8, Seed: 3, Workers: w})
		if err := g.FitClass(X, y, 4); err != nil {
			t.Fatal(err)
		}
		p := g.Proba(X)
		if ref == nil {
			ref = p
			continue
		}
		for i := range p {
			for j := range p[i] {
				if p[i][j] != ref[i][j] {
					t.Fatalf("workers=%d: proba[%d][%d] = %v, want %v", w, i, j, p[i][j], ref[i][j])
				}
			}
		}
	}
	// Regression path too.
	Xr, yr := synthReg(900, 0.2, 44)
	var refR []float64
	for _, w := range workerCounts() {
		g := NewGBM(GBMConfig{Rounds: 8, Seed: 3, Workers: w})
		if err := g.Fit(Xr, yr); err != nil {
			t.Fatal(err)
		}
		p := g.Predict(Xr)
		if refR == nil {
			refR = p
			continue
		}
		for i := range p {
			if p[i] != refR[i] {
				t.Fatalf("workers=%d: pred[%d] = %v, want %v", w, i, p[i], refR[i])
			}
		}
	}
}

func TestKNNWorkerInvariance(t *testing.T) {
	X, y := synthClass(800, 3, 0.6, 45)
	q := X[:300]
	var ref [][]float64
	var refC []int
	for _, w := range workerCounts() {
		k := NewKNN(KNNConfig{K: 7, Workers: w})
		if err := k.FitClass(X, y, 3); err != nil {
			t.Fatal(err)
		}
		p := k.Proba(q)
		c := k.PredictClass(q)
		if ref == nil {
			ref, refC = p, c
			continue
		}
		for i := range p {
			if c[i] != refC[i] {
				t.Fatalf("workers=%d: class[%d] = %d, want %d", w, i, c[i], refC[i])
			}
			for j := range p[i] {
				if p[i][j] != ref[i][j] {
					t.Fatalf("workers=%d: proba[%d][%d] = %v, want %v", w, i, j, p[i][j], ref[i][j])
				}
			}
		}
	}
}

// TestUnfittedEnsemblesReturnZeros pins the before-Fit contract: no NaN
// from divide-by-zero, no nil-dereference panics — zero values.
func TestUnfittedEnsemblesReturnZeros(t *testing.T) {
	X := [][]float64{{1, 2}, {3, 4}}
	f := NewForest(ForestConfig{})
	if f.Fitted() {
		t.Fatal("new forest claims fitted")
	}
	for _, v := range f.Predict(X) {
		if v != 0 {
			t.Fatalf("unfitted forest predicted %v", v)
		}
	}
	for _, row := range f.Proba(X) {
		for _, v := range row {
			if v != 0 || math.IsNaN(v) {
				t.Fatalf("unfitted forest proba %v", v)
			}
		}
	}
	if c := f.PredictClass(X); c[0] != 0 || c[1] != 0 {
		t.Fatalf("unfitted forest classes %v", c)
	}

	g := NewGBM(GBMConfig{})
	if g.Fitted() {
		t.Fatal("new gbm claims fitted")
	}
	for _, v := range g.Predict(X) {
		if v != 0 || math.IsNaN(v) {
			t.Fatalf("unfitted gbm predicted %v", v)
		}
	}
	if c := g.PredictClass(X); c[0] != 0 || c[1] != 0 {
		t.Fatalf("unfitted gbm classes %v", c)
	}
	for _, row := range g.Proba(X) {
		if len(row) != 0 {
			t.Fatalf("unfitted gbm proba row %v", row)
		}
	}

	e := NewExtraTrees(ForestConfig{})
	if e.Fitted() {
		t.Fatal("new extra-trees claims fitted")
	}
	for _, v := range e.Predict(X) {
		if v != 0 {
			t.Fatalf("unfitted extra-trees predicted %v", v)
		}
	}
	if c := e.PredictClass(X); c[0] != 0 || c[1] != 0 {
		t.Fatalf("unfitted extra-trees classes %v", c)
	}

	// A failed fit must leave the model unfitted, not half-trained.
	if err := f.FitClass(X, []int{0, 0}, 1); err == nil {
		t.Fatal("1-class fit must error")
	}
	if f.Fitted() {
		t.Fatal("forest claims fitted after failed fit")
	}
	if err := g.FitClass(X, []int{0, 0}, 1); err == nil {
		t.Fatal("1-class fit must error")
	}
	if g.Fitted() {
		t.Fatal("gbm claims fitted after failed fit")
	}
}

// TestBinnedMatrixCodes checks the code/edge contract: code(x) <= b iff
// x <= edges[b], NaN lands in the last bin, and low-cardinality features
// bin losslessly.
func TestBinnedMatrixCodes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 3000
	X := make([][]float64, n)
	for i := range X {
		X[i] = []float64{rng.NormFloat64(), float64(rng.Intn(5)), rng.Float64() * 100}
	}
	X[17][0] = math.NaN()
	bm := newBinnedMatrix(X)
	if bm.features != 3 || len(bm.codes) != 3 || len(bm.codes[0]) != n {
		t.Fatalf("shape = %d×%d", len(bm.codes[0]), bm.features)
	}
	for f := 0; f < 3; f++ {
		if bm.bins[f] > maxHistBins {
			t.Fatalf("feature %d has %d bins", f, bm.bins[f])
		}
		edges := bm.edges[f]
		for b := 1; b < len(edges); b++ {
			if edges[b] <= edges[b-1] {
				t.Fatalf("feature %d edges not strictly increasing", f)
			}
		}
		for r := 0; r < n; r++ {
			v := X[r][f]
			c := int(bm.codes[f][r])
			if math.IsNaN(v) {
				if c != len(edges) {
					t.Fatalf("NaN code = %d, want last bin %d", c, len(edges))
				}
				continue
			}
			if c > 0 && !(v > edges[c-1]) {
				t.Fatalf("feature %d row %d: %v not > lower edge %v", f, r, v, edges[c-1])
			}
			if c < len(edges) && !(v <= edges[c]) {
				t.Fatalf("feature %d row %d: %v not <= upper edge %v", f, r, v, edges[c])
			}
		}
	}
	// The 5-value integer feature must bin losslessly: one bin per value.
	if bm.bins[1] != 5 {
		t.Fatalf("low-cardinality feature has %d bins, want 5", bm.bins[1])
	}
}

// TestPartitionStable pins the one row partition every tree grower
// uses, on thresholds and on bin codes: idx becomes its left rows, then
// its right rows, each in their idx order (duplicates and NaN included),
// and stays untouched when a side would hold fewer than minLeaf rows.
func TestPartitionStable(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	X := make([][]float64, 50)
	codes := make([]uint8, len(X))
	for r := range X {
		X[r] = []float64{float64(rng.Intn(10))}
		codes[r] = uint8(X[r][0])
	}
	X[7][0], codes[7] = math.NaN(), 255 // NaN goes right on both
	for trial := 0; trial < 500; trial++ {
		idx := make([]int, 1+rng.Intn(80))
		for i := range idx {
			idx[i] = rng.Intn(len(X))
		}
		bin, minLeaf := rng.Intn(10), 1+rng.Intn(8)
		var left, right []int
		for _, r := range idx {
			if X[r][0] <= float64(bin)+0.5 {
				left = append(left, r)
			} else {
				right = append(right, r)
			}
		}
		want, wantOK := append(append([]int(nil), left...), right...), true
		if len(left) < minLeaf || len(right) < minLeaf {
			want, wantOK = idx, false
		}
		buf := make([]int, len(idx))
		for _, kind := range []string{"threshold", "code"} {
			got := append([]int(nil), idx...)
			var nLeft int
			var ok bool
			if kind == "threshold" {
				nLeft, ok = partitionThr(got, buf, X, 0, float64(bin)+0.5, minLeaf)
			} else {
				nLeft, ok = partitionCode(got, buf, codes, uint8(bin), minLeaf)
			}
			if ok != wantOK || (ok && nLeft != len(left)) || !slices.Equal(got, want) {
				t.Fatalf("trial %d, %s: got %v (left %d, ok %v), want %v (left %d, ok %v)",
					trial, kind, got, nLeft, ok, want, len(left), wantOK)
			}
		}
	}
}

// TestTrainPredictionCapture pins the GBM optimization: leaf values
// recorded during growth must equal a full re-traversal of the matrix.
func TestTrainPredictionCapture(t *testing.T) {
	X, _, yr := gridData(800, 8)
	for _, bm := range []*binnedMatrix{nil, newBinnedMatrix(X)} {
		tr := NewTree(TreeConfig{Seed: 4})
		captured := make([]float64, len(yr))
		if err := tr.fitRows(bm, X, yr, nil, 0, nil, captured); err != nil {
			t.Fatal(err)
		}
		walked := tr.Predict(X)
		for i := range walked {
			if captured[i] != walked[i] {
				t.Fatalf("binned=%v row %d: captured %v, walked %v", bm != nil, i, captured[i], walked[i])
			}
		}
	}
}

// histGoldenModels fits the four models the histogram goldens pin on
// one shape of at least histMinRows rows, at the given worker count, and
// returns each one's export digest keyed by model name.
func histGoldenModels(t *testing.T, X [][]float64, yc []int, yr []float64, workers int) map[string]string {
	t.Helper()
	fc := ForestConfig{Trees: 8, Seed: 7, Workers: workers}
	gc := GBMConfig{Rounds: 10, Seed: 7, Workers: workers}
	forestClass, forestReg := NewForest(fc), NewForest(fc)
	gbmClass, gbmReg := NewGBM(gc), NewGBM(gc)
	for _, err := range []error{
		forestClass.FitClass(X, yc, 3),
		forestReg.Fit(X, yr),
		gbmClass.FitClass(X, yc, 3),
		gbmReg.Fit(X, yr),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return map[string]string{
		"forest-class": exportDigest(t, forestClass),
		"forest-reg":   exportDigest(t, forestReg),
		"gbm-class":    exportDigest(t, gbmClass),
		"gbm-reg":      exportDigest(t, gbmReg),
	}
}

// TestHistForestGolden pins histogram-backend forests and boosted models
// (classification, one-vs-rest, and regression), at one worker and at
// four, to digests of their exported parameters captured before the
// histogram slabs were packed by per-feature bin count. It runs on a
// 2,000-row slice of the bench matrix and on the wide serve shape, where
// most features have 2 bins and a few have 256. Any change to a bin's
// sums, the candidate order or the RNG stream changes them.
func TestHistForestGolden(t *testing.T) {
	bench := benchMatrix(2000, benchFeatures, 42)
	wideX, wideYC, wideYR := wideData(wideRows, 42)
	shapes := []struct {
		name   string
		X      [][]float64
		yc     []int
		yr     []float64
		golden map[string]string
	}{
		{"bench", bench, benchLabels(bench, benchClasses, 42), benchTarget(bench, 42), map[string]string{
			"forest-class": "18f7bf851f64850e2e6fecf0785b8c9a1c90d9d28346491ff9043f181636fb9d",
			"forest-reg":   "7bdc91f10d932325e0ce6e11bf7a66d9aaa8a12f2d1b69c8937f139af3c9778e",
			"gbm-class":    "b1e70879c885604c520a0a9ede020946468106e0bca2c7f30ffb7be685443363",
			"gbm-reg":      "3ef99d68679f9690d163488ab4ad8e64fb7a19016a877e2dcd4c0c3425dae4de",
		}},
		{"wide", wideX, wideYC, wideYR, map[string]string{
			"forest-class": "f87040fe089f5025740c548c6f3c60d867a966a9fbfea59b78b8ea45c021ddd1",
			"forest-reg":   "ef781627b4b7a7a0a25f20f5a35ae1a17fb3e3cacf1c02f44ddd8639a02b322d",
			"gbm-class":    "1f9b3bd30d4f01928080dd870a002b8cdc936cf71f38ecb9a3d3b88014ee1298",
			"gbm-reg":      "0a307b950a35ec2cd72ad6fed8ad9fd6a02d1608c79487f8bbc4876af62b6908",
		}},
	}
	for _, s := range shapes {
		for _, workers := range []int{1, 4} {
			for model, got := range histGoldenModels(t, s.X, s.yc, s.yr, workers) {
				if want := s.golden[model]; got != want {
					t.Errorf("%s %s (workers=%d): digest %s, want %s", s.name, model, workers, got, want)
				}
			}
		}
	}
}

// TestExtraTreesGolden pins extra-trees ensembles, classification and
// regression at one worker and at four, to digests of their exported
// parameters captured while each tree was still a pointer-linked node
// graph. The 500-row shape draws thresholds from raw feature ranges;
// the 2,000-row shape draws bin boundaries from the shared binned
// matrix. Any change to the RNG stream, the partition order or a leaf's
// value changes them.
func TestExtraTreesGolden(t *testing.T) {
	shapes := []struct {
		rows               int
		classGold, regGold string
	}{
		{validationRows,
			"acb6b1bdabb29afc8c3124d0a8a607991f22844ba2e2507acb453166adf9ca16",
			"a2b4c561cb41dc56a5f6d24130f2904664fde4b99e85ce8e2ab91d5e0d160f84"},
		{2000,
			"ea68f54e8f06d65226445cf991e1bbb6ba11cd3b0e1bcbd086dc90f7c016a638",
			"eed4515638dd864f3276803fd25a7b5fc6a5c93a55aa00bb03b25f1e0186cb6b"},
	}
	for _, s := range shapes {
		X := benchMatrix(s.rows, benchFeatures, 42)
		for _, workers := range []int{1, 4} {
			cfg := ForestConfig{Trees: 8, Seed: 7, Workers: workers}
			class, reg := NewExtraTrees(cfg), NewExtraTrees(cfg)
			if err := class.FitClass(X, benchLabels(X, benchClasses, 42), benchClasses); err != nil {
				t.Fatal(err)
			}
			if err := reg.Fit(X, benchTarget(X, 42)); err != nil {
				t.Fatal(err)
			}
			if got := exportDigest(t, class); got != s.classGold {
				t.Errorf("%d rows, classification (workers=%d): digest %s, want %s", s.rows, workers, got, s.classGold)
			}
			if got := exportDigest(t, reg); got != s.regGold {
				t.Errorf("%d rows, regression (workers=%d): digest %s, want %s", s.rows, workers, got, s.regGold)
			}
		}
	}
}
