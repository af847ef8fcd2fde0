package ml

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refBestSplit is the exact split sweep as it stood before the kernel
// moved to slices.SortFunc and grower-owned buffers: sort.Slice over a
// fresh buffer per call, and impurity counted from the float labels. It
// is the reference the kernel is pinned to.
func refBestSplit(t *Tree, X [][]float64, y []float64, idx []int, rng *rand.Rand) (feat int, thr float64, ok bool) {
	nf := len(X[0])
	feats := rng.Perm(nf)
	if t.Config.FeatureFrac > 0 && t.Config.FeatureFrac < 1 {
		k := int(float64(nf)*t.Config.FeatureFrac + 0.999)
		if k < 1 {
			k = 1
		}
		feats = feats[:k]
	}
	n := len(idx)
	bestGain := 0.0
	parentImp := refImpurity(t.classes, y, idx)
	arr := make([]vy, n)
	var leftCounts, rightCounts []float64
	if t.classes > 0 {
		leftCounts = make([]float64, t.classes)
		rightCounts = make([]float64, t.classes)
	}
	for _, f := range feats {
		for i, r := range idx {
			arr[i] = vy{X[r][f], y[r]}
		}
		sort.Slice(arr, func(a, b int) bool { return arr[a].v < arr[b].v })
		if arr[0].v == arr[n-1].v {
			continue
		}
		stride := 1
		if n > t.Config.MaxThresholds*2 {
			stride = n / t.Config.MaxThresholds
		}
		if t.classes > 0 {
			for c := range leftCounts {
				leftCounts[c] = 0
			}
			for c := range rightCounts {
				rightCounts[c] = 0
			}
			for i := 0; i < n; i++ {
				c := int(arr[i].y)
				if c >= 0 && c < t.classes {
					rightCounts[c]++
				}
			}
			nextEval := t.Config.MinLeaf
			for p := 1; p < n; p++ {
				c := int(arr[p-1].y)
				if c >= 0 && c < t.classes {
					leftCounts[c]++
					rightCounts[c]--
				}
				if p < nextEval || p < t.Config.MinLeaf || n-p < t.Config.MinLeaf {
					continue
				}
				if arr[p].v == arr[p-1].v {
					continue
				}
				nextEval = p + stride
				gL := giniFromCounts(leftCounts, float64(p))
				gR := giniFromCounts(rightCounts, float64(n-p))
				gain := parentImp - (float64(p)*gL+float64(n-p)*gR)/float64(n)
				if gain > bestGain+1e-12 {
					bestGain, feat, ok = gain, f, true
					thr = (arr[p-1].v + arr[p].v) / 2
				}
			}
			continue
		}
		var sumL, sqL float64
		var sumR, sqR float64
		for i := 0; i < n; i++ {
			sumR += arr[i].y
			sqR += arr[i].y * arr[i].y
		}
		nextEval := t.Config.MinLeaf
		for p := 1; p < n; p++ {
			v := arr[p-1].y
			sumL += v
			sqL += v * v
			sumR -= v
			sqR -= v * v
			if p < nextEval || p < t.Config.MinLeaf || n-p < t.Config.MinLeaf {
				continue
			}
			if arr[p].v == arr[p-1].v {
				continue
			}
			nextEval = p + stride
			vL := varFromSums(sumL, sqL, float64(p))
			vR := varFromSums(sumR, sqR, float64(n-p))
			gain := parentImp - (float64(p)*vL+float64(n-p)*vR)/float64(n)
			if gain > bestGain+1e-12 {
				bestGain, feat, ok = gain, f, true
				thr = (arr[p-1].v + arr[p].v) / 2
			}
		}
	}
	return feat, thr, ok
}

// refImpurity is the node impurity as the reference sweep computed it,
// with a fresh count buffer per call.
func refImpurity(classes int, y []float64, idx []int) float64 {
	if classes > 0 {
		counts := make([]float64, classes)
		for _, r := range idx {
			c := int(y[r])
			if c >= 0 && c < classes {
				counts[c]++
			}
		}
		n := float64(len(idx))
		g := 1.0
		for _, c := range counts {
			p := c / n
			g -= p * p
		}
		return g
	}
	var sum, sq float64
	for _, r := range idx {
		sum += y[r]
		sq += y[r] * y[r]
	}
	n := float64(len(idx))
	mean := sum / n
	v := sq/n - mean*mean
	if v < 0 || math.IsNaN(v) {
		return 0
	}
	return v
}

// tieValue draws from a pool dominated by repeats and the values the
// comparator treats specially: signed zeros, infinities and NaN.
func tieValue(rng *rand.Rand) float64 {
	switch k := rng.Intn(20); {
	case k < 9:
		return float64(rng.Intn(4))
	case k < 11:
		return math.Copysign(0, -1)
	case k == 11:
		return math.Inf(1)
	case k == 12:
		return math.Inf(-1)
	case k == 13:
		return math.NaN()
	default:
		return rng.NormFloat64()
	}
}

// TestExactSplitMatchesReference pins the exact split kernel to the
// sort.Slice reference on random nodes: 1–600 rows, heavy ties, ±0, ±Inf
// and NaN features, classification (with out-of-range labels) and
// regression targets, random leaf sizes, threshold strides and feature
// fractions. The chosen split and the RNG stream afterwards must both be
// identical, so whole trees grow identically.
func TestExactSplitMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	trials := 3000
	if testing.Short() {
		trials = 500
	}
	for trial := 0; trial < trials; trial++ {
		rows := 1 + rng.Intn(600)
		nf := 1 + rng.Intn(6)
		// One feature may be constant over all rows, in half the trials
		// but for a scattering of NaNs: where the sort leaves them decides
		// whether the equal-ends check sees a constant feature.
		constant, nanEvery := rng.Intn(nf+1), 1<<30
		if rng.Intn(2) == 0 {
			nanEvery = 2 + rng.Intn(40)
		}
		X := make([][]float64, rows)
		for i := range X {
			X[i] = make([]float64, nf)
			for f := range X[i] {
				switch {
				case f == constant && rng.Intn(nanEvery) == 0:
					X[i][f] = math.NaN()
				case f == constant:
					X[i][f] = 2
				default:
					X[i][f] = tieValue(rng)
				}
			}
		}
		classes := 0
		if rng.Intn(2) == 0 {
			classes = 2 + rng.Intn(3)
		}
		y := make([]float64, rows)
		for i := range y {
			switch {
			case classes > 0 && rng.Intn(30) == 0:
				y[i] = float64(classes) // out of range: ignored by the counts
			case classes > 0:
				y[i] = float64(rng.Intn(classes))
			case rng.Intn(50) == 0:
				y[i] = tieValue(rng)
			default:
				y[i] = float64(rng.Intn(5)) + 0.25*rng.NormFloat64()
			}
		}
		// Bagged node: duplicate row indices, like a bootstrap sample.
		idx := make([]int, 1+rng.Intn(rows))
		for i := range idx {
			idx[i] = rng.Intn(rows)
		}
		cfg := TreeConfig{
			MinLeaf:       1 + rng.Intn(6),
			MaxThresholds: 1 + rng.Intn(64),
			Seed:          rng.Int63(),
		}
		if rng.Intn(2) == 0 {
			cfg.FeatureFrac = rng.Float64()
		}
		tree := NewTree(cfg)
		tree.classes = classes

		refRNG := rand.New(rand.NewSource(cfg.Seed))
		wf, wthr, wok := refBestSplit(tree, X, y, idx, refRNG)
		g := newGrower(tree, X, nil, y, nil, rand.New(rand.NewSource(cfg.Seed)))
		if classes > 0 {
			g.yc = classCodes(y, classes)
		}
		gf, gthr, gok := g.bestSplit(idx)
		if gf != wf || math.Float64bits(gthr) != math.Float64bits(wthr) || gok != wok {
			t.Fatalf("trial %d (n=%d, nf=%d, classes=%d, cfg=%+v): split (%d, %v, %v), reference (%d, %v, %v)",
				trial, len(idx), nf, classes, cfg, gf, gthr, gok, wf, wthr, wok)
		}
		if a, b := g.rng.Int63(), refRNG.Int63(); a != b {
			t.Fatalf("trial %d: RNG state diverged from the reference", trial)
		}
	}
}

// forestDigest fits a forest on the 500 × 16 validation-sample shape,
// which is below histMinRows so every node runs the exact sweep, and
// returns the SHA-256 of its exported JSON.
func forestDigest(t *testing.T, classify bool, workers int) string {
	t.Helper()
	X := benchMatrix(validationRows, benchFeatures, 42)
	f := NewForest(ForestConfig{Seed: 7, Workers: workers})
	var err error
	if classify {
		err = f.FitClass(X, benchLabels(X, benchClasses, 42), benchClasses)
	} else {
		err = f.Fit(X, benchTarget(X, 42))
	}
	if err != nil {
		t.Fatal(err)
	}
	return exportDigest(t, f)
}

// exportDigest returns the SHA-256 of a fitted model's exported JSON.
func exportDigest(t *testing.T, m any) string {
	t.Helper()
	fm, err := Export(m)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(fm)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// TestExactForestGolden pins whole exact-backend forests, at one worker
// and at four, to digests of their exported parameters captured before
// the exact kernel was reworked. Any change to the split sweep's
// candidate order, tie handling or prefix-sum bits changes them.
func TestExactForestGolden(t *testing.T) {
	const (
		classGolden = "3f39a7c0d9d439bbce8746e83488a9200ac3ff05ded8632f8d18a59d79f72365"
		regGolden   = "1bbeadb9f732540a5feab2dba4ca77b228b2a56f9094c5970f335ce22e634b87"
	)
	for _, workers := range []int{1, 4} {
		if got := forestDigest(t, true, workers); got != classGolden {
			t.Errorf("classification forest (workers=%d): digest %s, want %s", workers, got, classGolden)
		}
		if got := forestDigest(t, false, workers); got != regGolden {
			t.Errorf("regression forest (workers=%d): digest %s, want %s", workers, got, regGolden)
		}
	}
}

// TestTreeClassLimit pins the class cap both split backends need: labels
// are counted from int16 codes, so a class count past math.MaxInt16 is
// an error rather than wrapped codes, and the top allowed label counts
// as itself.
func TestTreeClassLimit(t *testing.T) {
	X := [][]float64{{0}, {0}, {0}, {0}, {1}, {1}, {1}, {1}}
	y := []int{maxClasses - 1, maxClasses - 1, maxClasses - 1, maxClasses - 1, 1, 1, 1, 1}
	if err := NewTree(TreeConfig{Seed: 1}).FitClass(X, y, maxClasses+1); err == nil {
		t.Fatal("tree: class count past the int16 codes must error")
	}
	f := NewForest(ForestConfig{Trees: 2, Seed: 1, Workers: 1})
	if err := f.FitClass(X, y, maxClasses+1); err == nil || f.Fitted() {
		t.Fatalf("forest: class count past the int16 codes must error and leave it unfitted (err=%v)", err)
	}
	tr := NewTree(TreeConfig{Seed: 1, MinLeaf: 1})
	if err := tr.FitClass(X, y, maxClasses); err != nil {
		t.Fatal(err)
	}
	if got := tr.Predict([][]float64{{0}, {1}}); got[0] != maxClasses-1 || got[1] != 1 {
		t.Fatalf("predictions %v, want [%d 1]", got, maxClasses-1)
	}
}

// TestRankSweepMatchesReference pins the count sweep to the sort.Slice
// reference on the classification nodes TestExactSplitMatchesReference
// draws: 1–600 rows, heavy ties, ±0 and ±Inf, out-of-range labels,
// bagged duplicate rows, random leaf sizes, threshold strides and
// feature fractions. The grower counts on a rank matrix built over each
// trial's X. Features mix the tie pool with NaN (which must sort), the
// same pool without NaN, small integers with both zeros, 0/1 one-hot
// columns and near-unique normals, so nodes land on both sides of the
// count/sort choice.
// The chosen split and the RNG stream afterwards must match the
// reference, and the rank scratch must be zero again.
func TestRankSweepMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	trials := 3000
	if testing.Short() {
		trials = 500
	}
	var counted, wide, unranked int
	for trial := 0; trial < trials; trial++ {
		rows := 1 + rng.Intn(600)
		nf := 1 + rng.Intn(6)
		kinds := make([]int, nf)
		for f := range kinds {
			kinds[f] = rng.Intn(5)
		}
		X := make([][]float64, rows)
		for i := range X {
			X[i] = make([]float64, nf)
			for f, kind := range kinds {
				v := tieValue(rng)
				switch kind {
				case 1:
					for math.IsNaN(v) {
						v = tieValue(rng)
					}
				case 2:
					v = float64(rng.Intn(3))
					if v == 2 {
						v = math.Copysign(0, -1)
					}
				case 3:
					v = float64(rng.Intn(2))
				case 4:
					v = rng.NormFloat64()
				}
				X[i][f] = v
			}
		}
		classes := 2 + rng.Intn(9)
		y := make([]float64, rows)
		for i := range y {
			if rng.Intn(30) == 0 {
				y[i] = float64(classes + rng.Intn(2)) // out of range: ignored by the counts
			} else {
				y[i] = float64(rng.Intn(classes))
			}
		}
		idx := make([]int, 1+rng.Intn(rows))
		for i := range idx {
			idx[i] = rng.Intn(rows)
		}
		cfg := TreeConfig{
			MinLeaf:       1 + rng.Intn(6),
			MaxThresholds: 1 + rng.Intn(64),
			Seed:          rng.Int63(),
		}
		if rng.Intn(2) == 0 {
			cfg.FeatureFrac = rng.Float64()
		}
		tree := NewTree(cfg)
		tree.classes = classes

		refRNG := rand.New(rand.NewSource(cfg.Seed))
		wf, wthr, wok := refBestSplit(tree, X, y, idx, refRNG)
		g := newGrower(tree, X, nil, y, nil, rand.New(rand.NewSource(cfg.Seed)))
		g.yc, g.rk = classCodes(y, classes), newRankMatrix(X)
		for f := range kinds {
			switch {
			case g.rk.ranks[f] == nil:
				unranked++
			case g.counted(f, len(idx)):
				counted++
			default:
				wide++
			}
		}
		gf, gthr, gok := g.bestSplit(idx)
		if gf != wf || math.Float64bits(gthr) != math.Float64bits(wthr) || gok != wok {
			t.Fatalf("trial %d (n=%d, kinds=%v, classes=%d, cfg=%+v): split (%d, %v, %v), reference (%d, %v, %v)",
				trial, len(idx), kinds, classes, cfg, gf, gthr, gok, wf, wthr, wok)
		}
		if a, b := g.rng.Int63(), refRNG.Int63(); a != b {
			t.Fatalf("trial %d: RNG state diverged from the reference", trial)
		}
		if slices.ContainsFunc(g.rankRows, func(v int) bool { return v != 0 }) ||
			slices.ContainsFunc(g.rankCounts, func(v float64) bool { return v != 0 }) {
			t.Fatalf("trial %d: rank scratch left non-zero", trial)
		}
	}
	// Every path must be taken often: counted, sorted for its many
	// distinct values, and sorted for a NaN.
	if min(counted, wide, unranked) < trials/5 {
		t.Fatalf("feature sweeps: %d counted, %d sorted for cardinality, %d sorted for NaN; want at least %d of each",
			counted, wide, unranked, trials/5)
	}
}
