package ml

import (
	"math/rand"
	"sort"

	"catdb/internal/pool"
)

// ExtraTrees is an extremely-randomized-trees ensemble: like a random
// forest but with random split thresholds instead of exhaustive search,
// trading a little bias for much faster training — the cheap-ensemble
// option AutoML portfolios like FLAML lean on.
type ExtraTrees struct {
	Config  ForestConfig
	trees   []*randTree
	classes int
}

// NewExtraTrees returns an extra-trees ensemble.
func NewExtraTrees(cfg ForestConfig) *ExtraTrees {
	return &ExtraTrees{Config: cfg.withDefaults()}
}

type randTree struct {
	feature   int
	threshold float64
	left      *randTree
	right     *randTree
	isLeaf    bool
	value     []float64
}

// Fitted reports whether the ensemble has been trained.
func (e *ExtraTrees) Fitted() bool { return len(e.trees) > 0 }

// FitClass trains the ensemble for classification.
func (e *ExtraTrees) FitClass(X [][]float64, y []int, classes int) error {
	if err := checkXY(X, len(y)); err != nil {
		return err
	}
	if classes < 2 {
		return errClasses(classes)
	}
	e.classes = classes
	yf := make([]float64, len(y))
	for i, v := range y {
		yf[i] = float64(v)
	}
	return e.fit(X, yf)
}

// Fit trains the ensemble for regression.
func (e *ExtraTrees) Fit(X [][]float64, y []float64) error {
	if err := checkXY(X, len(y)); err != nil {
		return err
	}
	e.classes = 0
	return e.fit(X, append([]float64(nil), y...))
}

// fit grows trees in parallel over a binned matrix built once and shared
// read-only by every tree (large fits only). Each tree derives its RNG
// from its index, so the ensemble is bit-identical at any worker count.
// Only a panicking tree fails the fit, which leaves the ensemble
// unfitted.
func (e *ExtraTrees) fit(X [][]float64, y []float64) error {
	cfg := e.Config
	e.trees = make([]*randTree, cfg.Trees)
	n := len(y)
	bm := sharedBinned(X, cfg.Backend, cfg.MaxBins, n)
	err := pool.Each(cfg.Workers, cfg.Trees, func(t int) error {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(t)*104729))
		rows := make([]int, n)
		for i := range rows {
			rows[i] = rng.Intn(n)
		}
		e.trees[t] = e.grow(X, bm, y, rows, 0, rng)
		return nil
	})
	if err != nil {
		e.trees = nil
	}
	return err
}

func (e *ExtraTrees) grow(X [][]float64, bm *BinnedMatrix, y []float64, idx []int, depth int, rng *rand.Rand) *randTree {
	leaf := e.leaf(y, idx)
	if depth >= e.Config.MaxDepth || len(idx) < 2*e.Config.MinLeaf {
		return leaf
	}
	// Random splits: try a handful of (feature, random threshold) pairs
	// and keep the first that produces two viable children. With a binned
	// matrix the candidate scan runs over contiguous uint8 codes — the
	// threshold is a random bin boundary mapped back to its real value —
	// instead of chasing row pointers through the float matrix.
	d := len(X[0])
	for try := 0; try < 8; try++ {
		f := rng.Intn(d)
		if bm != nil {
			codes := bm.codes[f]
			minC, maxC := codes[idx[0]], codes[idx[0]]
			for _, r := range idx {
				c := codes[r]
				if c < minC {
					minC = c
				}
				if c > maxC {
					maxC = c
				}
			}
			if minC == maxC {
				continue
			}
			cb := int(minC) + rng.Intn(int(maxC)-int(minC))
			li := make([]int, 0, len(idx)/2)
			ri := make([]int, 0, len(idx)/2)
			b := uint8(cb)
			for _, r := range idx {
				if codes[r] <= b {
					li = append(li, r)
				} else {
					ri = append(ri, r)
				}
			}
			if len(li) < e.Config.MinLeaf || len(ri) < e.Config.MinLeaf {
				continue
			}
			return &randTree{
				feature: f, threshold: bm.edges[f][cb],
				left:  e.grow(X, bm, y, li, depth+1, rng),
				right: e.grow(X, bm, y, ri, depth+1, rng),
			}
		}
		lo, hi := X[idx[0]][f], X[idx[0]][f]
		for _, r := range idx {
			if X[r][f] < lo {
				lo = X[r][f]
			}
			if X[r][f] > hi {
				hi = X[r][f]
			}
		}
		if lo == hi {
			continue
		}
		thr := lo + rng.Float64()*(hi-lo)
		var li, ri []int
		for _, r := range idx {
			if X[r][f] <= thr {
				li = append(li, r)
			} else {
				ri = append(ri, r)
			}
		}
		if len(li) < e.Config.MinLeaf || len(ri) < e.Config.MinLeaf {
			continue
		}
		return &randTree{
			feature: f, threshold: thr,
			left:  e.grow(X, bm, y, li, depth+1, rng),
			right: e.grow(X, bm, y, ri, depth+1, rng),
		}
	}
	return leaf
}

func (e *ExtraTrees) leaf(y []float64, idx []int) *randTree {
	if e.classes > 0 {
		dist := make([]float64, e.classes)
		for _, r := range idx {
			c := int(y[r])
			if c >= 0 && c < e.classes {
				dist[c]++
			}
		}
		return &randTree{isLeaf: true, value: dist}
	}
	var sum float64
	for _, r := range idx {
		sum += y[r]
	}
	return &randTree{isLeaf: true, value: []float64{sum / float64(len(idx))}}
}

func (t *randTree) lookup(row []float64) []float64 {
	n := t
	for n != nil && !n.isLeaf {
		if n.feature < len(row) && row[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	if n == nil {
		return []float64{0}
	}
	return n.value
}

// Predict averages trees (regression) or returns argmax classes. An
// unfitted ensemble predicts zeros.
func (e *ExtraTrees) Predict(X [][]float64) []float64 {
	out := make([]float64, len(X))
	if !e.Fitted() {
		return out
	}
	if e.classes > 0 {
		p := e.Proba(X)
		for i := range p {
			out[i] = float64(argmax(p[i]))
		}
		return out
	}
	nt := float64(len(e.trees))
	forChunks(e.Config.Workers, len(X), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			var sum float64
			for _, t := range e.trees {
				sum += t.lookup(X[i])[0]
			}
			out[i] = sum / nt
		}
	})
	return out
}

// PredictClass returns class predictions (zeros when unfitted).
func (e *ExtraTrees) PredictClass(X [][]float64) []int {
	if !e.Fitted() || e.classes == 0 {
		return make([]int, len(X))
	}
	return predictFromProba(e.Proba(X))
}

// Proba averages the trees' class distributions, fanning row chunks over
// the worker pool. An unfitted ensemble returns all-zero rows.
func (e *ExtraTrees) Proba(X [][]float64) [][]float64 {
	out := make([][]float64, len(X))
	if !e.Fitted() || e.classes == 0 {
		for i := range out {
			out[i] = make([]float64, e.classes)
		}
		return out
	}
	forChunks(e.Config.Workers, len(X), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			acc := make([]float64, e.classes)
			for _, t := range e.trees {
				v := t.lookup(X[i])
				var sum float64
				for _, x := range v {
					sum += x
				}
				if sum == 0 {
					continue
				}
				for j := range acc {
					if j < len(v) {
						acc[j] += v[j] / sum
					}
				}
			}
			var tot float64
			for _, x := range acc {
				tot += x
			}
			if tot == 0 {
				for j := range acc {
					acc[j] = 1 / float64(e.classes)
				}
			} else {
				for j := range acc {
					acc[j] /= tot
				}
			}
			out[i] = acc
		}
	})
	return out
}

// SVM is a one-vs-rest linear support-vector classifier trained with
// hinge-loss SGD over standardized features.
type SVM struct {
	Config  LinearConfig
	w       [][]float64
	b       []float64
	sc      *scaler
	classes int
}

// NewSVM returns a linear SVM classifier.
func NewSVM(cfg LinearConfig) *SVM { return &SVM{Config: cfg.withDefaults()} }

// FitClass trains one-vs-rest hinge-loss SGD.
func (m *SVM) FitClass(X [][]float64, y []int, classes int) error {
	if err := checkXY(X, len(y)); err != nil {
		return err
	}
	if classes < 2 {
		return errClasses(classes)
	}
	m.classes = classes
	m.sc = fitScaler(X)
	n, d := len(y), len(X[0])
	Xs := make([][]float64, n)
	for i, row := range X {
		Xs[i] = m.sc.apply(row)
	}
	lambda := m.Config.L2
	if lambda <= 0 {
		lambda = 1e-4
	}
	m.w = make([][]float64, classes)
	m.b = make([]float64, classes)
	rng := rand.New(rand.NewSource(m.Config.Seed))
	order := rng.Perm(n)
	for c := 0; c < classes; c++ {
		w := make([]float64, d)
		b := 0.0
		step := 0
		for e := 0; e < m.Config.Epochs; e++ {
			for _, i := range order {
				step++
				eta := 1 / (lambda * float64(step+10))
				t := -1.0
				if y[i] == c {
					t = 1
				}
				margin := b
				for j, v := range Xs[i] {
					margin += w[j] * v
				}
				for j := range w {
					w[j] -= eta * lambda * w[j]
				}
				if t*margin < 1 {
					for j, v := range Xs[i] {
						w[j] += eta * t * v
					}
					b += eta * t
				}
			}
		}
		m.w[c] = w
		m.b[c] = b
	}
	return nil
}

// PredictClass returns argmax-margin classes.
func (m *SVM) PredictClass(X [][]float64) []int { return predictFromProba(m.Proba(X)) }

// Proba converts margins to normalized pseudo-probabilities via rank-safe
// sigmoid squashing.
func (m *SVM) Proba(X [][]float64) [][]float64 {
	out := make([][]float64, len(X))
	for i, row := range X {
		rs := m.sc.apply(row)
		p := make([]float64, m.classes)
		var sum float64
		for c := 0; c < m.classes; c++ {
			margin := m.b[c]
			for j, v := range rs {
				if j < len(m.w[c]) {
					margin += m.w[c][j] * v
				}
			}
			p[c] = sigmoid(margin)
			sum += p[c]
		}
		if sum == 0 {
			sum = 1
		}
		for c := range p {
			p[c] /= sum
		}
		out[i] = p
	}
	return out
}

// CrossValidateClass runs k-fold cross-validation of a classifier factory
// and returns the per-fold macro-AUC scores.
func CrossValidateClass(X [][]float64, y []int, classes, folds int, seed int64,
	factory func(seed int64) interface {
		FitClass(X [][]float64, y []int, classes int) error
		Proba(X [][]float64) [][]float64
	}) ([]float64, error) {

	if folds < 2 {
		folds = 2
	}
	n := len(y)
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	scores := make([]float64, 0, folds)
	for f := 0; f < folds; f++ {
		lo, hi := f*n/folds, (f+1)*n/folds
		test := perm[lo:hi]
		train := append(append([]int(nil), perm[:lo]...), perm[hi:]...)
		if len(test) == 0 || len(train) == 0 {
			continue
		}
		Xtr, ytr := subset(X, y, train)
		Xte, yte := subset(X, y, test)
		clf := factory(seed + int64(f))
		if err := clf.FitClass(Xtr, ytr, classes); err != nil {
			return nil, err
		}
		scores = append(scores, MacroAUC(clf.Proba(Xte), yte, classes))
	}
	sort.Float64s(scores)
	return scores, nil
}

func subset(X [][]float64, y []int, rows []int) ([][]float64, []int) {
	xs := make([][]float64, len(rows))
	ys := make([]int, len(rows))
	for i, r := range rows {
		xs[i], ys[i] = X[r], y[r]
	}
	return xs, ys
}
