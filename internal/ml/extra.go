package ml

import (
	"math/rand"
	"sync"

	"catdb/internal/pool"
)

// ExtraTrees is an extremely-randomized-trees ensemble: like a random
// forest but with random split thresholds instead of exhaustive search,
// trading a little bias for much faster training — the cheap-ensemble
// option AutoML portfolios like FLAML lean on.
type ExtraTrees struct {
	Config  ForestConfig
	trees   []*Tree
	classes int
}

// NewExtraTrees returns an extra-trees ensemble.
func NewExtraTrees(cfg ForestConfig) *ExtraTrees {
	return &ExtraTrees{Config: cfg.withDefaults()}
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
	return e.fit(binnedFor(X), X, labelFloats(y), classes)
}

// Fit trains the ensemble for regression.
func (e *ExtraTrees) Fit(X [][]float64, y []float64) error {
	if err := checkXY(X, len(y)); err != nil {
		return err
	}
	return e.fit(binnedFor(X), X, append([]float64(nil), y...), 0)
}

// fit grows trees in parallel over bm (nil: raw thresholds), shared
// read-only by every tree. Each tree re-seeds its workspace's RNG from
// its index, so the ensemble is bit-identical at any worker count; the
// RNG, the bootstrap rows, the partition scratch and the node buffers
// are reused across trees, as in Forest.fit. Only a panicking tree fails
// the fit, which leaves the ensemble unfitted.
func (e *ExtraTrees) fit(bm *binnedMatrix, X [][]float64, y []float64, classes int) error {
	cfg := e.Config
	e.classes = classes
	e.trees = make([]*Tree, cfg.Trees)
	n := len(y)
	ws := sync.Pool{New: func() any { return &grower{rng: rand.New(rand.NewSource(0))} }}
	err := pool.Each(cfg.Trees, func(i int) error {
		g := ws.Get().(*grower)
		rows := g.bootstrap(g.rng, cfg.Seed+int64(i)*104729, n)
		t := &Tree{classes: classes, nodes: g.nodes[:0], vals: g.vals[:0]}
		e.grow(t, X, bm, y, rows, g.buf, 0, g.rng)
		g.keep(t)
		e.trees[i] = t
		ws.Put(g)
		return nil
	})
	if err != nil {
		e.trees = nil
	}
	return err
}

// grow appends the subtree over rows idx to t: a split on the first
// random candidate that leaves both children viable, or else a leaf. A
// split reorders idx in place, through the tree's scratch buf.
func (e *ExtraTrees) grow(t *Tree, X [][]float64, bm *binnedMatrix, y []float64, idx, buf []int, depth int, rng *rand.Rand) {
	if depth < e.Config.MaxDepth && len(idx) >= 2*e.Config.MinLeaf {
		if f, thr, nLeft, ok := e.randomSplit(X, bm, idx, buf, rng); ok {
			at := t.split(f, thr)
			e.grow(t, X, bm, y, idx[:nLeft], buf, depth+1, rng)
			t.setRight(at)
			e.grow(t, X, bm, y, idx[nLeft:], buf, depth+1, rng)
			return
		}
	}
	t.leaf(y, idx)
}

// randomSplit tries a handful of (feature, random threshold) pairs and
// partitions idx on the first that produces two viable children; a
// failed try leaves idx untouched. With a binned matrix the candidate
// scan runs over contiguous uint8 codes — the threshold is a random bin
// boundary mapped back to its real value — instead of chasing row
// pointers through the float matrix.
func (e *ExtraTrees) randomSplit(X [][]float64, bm *binnedMatrix, idx, buf []int, rng *rand.Rand) (f int, thr float64, nLeft int, ok bool) {
	d := len(X[0])
	minLeaf := e.Config.MinLeaf
	for try := 0; try < 8; try++ {
		f = rng.Intn(d)
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
			if nLeft, ok = partitionCode(idx, buf, codes, uint8(cb), minLeaf); ok {
				return f, bm.edges[f][cb], nLeft, true
			}
			continue
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
		thr = lo + rng.Float64()*(hi-lo)
		if nLeft, ok = partitionThr(idx, buf, X, f, thr, minLeaf); ok {
			return f, thr, nLeft, true
		}
	}
	return 0, 0, 0, false
}

// Predict averages trees (regression) or returns argmax classes. An
// unfitted ensemble predicts zeros.
func (e *ExtraTrees) Predict(X [][]float64) []float64 {
	if !e.Fitted() {
		return make([]float64, len(X))
	}
	if e.classes > 0 {
		out := make([]float64, len(X))
		for i, p := range e.Proba(X) {
			out[i] = float64(argmax(p))
		}
		return out
	}
	return meanPredict(e.trees, X)
}

// PredictClass returns class predictions (zeros when unfitted).
func (e *ExtraTrees) PredictClass(X [][]float64) []int {
	if !e.Fitted() || e.classes == 0 {
		return make([]int, len(X))
	}
	return predictFromProba(e.Proba(X))
}

// Proba sums the trees' normalized class distributions, skipping empty
// leaves, and divides by the summed mass, fanning row chunks over the
// worker pool. An unfitted ensemble returns all-zero rows.
func (e *ExtraTrees) Proba(X [][]float64) [][]float64 {
	out := make([][]float64, len(X))
	if !e.Fitted() || e.classes == 0 {
		for i := range out {
			out[i] = make([]float64, e.classes)
		}
		return out
	}
	forChunks(len(X), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			acc := make([]float64, e.classes)
			for _, t := range e.trees {
				v := t.dist(X[i])
				var sum float64
				for _, x := range v {
					sum += x
				}
				if sum == 0 {
					continue
				}
				for j, x := range v {
					acc[j] += x / sum
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
