package ml

import (
	"math/rand"
	"sync"

	"catdb/internal/pool"
)

// ForestConfig tunes a random forest (and the extra-trees ensemble).
type ForestConfig struct {
	Trees       int // default 50
	MaxDepth    int // default 12
	MinLeaf     int // default 3
	FeatureFrac float64
	Seed        int64
}

func (c ForestConfig) withDefaults() ForestConfig {
	if c.Trees <= 0 {
		c.Trees = 50
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 12
	}
	if c.MinLeaf <= 0 {
		c.MinLeaf = 3
	}
	if c.FeatureFrac <= 0 {
		c.FeatureFrac = 0.6
	}
	return c
}

// Forest is a bagged random forest for classification and regression.
type Forest struct {
	Config  ForestConfig
	trees   []*Tree
	classes int
}

// NewForest returns a forest with the given configuration.
func NewForest(cfg ForestConfig) *Forest { return &Forest{Config: cfg.withDefaults()} }

// Fitted reports whether the forest has been trained.
func (f *Forest) Fitted() bool { return len(f.trees) > 0 }

// Fit trains a regression forest.
func (f *Forest) Fit(X [][]float64, y []float64) error {
	if err := checkXY(X, len(y)); err != nil {
		return err
	}
	return f.fit(binnedFor(X), X, y, 0)
}

// FitClass trains a classification forest.
func (f *Forest) FitClass(X [][]float64, y []int, classes int) error {
	if err := checkXY(X, len(y)); err != nil {
		return err
	}
	if classes < 2 {
		return errClasses(classes)
	}
	return f.fit(binnedFor(X), X, labelFloats(y), classes)
}

// fit bags trees over bm (nil: the exact sweep), shared read-only across
// every tree, as are the rank matrix and the class codes built once here.
// Each tree seeds its bootstrap draw and its splits from its index, so
// the forest is identical at any worker count; pool.Each runs the
// single-worker case without spawning goroutines at all. It names no
// worker, so a task takes its workspace from a sync.Pool that ends with
// the fit and puts it back once its tree is grown: a panicking task
// drops its own.
func (f *Forest) fit(bm *binnedMatrix, X [][]float64, yf []float64, classes int) error {
	cfg := f.Config
	n := len(yf)
	f.classes = classes
	f.trees = nil
	if err := checkClasses(classes); err != nil {
		return err
	}
	var yc []int16
	if classes > 0 {
		yc = classCodes(yf, classes)
	}
	rk := rankedFor(X, classes)
	ws := sync.Pool{New: func() any {
		g := newGrower(nil, X, bm, yf, nil, rand.New(rand.NewSource(0)))
		g.yc, g.rk, g.boot = yc, rk, rand.New(rand.NewSource(0))
		return g
	}}
	f.trees = make([]*Tree, cfg.Trees)
	err := pool.Each(cfg.Trees, func(i int) error {
		g := ws.Get().(*grower)
		t := NewTree(TreeConfig{
			MaxDepth: cfg.MaxDepth, MinLeaf: cfg.MinLeaf,
			FeatureFrac: cfg.FeatureFrac, Seed: cfg.Seed + int64(i),
		})
		t.classes = classes
		g.fit(t, g.bootstrap(g.boot, cfg.Seed+int64(i)*7919, n))
		f.trees[i] = t
		ws.Put(g)
		return nil
	})
	if err != nil {
		f.trees = nil
	}
	return err
}

// Predict averages tree outputs (regression) or majority-votes via
// averaged probabilities (classification, returned as class indices).
// An unfitted forest predicts zeros rather than NaN.
func (f *Forest) Predict(X [][]float64) []float64 {
	if !f.Fitted() {
		return make([]float64, len(X))
	}
	if f.classes > 0 {
		out := make([]float64, len(X))
		for i, p := range f.Proba(X) {
			out[i] = float64(argmax(p))
		}
		return out
	}
	return meanPredict(f.trees, X)
}

// meanPredict averages regression trees' leaf values per row of X,
// fanning row chunks over the worker pool.
func meanPredict(trees []*Tree, X [][]float64) []float64 {
	out := make([]float64, len(X))
	nt := float64(len(trees))
	forChunks(len(X), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			var sum float64
			for _, t := range trees {
				sum += t.vals[t.leafOf(X[i])]
			}
			out[i] = sum / nt
		}
	})
	return out
}

// PredictClass returns integer class predictions (zeros when unfitted).
func (f *Forest) PredictClass(X [][]float64) []int {
	if !f.Fitted() || f.classes == 0 {
		return make([]int, len(X))
	}
	return predictFromProba(f.Proba(X))
}

// Proba averages the trees' class distributions, fanning row chunks over
// the worker pool. An unfitted forest returns all-zero rows.
func (f *Forest) Proba(X [][]float64) [][]float64 {
	out := make([][]float64, len(X))
	if !f.Fitted() || f.classes == 0 {
		for i := range out {
			out[i] = make([]float64, f.classes)
		}
		return out
	}
	nt := float64(len(f.trees))
	forChunks(len(X), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			acc := make([]float64, f.classes)
			for _, t := range f.trees {
				v := t.dist(X[i])
				var sum float64
				for _, x := range v {
					sum += x
				}
				if sum == 0 {
					sum = 1
				}
				for j, x := range v {
					acc[j] += x / sum
				}
			}
			for j := range acc {
				acc[j] /= nt
			}
			out[i] = acc
		}
	})
	return out
}
