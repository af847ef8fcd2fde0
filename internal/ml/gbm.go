package ml

import (
	"math"
	"math/rand"

	"catdb/internal/pool"
)

// GBMConfig tunes gradient-boosted trees.
type GBMConfig struct {
	Rounds       int     // default 60
	LearningRate float64 // default 0.1
	MaxDepth     int     // default 4
	MinLeaf      int     // default 5
	Seed         int64
	// Workers bounds the goroutines used for one-vs-rest class fitting
	// and batch inference: 0 = GOMAXPROCS, 1 = serial. Every class
	// derives its tree seeds from (class, round), so the model is
	// bit-identical at any setting.
	Workers int
}

func (c GBMConfig) withDefaults() GBMConfig {
	if c.Rounds <= 0 {
		c.Rounds = 60
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.1
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 4
	}
	if c.MinLeaf <= 0 {
		c.MinLeaf = 5
	}
	return c
}

// GBM is a gradient-boosting machine: least-squares boosting for regression
// and one-vs-rest logistic boosting for classification. Feature binning
// happens once per fit and is shared across every round (and every OVR
// class), and each round's training predictions are captured from leaf
// assignments during growth instead of re-traversing the tree.
type GBM struct {
	Config  GBMConfig
	base    float64
	trees   []*Tree   // regression
	ovr     [][]*Tree // classification: per class, per round
	bias    []float64 // per-class initial log-odds
	classes int
	fitted  bool
}

// NewGBM returns a GBM with the given configuration.
func NewGBM(cfg GBMConfig) *GBM { return &GBM{Config: cfg.withDefaults()} }

// Fitted reports whether the model has been trained.
func (g *GBM) Fitted() bool { return g.fitted }

func (g *GBM) newTree(seed int64) *Tree {
	return NewTree(TreeConfig{MaxDepth: g.Config.MaxDepth, MinLeaf: g.Config.MinLeaf, Seed: seed})
}

// Fit trains least-squares gradient boosting for regression.
func (g *GBM) Fit(X [][]float64, y []float64) error {
	if err := checkXY(X, len(y)); err != nil {
		return err
	}
	return g.fit(binnedFor(X), X, y)
}

// fit boosts regression trees over bm (nil: the exact sweep), shared by
// every round.
func (g *GBM) fit(bm *binnedMatrix, X [][]float64, y []float64) error {
	g.classes = 0
	g.fitted = false
	var sum float64
	for _, v := range y {
		sum += v
	}
	n := len(y)
	g.base = sum / float64(n)
	resid := make([]float64, n)
	pred := make([]float64, n)
	up := make([]float64, n)
	for i := range pred {
		pred[i] = g.base
	}
	g.trees = nil
	w := newGrower(nil, X, bm, resid, up, rand.New(rand.NewSource(0)))
	for r := 0; r < g.Config.Rounds; r++ {
		for i := range resid {
			resid[i] = y[i] - pred[i]
		}
		t := g.newTree(g.Config.Seed + int64(r))
		w.fit(t, w.allRows(n))
		for i := range pred {
			pred[i] += g.Config.LearningRate * up[i]
		}
		g.trees = append(g.trees, t)
	}
	g.fitted = true
	return nil
}

// Predict returns regression predictions or argmax classes for
// classification GBMs. An unfitted model predicts zeros.
func (g *GBM) Predict(X [][]float64) []float64 {
	out := make([]float64, len(X))
	if !g.fitted {
		return out
	}
	if g.classes > 0 {
		p := g.Proba(X)
		for i := range p {
			out[i] = float64(argmax(p[i]))
		}
		return out
	}
	lr := g.Config.LearningRate
	forChunks(g.Config.Workers, len(X), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s := g.base
			for _, t := range g.trees {
				s += lr * t.vals[t.leafOf(X[i])]
			}
			out[i] = s
		}
	})
	return out
}

// FitClass trains one-vs-rest logistic gradient boosting. The classes
// are independent boosting chains over the same binned matrix, so they
// fan out over the worker pool; per-(class, round) tree seeds keep the
// model bit-identical at any worker count.
func (g *GBM) FitClass(X [][]float64, y []int, classes int) error {
	if err := checkXY(X, len(y)); err != nil {
		return err
	}
	if classes < 2 {
		return errClasses(classes)
	}
	return g.fitClass(binnedFor(X), X, y, classes)
}

// fitClass runs the one-vs-rest chains over bm (nil: the exact sweep),
// shared by every round of every class.
func (g *GBM) fitClass(bm *binnedMatrix, X [][]float64, y []int, classes int) error {
	g.classes = classes
	g.fitted = false
	n := len(y)
	g.ovr = make([][]*Tree, classes)
	g.bias = make([]float64, classes)
	err := pool.Each(g.Config.Workers, classes, func(c int) error {
		pos := 0
		target := make([]float64, n)
		for i, lbl := range y {
			if lbl == c {
				target[i] = 1
				pos++
			}
		}
		p0 := float64(pos) / float64(n)
		p0 = math.Min(math.Max(p0, 1e-4), 1-1e-4)
		g.bias[c] = math.Log(p0 / (1 - p0))
		score := make([]float64, n)
		for i := range score {
			score[i] = g.bias[c]
		}
		grad := make([]float64, n)
		up := make([]float64, n)
		trees := make([]*Tree, 0, g.Config.Rounds)
		w := newGrower(nil, X, bm, grad, up, rand.New(rand.NewSource(0)))
		for r := 0; r < g.Config.Rounds; r++ {
			for i := range grad {
				grad[i] = target[i] - sigmoid(score[i])
			}
			t := g.newTree(g.Config.Seed + int64(c*1000+r))
			w.fit(t, w.allRows(n))
			for i := range score {
				score[i] += g.Config.LearningRate * up[i]
			}
			trees = append(trees, t)
		}
		g.ovr[c] = trees
		return nil
	})
	if err != nil {
		g.ovr = nil
		return err
	}
	g.fitted = true
	return nil
}

// PredictClass returns integer class predictions (zeros when unfitted).
func (g *GBM) PredictClass(X [][]float64) []int {
	if !g.fitted || g.classes == 0 {
		return make([]int, len(X))
	}
	return predictFromProba(g.Proba(X))
}

// Proba returns normalized one-vs-rest probabilities, fanning row chunks
// over the worker pool. An unfitted model returns all-zero rows.
func (g *GBM) Proba(X [][]float64) [][]float64 {
	out := make([][]float64, len(X))
	if !g.fitted || g.classes == 0 {
		for i := range out {
			out[i] = make([]float64, g.classes)
		}
		return out
	}
	lr := g.Config.LearningRate
	forChunks(g.Config.Workers, len(X), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := make([]float64, g.classes)
			var sum float64
			for c := 0; c < g.classes; c++ {
				s := g.bias[c]
				for _, t := range g.ovr[c] {
					s += lr * t.vals[t.leafOf(X[i])]
				}
				row[c] = sigmoid(s)
				sum += row[c]
			}
			if sum == 0 {
				sum = 1
			}
			for c := range row {
				row[c] /= sum
			}
			out[i] = row
		}
	})
	return out
}

func sigmoid(x float64) float64 {
	if x < -40 {
		return 0
	}
	if x > 40 {
		return 1
	}
	return 1 / (1 + math.Exp(-x))
}
