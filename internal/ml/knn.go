package ml

// KNNConfig tunes k-nearest-neighbours.
type KNNConfig struct {
	K int // default 7
	// MaxTrain caps the stored training rows (0 = unlimited); large stores
	// are subsampled head-first for predict-time tractability.
	MaxTrain int
}

func (c KNNConfig) withDefaults() KNNConfig {
	if c.K <= 0 {
		c.K = 7
	}
	return c
}

// KNN is a brute-force k-nearest-neighbours model for classification and
// regression over standardized features.
type KNN struct {
	Config  KNNConfig
	x       [][]float64
	yr      []float64
	yc      []int
	classes int
	sc      *scaler
}

// NewKNN returns a KNN model.
func NewKNN(cfg KNNConfig) *KNN { return &KNN{Config: cfg.withDefaults()} }

// Fit stores the (standardized) training set for regression.
func (k *KNN) Fit(X [][]float64, y []float64) error {
	if err := checkXY(X, len(y)); err != nil {
		return err
	}
	k.classes = 0
	k.store(X)
	k.yr = append([]float64(nil), y...)
	if k.Config.MaxTrain > 0 && len(k.yr) > k.Config.MaxTrain {
		k.yr = k.yr[:k.Config.MaxTrain]
	}
	return nil
}

// FitClass stores the training set for classification.
func (k *KNN) FitClass(X [][]float64, y []int, classes int) error {
	if err := checkXY(X, len(y)); err != nil {
		return err
	}
	if classes < 2 {
		return errClasses(classes)
	}
	k.classes = classes
	k.store(X)
	k.yc = append([]int(nil), y...)
	if k.Config.MaxTrain > 0 && len(k.yc) > k.Config.MaxTrain {
		k.yc = k.yc[:k.Config.MaxTrain]
	}
	return nil
}

func (k *KNN) store(X [][]float64) {
	k.sc = fitScaler(X)
	k.x = make([][]float64, len(X))
	for i, row := range X {
		k.x[i] = k.sc.apply(row)
	}
	if k.Config.MaxTrain > 0 && len(k.x) > k.Config.MaxTrain {
		k.x = k.x[:k.Config.MaxTrain]
	}
}

type neighbour struct {
	dist float64
	idx  int
}

// nearest returns the K nearest stored rows by squared Euclidean
// distance via a bounded insertion pass (O(n·K), no full sort). Ties
// break on the lower stored index, so results are deterministic and
// independent of scan parallelism. buf, when non-nil, is reused.
func (k *KNN) nearest(row []float64, buf []neighbour) []neighbour {
	rs := k.sc.apply(row)
	kk := k.Config.K
	if kk > len(k.x) {
		kk = len(k.x)
	}
	best := buf[:0]
	for i, tr := range k.x {
		var d float64
		for j := range tr {
			diff := tr[j] - rs[j]
			d += diff * diff
		}
		if len(best) == kk && d >= best[kk-1].dist {
			continue
		}
		// Insert in (dist, idx) order; strict < keeps the earlier index
		// on equal distances.
		p := len(best)
		if p < kk {
			best = append(best, neighbour{})
		} else {
			p = kk - 1
		}
		for p > 0 && d < best[p-1].dist {
			best[p] = best[p-1]
			p--
		}
		best[p] = neighbour{d, i}
	}
	return best
}

// Predict returns the neighbour-mean for regression or argmax class (as
// float64) for classification.
func (k *KNN) Predict(X [][]float64) []float64 {
	out := make([]float64, len(X))
	if k.classes > 0 {
		for i, c := range k.PredictClass(X) {
			out[i] = float64(c)
		}
		return out
	}
	forChunks(len(X), func(lo, hi int) {
		buf := make([]neighbour, 0, k.Config.K)
		for i := lo; i < hi; i++ {
			nb := k.nearest(X[i], buf)
			var sum float64
			for _, n := range nb {
				sum += k.yr[n.idx]
			}
			out[i] = sum / float64(len(nb))
		}
	})
	return out
}

// PredictClass returns majority-vote class indices.
func (k *KNN) PredictClass(X [][]float64) []int {
	return predictFromProba(k.Proba(X))
}

// Proba returns neighbour-vote class distributions. Query rows fan out
// over the worker pool; each row's scan is independent, so the output is
// identical at any worker count.
func (k *KNN) Proba(X [][]float64) [][]float64 {
	out := make([][]float64, len(X))
	forChunks(len(X), func(lo, hi int) {
		buf := make([]neighbour, 0, k.Config.K)
		for i := lo; i < hi; i++ {
			nb := k.nearest(X[i], buf)
			p := make([]float64, k.classes)
			for _, n := range nb {
				p[k.yc[n.idx]]++
			}
			for j := range p {
				p[j] /= float64(len(nb))
			}
			out[i] = p
		}
	})
	return out
}
