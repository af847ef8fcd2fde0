package ml

import (
	"fmt"
	"math"
	"math/rand"
)

// TreeConfig tunes CART construction.
type TreeConfig struct {
	MaxDepth      int // default 10
	MinLeaf       int // default 5
	MaxThresholds int // exact sweep: candidate thresholds per feature; default 32
	// FeatureFrac is the fraction of features examined per split (random
	// forests use < 1). 0 means all features.
	FeatureFrac float64
	Seed        int64
	// exactBelow is the node size below which a histogram-grown tree
	// sorts instead (default exactNodeSize). Tests lower it to run the
	// histogram sweep on small nodes.
	exactBelow int
}

// exactNodeSize is the node size below which a tree grown on histograms
// switches to the exact sweep: once a node holds fewer rows than bins,
// sorting them outright is cheaper than a 256-bin sweep.
const exactNodeSize = 64

func (c TreeConfig) withDefaults() TreeConfig {
	if c.MaxDepth <= 0 {
		c.MaxDepth = 10
	}
	if c.MinLeaf <= 0 {
		c.MinLeaf = 5
	}
	if c.MaxThresholds <= 0 {
		c.MaxThresholds = 32
	}
	if c.exactBelow <= 0 {
		c.exactBelow = exactNodeSize
	}
	return c
}

// Tree is a CART decision tree usable for classification and regression.
// Its fitted form is one node array in pre-order plus one slab of leaf
// values (scikit-learn's array-backed tree layout).
type Tree struct {
	Config  TreeConfig
	nodes   []node
	vals    []float64 // leaf values: classes per leaf, or 1 for regression
	classes int       // 0 for regression
}

// node is one node of a fitted tree, 16 bytes. Nodes are stored in
// pre-order, so a split's left child is the next node and right is the
// index of its right child. A leaf has feat = -1, and its right is the
// offset of its values in the tree's vals slab. int32 indices bound a
// tree at 2^31 nodes and leaf values, far past any fit.
type node struct {
	thr   float64
	feat  int32
	right int32
}

// split appends a split node and returns its index. The caller grows the
// left subtree next, then records where the right one starts with
// setRight.
func (t *Tree) split(feat int, thr float64) int {
	t.nodes = append(t.nodes, node{thr: thr, feat: int32(feat)})
	return len(t.nodes) - 1
}

// setRight points split at the next node to be appended: its right
// child.
func (t *Tree) setRight(split int) { t.nodes[split].right = int32(len(t.nodes)) }

// leaf appends a leaf over rows idx: y's class counts for a
// classification tree (labels outside [0,classes) are not counted), or
// y's mean for a regression tree, which it also returns.
func (t *Tree) leaf(y []float64, idx []int) float64 {
	off := len(t.vals)
	t.nodes = append(t.nodes, node{feat: -1, right: int32(off)})
	if t.classes > 0 {
		t.vals = append(t.vals, make([]float64, t.classes)...)
		counts := t.vals[off:]
		for _, r := range idx {
			if c := int(y[r]); c >= 0 && c < t.classes {
				counts[c]++
			}
		}
		return 0
	}
	var sum float64
	for _, r := range idx {
		sum += y[r]
	}
	mean := sum / float64(len(idx))
	t.vals = append(t.vals, mean)
	return mean
}

// leafOf walks row down the tree and returns the offset in t.vals of the
// leaf it reaches. A row too short for a split's feature goes right, as
// does NaN.
func (t *Tree) leafOf(row []float64) int {
	i := 0
	for {
		n := t.nodes[i]
		if n.feat < 0 {
			return int(n.right)
		}
		if int(n.feat) < len(row) && row[n.feat] <= n.thr {
			i++
		} else {
			i = int(n.right)
		}
	}
}

// dist returns the class distribution of the leaf row reaches
// (classification trees only).
func (t *Tree) dist(row []float64) []float64 {
	o := t.leafOf(row)
	return t.vals[o : o+t.classes]
}

// NewTree returns a tree with the given configuration.
func NewTree(cfg TreeConfig) *Tree { return &Tree{Config: cfg.withDefaults()} }

// Fit trains a regression tree.
func (t *Tree) Fit(X [][]float64, y []float64) error {
	if err := checkXY(X, len(y)); err != nil {
		return err
	}
	return t.fitRows(binnedFor(X), X, y, nil, 0, nil, nil)
}

// FitClass trains a classification tree over integer labels in [0,classes).
func (t *Tree) FitClass(X [][]float64, y []int, classes int) error {
	if err := checkXY(X, len(y)); err != nil {
		return err
	}
	if classes < 2 {
		return errClasses(classes)
	}
	yf := labelFloats(y)
	return t.fitRows(binnedFor(X), X, yf, classCodes(yf, classes), classes, nil, nil)
}

// fitRows fits t alone, on a workspace of its own. bm is the fit's
// binned matrix, or nil for the exact sweep at every node (binnedFor
// decides). yc holds yf's class codes for a classification tree
// (classes > 0), built once per fit. rows may be nil (all rows) or carry
// duplicates (bagging); the tree grows on the workspace's copy, since
// growth reorders it. pred — regression only — captures each training
// row's leaf value during growth.
func (t *Tree) fitRows(bm *binnedMatrix, X [][]float64, yf []float64, yc []int16, classes int, rows []int, pred []float64) error {
	if err := checkClasses(classes); err != nil {
		return err
	}
	t.classes = classes
	n := len(rows)
	if rows == nil {
		n = len(yf)
	}
	if n == 0 {
		return fmt.Errorf("ml: no training rows")
	}
	g := newGrower(t, X, bm, yf, pred, rand.New(rand.NewSource(t.Config.Seed)))
	g.yc, g.rk = yc, rankedFor(X, classes)
	idx := g.allRows(n)
	if rows != nil {
		copy(idx, rows)
	}
	g.fit(t, idx)
	return nil
}

// maxClasses is the largest class count a tree accepts: both split
// sweeps count classes from int16 label codes (classCodes).
const maxClasses = math.MaxInt16

// checkClasses refuses a class count past maxClasses.
func checkClasses(classes int) error {
	if classes > maxClasses {
		return fmt.Errorf("ml: %d classes exceed the tree limit of %d", classes, maxClasses)
	}
	return nil
}

func errClasses(c int) error { return fmt.Errorf("ml: need at least 2 classes, got %d", c) }

// Predict returns per-row predictions: the mean for regression, the argmax
// class index (as float64) for classification. An unfitted tree predicts
// zeros.
func (t *Tree) Predict(X [][]float64) []float64 {
	out := make([]float64, len(X))
	if len(t.nodes) == 0 {
		return out
	}
	for i, row := range X {
		if t.classes > 0 {
			out[i] = float64(argmax(t.dist(row)))
		} else {
			out[i] = t.vals[t.leafOf(row)]
		}
	}
	return out
}

// Proba returns normalized class distributions (classification trees
// only). An unfitted tree returns all-zero rows.
func (t *Tree) Proba(X [][]float64) [][]float64 {
	out := make([][]float64, len(X))
	for i, row := range X {
		p := make([]float64, t.classes)
		out[i] = p
		if len(t.nodes) == 0 {
			continue
		}
		v := t.dist(row)
		var sum float64
		for _, x := range v {
			sum += x
		}
		if sum == 0 {
			sum = 1
		}
		for j, x := range v {
			p[j] = x / sum
		}
	}
	return out
}

// labelFloats converts class labels to the float targets trees fit.
func labelFloats(y []int) []float64 {
	yf := make([]float64, len(y))
	for i, v := range y {
		yf[i] = float64(v)
	}
	return yf
}

// vy pairs a feature value with its row's target in the exact sweep.
type vy struct{ v, y float64 }

// bestSplit scans (a sample of) features for the impurity-minimizing
// split using a sort-and-sweep: rows are ordered by feature value once and
// prefix statistics give each candidate boundary's gain in O(1). The sort
// buffer and class counts are the workspace's, reused by every node. A
// classification feature the fit has ranked counts instead of sorting
// when that is cheaper (counted, rankSweep), with the same result.
//
// A feature constant over the node has no split. Filling the buffer
// already shows when every value compares equal to the first; then none
// is NaN (NaN equals nothing), so the sorted ends would be the minimum
// and the maximum and the equal-ends check after the sort would skip the
// feature: the sort is skipped instead. Any other node sorts and meets
// that check unchanged. ±0 compare equal in both checks.
func (g *grower) bestSplit(idx []int) (feat int, thr float64, ok bool) {
	t, X, y := g.t, g.X, g.y
	feats := g.sampleFeatures(len(X[0]))
	n := len(idx)
	bestGain := 0.0
	parentImp := g.impurity(idx)
	if cap(g.arr) < n {
		g.arr = make([]vy, n)
	}
	arr := g.arr[:n]
	// Classification sweep state.
	leftCounts, rightCounts := g.scratchL, g.scratchR
	for _, f := range feats {
		if g.counted(f, n) {
			if gain, fthr, found := g.rankSweep(idx, f, parentImp, bestGain); found {
				bestGain, feat, thr, ok = gain, f, fthr, true
			}
			continue
		}
		first, same := X[idx[0]][f], true
		for i, r := range idx {
			v := X[r][f]
			arr[i] = vy{v, y[r]}
			same = same && v == first
		}
		if same {
			continue // constant feature in this node
		}
		sortVY(arr)
		if arr[0].v == arr[n-1].v {
			continue // constant but for NaNs the sort left inside
		}
		// Candidate boundaries: positions where the value changes,
		// subsampled to MaxThresholds.
		stride := 1
		if n > t.Config.MaxThresholds*2 {
			stride = n / t.Config.MaxThresholds
		}
		if t.classes > 0 {
			clear(leftCounts)
			clear(rightCounts)
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
		// Regression sweep: prefix sums for variance.
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

// rankCountRatio bounds the count sweep: a node counts feature f per
// rank only while f's distinct values times the classes are at most this
// many times its rows, since every rank is visited and every non-empty
// one adds its class counts. A near-unique feature at a small node sorts.
const rankCountRatio = 16

// counted reports whether the sweep over feature f at a node of n rows
// counts per rank (rankSweep) rather than sorting: f must be ranked (no
// NaN in the fit) and have few distinct values next to n.
func (g *grower) counted(f, n int) bool {
	if g.rk == nil || g.rk.ranks[f] == nil {
		return false
	}
	return len(g.rk.vals[f])*g.t.classes <= rankCountRatio*n
}

// rankSweep is the exact classification sweep over feature f without a
// sort. It counts the node's rows and class codes per rank of the fit,
// then walks the non-empty ranks in order, adding each rank's counts to
// the left side. The boundary before a non-empty rank is the sorted
// sweep's boundary at p, the rows of the ranks before it, and it is
// evaluated under the same MinLeaf, stride and nextEval rules; the right
// side is the node's totals (impurity) minus the left. The result is the
// sorted sweep's, bit for bit:
//   - class counts at a value boundary do not depend on tie order, and
//     they are small integers, exact in float64;
//   - which positions are evaluated depends only on the group sizes;
//   - a rank's value stands for every row in it: only −0 and +0 share a
//     rank with different bits, and either gives the same midpoint
//     against any nonzero neighbour;
//   - a row whose label is out of range counts toward p but toward no
//     class, as in the sorted sweep.
//
// It returns the best gain over bestGain with its threshold, and leaves
// the rank scratch zero.
func (g *grower) rankSweep(idx []int, f int, parentImp, bestGain float64) (gain, thr float64, ok bool) {
	t := g.t
	classes := t.classes
	ranks, vals := g.rk.ranks[f], g.rk.vals[f]
	d := len(vals)
	if len(g.rankRows) < d {
		g.rankRows = make([]int, d)
	}
	if len(g.rankCounts) < d*classes {
		g.rankCounts = make([]float64, d*classes)
	}
	rows, counts := g.rankRows[:d], g.rankCounts[:d*classes]
	for _, r := range idx {
		k := int(ranks[r])
		rows[k]++
		if c := g.yc[r]; c >= 0 {
			counts[k*classes+int(c)]++
		}
	}
	n := len(idx)
	stride := 1
	if n > t.Config.MaxThresholds*2 {
		stride = n / t.Config.MaxThresholds
	}
	minLeaf := t.Config.MinLeaf
	left, right := g.scratchL, g.scratchR
	clear(left)
	gain = bestGain
	nextEval := minLeaf
	p, prev := 0, 0
	for k, m := range rows {
		if m == 0 {
			continue
		}
		// The first non-empty rank is no boundary: p = 0 < minLeaf.
		if p >= nextEval && p >= minLeaf && n-p >= minLeaf {
			nextEval = p + stride
			for c, v := range g.totals {
				right[c] = v - left[c]
			}
			gL := giniFromCounts(left, float64(p))
			gR := giniFromCounts(right, float64(n-p))
			if s := parentImp - (float64(p)*gL+float64(n-p)*gR)/float64(n); s > gain+1e-12 {
				gain, thr, ok = s, (vals[prev]+vals[k])/2, true
			}
		}
		kc := counts[k*classes : (k+1)*classes]
		for c, v := range kc {
			left[c] += v
		}
		clear(kc)
		rows[k] = 0
		p += m
		prev = k
	}
	return gain, thr, ok
}

func giniFromCounts(counts []float64, n float64) float64 {
	if n <= 0 {
		return 0
	}
	g := 1.0
	for _, c := range counts {
		p := c / n
		g -= p * p
	}
	return g
}

func varFromSums(sum, sq, n float64) float64 {
	if n <= 0 {
		return 0
	}
	mean := sum / n
	v := sq/n - mean*mean
	if v < 0 {
		return 0
	}
	return v
}

// impurity is Gini for classification, variance for regression. For
// classification it leaves the node's class counts in g.totals.
func (g *grower) impurity(idx []int) float64 {
	if g.t.classes > 0 {
		counts := g.totals
		clear(counts)
		for _, r := range idx {
			if c := g.yc[r]; c >= 0 {
				counts[c]++
			}
		}
		n := float64(len(idx))
		gini := 1.0
		for _, c := range counts {
			p := c / n
			gini -= p * p
		}
		return gini
	}
	var sum, sq float64
	for _, r := range idx {
		sum += g.y[r]
		sq += g.y[r] * g.y[r]
	}
	n := float64(len(idx))
	mean := sum / n
	v := sq/n - mean*mean
	if v < 0 || math.IsNaN(v) {
		return 0
	}
	return v
}
