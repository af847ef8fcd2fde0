package ml

import (
	"math/rand"
	"slices"
)

// grower is one worker's tree-building workspace, and lasts one fit.
// X, the binned or rank matrix, y and yc are the fit's, shared read-only
// by all its workspaces. Everything else outlives each tree the
// workspace grows and is reused by the next, so a tree allocates only
// the exact-size copies of its nodes and leaf values that it keeps
// (keep). Every tree of a fit has the fit's class count.
type grower struct {
	t    *Tree
	X    [][]float64
	bm   *binnedMatrix // nil = exact sweep at every node
	rk   *rankMatrix   // nil = the exact sweep sorts every feature
	y    []float64
	yc   []int16   // classification labels (-1 = out of range), nil for regression
	pred []float64 // optional: leaf value per training row (regression)
	rng  *rand.Rand
	boot *rand.Rand // bagged ensembles: draws each tree's rows

	// Histogram slab management. A slab holds one histogram per feature,
	// packed by each feature's own bin count: feature f's bins occupy
	// slab[off[f]*statLen : off[f+1]*statLen] (g.hist). statLen is the
	// per-bin payload: classes counts (classification) or {count, sum,
	// sum²} (regression).
	slabLen int
	statLen int
	free    [][]float64
	// Sweep scratch (classification), shared by both sweeps; totals
	// holds the node's class counts after impurity.
	scratchL []float64
	scratchR []float64
	totals   []float64
	// Exact-sweep sort buffer, grown to the largest sorted node so far.
	arr []vy
	// Rank-count scratch (rankSweep): rows and class counts per rank of
	// one feature, all zero between sweeps.
	rankRows   []int
	rankCounts []float64
	// Feature-sample buffer, refilled at every node (sampleFeatures).
	feats []int
	// The row index a tree grows on, and the partition scratch
	// (partitionThr, partitionCode) as long as it: rowBuf sizes both.
	rows []int
	buf  []int
	// Where the tree being grown appends its nodes and leaf values
	// (keep).
	nodes []node
	vals  []float64
}

// newGrower returns a workspace over X (and bm) for targets y, capturing
// each training row's leaf value into pred when it is non-nil, and
// drawing feature samples from rng, which fit re-seeds per tree. t, when
// non-nil, is the first tree it will grow.
func newGrower(t *Tree, X [][]float64, bm *binnedMatrix, y []float64, pred []float64, rng *rand.Rand) *grower {
	g := &grower{X: X, bm: bm, y: y, pred: pred, rng: rng}
	if t != nil {
		g.aim(t)
	}
	return g
}

// aim points the workspace at tree t, sizing the class scratch and the
// slab layout at the first tree.
func (g *grower) aim(t *Tree) {
	first := g.t == nil
	g.t = t
	if !first {
		return
	}
	if t.classes > 0 {
		g.scratchL = make([]float64, t.classes)
		g.scratchR = make([]float64, t.classes)
		g.totals = make([]float64, t.classes)
	}
	if g.bm != nil {
		g.statLen = 3
		if t.classes > 0 {
			g.statLen = t.classes
		}
		g.slabLen = g.bm.off[g.bm.features] * g.statLen
	}
}

// fit grows t over idx, which must come from rowBuf, and reorders it in
// place. It re-seeds the workspace RNG from t's seed: rand.Rand.Seed
// restarts the stream rand.NewSource(seed) starts, so a tree grows the
// same on a fresh workspace or a reused one.
func (g *grower) fit(t *Tree, idx []int) {
	g.aim(t)
	g.rng.Seed(t.Config.Seed)
	t.nodes, t.vals = g.nodes[:0], g.vals[:0]
	g.grow(idx, 0, nil)
	g.keep(t)
}

// keep gives t exact-size copies of the nodes and leaf values it grew in
// the workspace's buffers, and keeps the buffers for the next tree.
func (g *grower) keep(t *Tree) {
	g.nodes, g.vals = t.nodes, t.vals
	t.nodes, t.vals = slices.Clone(t.nodes), slices.Clone(t.vals)
}

// rowBuf returns the workspace's row index cut to n rows, with partition
// scratch to match.
func (g *grower) rowBuf(n int) []int {
	if cap(g.rows) < n {
		g.rows, g.buf = make([]int, n), make([]int, n)
	}
	return g.rows[:n]
}

// allRows fills the row index with 0..n-1.
func (g *grower) allRows(n int) []int {
	rows := g.rowBuf(n)
	for i := range rows {
		rows[i] = i
	}
	return rows
}

// bootstrap re-seeds rng and fills the row index with n draws from
// [0,n): one tree's bag of rows, with repeats.
func (g *grower) bootstrap(rng *rand.Rand, seed int64, n int) []int {
	rng.Seed(seed)
	rows := g.rowBuf(n)
	for r := range rows {
		rows[r] = rng.Intn(n)
	}
	return rows
}

// sampleFeatures draws the features a node examines: a random order of
// all nf features, cut to FeatureFrac of them. The loop is math/rand's
// Perm (fixed under the Go 1 compatibility promise), so the order and
// the RNG stream match g.rng.Perm(nf); the buffer is reused across
// nodes.
func (g *grower) sampleFeatures(nf int) []int {
	if cap(g.feats) < nf {
		g.feats = make([]int, nf)
	}
	m := g.feats[:nf]
	for i := range m {
		j := g.rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	if frac := g.t.Config.FeatureFrac; frac > 0 && frac < 1 {
		return m[:max(1, int(float64(nf)*frac+0.999))]
	}
	return m
}

// hist returns feature f's histogram in slab: its bins' statLen-wide
// payloads, packed back to back.
func (g *grower) hist(slab []float64, f int) []float64 {
	off := g.bm.off
	return slab[off[f]*g.statLen : off[f+1]*g.statLen]
}

// classCodes converts float labels to class indices, with -1 for labels
// outside [0,classes): those are ignored, as in the exact sweep. classes
// must not exceed maxClasses, which fitRows checks.
func classCodes(y []float64, classes int) []int16 {
	yc := make([]int16, len(y))
	for i, v := range y {
		c := int(v)
		if c < 0 || c >= classes {
			c = -1
		}
		yc[i] = int16(c)
	}
	return yc
}

// grow appends the subtree over rows idx to the tree, reordering idx in
// place: a split leaves its left rows, then its right rows, each in
// their idx order. slab, when non-nil, is this node's pre-derived
// histogram (from the parent-minus-sibling trick); ownership transfers
// in: grow releases or re-derives it.
func (g *grower) grow(idx []int, depth int, slab []float64) {
	t := g.t
	if depth >= t.Config.MaxDepth || len(idx) < 2*t.Config.MinLeaf || g.pure(idx) {
		g.release(slab)
		g.makeLeaf(idx)
		return
	}
	useHist := g.bm != nil && len(idx) >= t.Config.exactBelow
	var feat, nLeft int
	var thr float64
	var ok bool
	if useHist {
		if slab == nil {
			slab = g.getSlab()
			g.accumulate(slab, idx)
		}
		var bin int
		feat, bin, thr, ok = g.bestSplitHist(slab, idx)
		if ok {
			nLeft, ok = partitionCode(idx, g.buf, g.bm.codes[feat], uint8(bin), t.Config.MinLeaf)
		}
	} else {
		g.release(slab)
		slab = nil
		feat, thr, ok = g.bestSplit(idx)
		if ok {
			nLeft, ok = partitionThr(idx, g.buf, g.X, feat, thr, t.Config.MinLeaf)
		}
	}
	if !ok {
		g.release(slab)
		g.makeLeaf(idx)
		return
	}
	li, ri := idx[:nLeft], idx[nLeft:]
	var lh, rh []float64
	if useHist {
		lh, rh = g.childSlabs(slab, li, ri, depth+1)
	}
	at := t.split(feat, thr)
	g.grow(li, depth+1, lh)
	t.setRight(at)
	g.grow(ri, depth+1, rh)
}

func (g *grower) pure(idx []int) bool {
	first := g.y[idx[0]]
	for _, r := range idx[1:] {
		if g.y[r] != first {
			return false
		}
	}
	return true
}

// makeLeaf appends a leaf and, for regression trees with prediction
// capture enabled, records the leaf value for every covered row.
func (g *grower) makeLeaf(idx []int) {
	mean := g.t.leaf(g.y, idx)
	if g.pred != nil {
		for _, r := range idx {
			g.pred[r] = mean
		}
	}
}

// partitionThr splits idx on X[r][f] <= thr, stably: the left rows, then
// the right rows, each in their idx order, and returns the left count.
// The rows are staged in buf (at least len(idx) long) and copied back
// only when both sides hold at least minLeaf rows; otherwise ok is false
// and idx is untouched, as a leaf over idx sums its rows in that order.
func partitionThr(idx, buf []int, X [][]float64, f int, thr float64, minLeaf int) (nLeft int, ok bool) {
	right := len(idx)
	for _, r := range idx {
		if X[r][f] <= thr {
			buf[nLeft] = r
			nLeft++
		} else {
			right--
			buf[right] = r
		}
	}
	return nLeft, placeSplit(idx, buf, nLeft, minLeaf)
}

// partitionCode is partitionThr over binned codes: codes[r] <= bin, the
// same predicate as X[r][f] <= edges[f][bin].
func partitionCode(idx, buf []int, codes []uint8, bin uint8, minLeaf int) (nLeft int, ok bool) {
	right := len(idx)
	for _, r := range idx {
		if codes[r] <= bin {
			buf[nLeft] = r
			nLeft++
		} else {
			right--
			buf[right] = r
		}
	}
	return nLeft, placeSplit(idx, buf, nLeft, minLeaf)
}

// placeSplit copies a partition staged in buf back into idx when both
// sides hold at least minLeaf rows. buf holds the left rows in order
// from its start and the right rows in reverse from position len(idx)-1.
func placeSplit(idx, buf []int, nLeft, minLeaf int) bool {
	n := len(idx)
	if nLeft < minLeaf || n-nLeft < minLeaf {
		return false
	}
	copy(idx, buf[:nLeft])
	for i, j := nLeft, n-1; i < n; i, j = i+1, j-1 {
		idx[i] = buf[j]
	}
	return true
}

// childNeedsHist reports whether a child node will run a histogram sweep
// (mirrors grow's own decision, minus the purity scan — an unused slab
// is simply released by the child).
func (g *grower) childNeedsHist(child []int, depth int) bool {
	t := g.t
	return len(child) >= t.Config.exactBelow &&
		depth < t.Config.MaxDepth &&
		len(child) >= 2*t.Config.MinLeaf
}

// childSlabs derives the children's histograms from the parent's using
// the subtraction trick: only the smaller side is re-accumulated; the
// sibling's histogram is parent − fresh, computed in place in the parent
// slab. The parent slab's ownership is consumed (transferred or freed).
func (g *grower) childSlabs(parent []float64, li, ri []int, childDepth int) (lh, rh []float64) {
	needL := g.childNeedsHist(li, childDepth)
	needR := g.childNeedsHist(ri, childDepth)
	switch {
	case needL && needR:
		fresh := g.getSlab()
		if len(li) <= len(ri) {
			g.accumulate(fresh, li)
			subtractSlab(parent, fresh)
			return fresh, parent
		}
		g.accumulate(fresh, ri)
		subtractSlab(parent, fresh)
		return parent, fresh
	case needL:
		if len(li) <= len(ri) {
			lh = g.getSlab()
			g.accumulate(lh, li)
			g.release(parent)
			return lh, nil
		}
		fresh := g.getSlab()
		g.accumulate(fresh, ri)
		subtractSlab(parent, fresh)
		g.release(fresh)
		return parent, nil
	case needR:
		if len(ri) <= len(li) {
			rh = g.getSlab()
			g.accumulate(rh, ri)
			g.release(parent)
			return nil, rh
		}
		fresh := g.getSlab()
		g.accumulate(fresh, li)
		subtractSlab(parent, fresh)
		g.release(fresh)
		return nil, parent
	default:
		g.release(parent)
		return nil, nil
	}
}

func subtractSlab(dst, src []float64) {
	for i := range dst {
		dst[i] -= src[i]
	}
}

func (g *grower) getSlab() []float64 {
	if k := len(g.free); k > 0 {
		s := g.free[k-1]
		g.free = g.free[:k-1]
		clear(s)
		return s
	}
	return make([]float64, g.slabLen)
}

func (g *grower) release(slab []float64) {
	if slab != nil {
		g.free = append(g.free, slab)
	}
}

// accumulate fills slab with per-feature histograms over rows idx. All
// features are accumulated (not just the sampled subset) so the sibling
// subtraction stays valid at every descendant.
func (g *grower) accumulate(slab []float64, idx []int) {
	bm := g.bm
	if g.t.classes > 0 {
		classes := g.t.classes
		yc := g.yc
		for f := 0; f < bm.features; f++ {
			codes := bm.codes[f]
			h := g.hist(slab, f)
			for _, r := range idx {
				c := yc[r]
				if c < 0 {
					continue
				}
				h[int(codes[r])*classes+int(c)]++
			}
		}
		return
	}
	y := g.y
	for f := 0; f < bm.features; f++ {
		codes := bm.codes[f]
		h := g.hist(slab, f)
		for _, r := range idx {
			b := int(codes[r]) * 3
			v := y[r]
			h[b]++
			h[b+1] += v
			h[b+2] += v * v
		}
	}
}

// bestSplitHist sweeps each (sampled) feature's histogram for the
// impurity-minimizing bin boundary: O(rows·features) accumulation has
// already happened; each feature costs only O(bins) here. Boundaries
// after empty bins are skipped — they duplicate the previous partition —
// which keeps the candidate set identical to the exact sweep's
// value-change positions when bins are lossless.
func (g *grower) bestSplitHist(slab []float64, idx []int) (feat, bin int, thr float64, ok bool) {
	t := g.t
	bm := g.bm
	feats := g.sampleFeatures(bm.features)
	n := len(idx)
	nn := float64(n)
	bestGain := 0.0
	parentImp := g.impurity(idx)

	if t.classes > 0 {
		classes := t.classes
		totals := g.totals
		left, right := g.scratchL, g.scratchR
		for _, f := range feats {
			nb := bm.bins[f]
			if nb < 2 {
				continue
			}
			h := g.hist(slab, f)
			for c := range left {
				left[c] = 0
			}
			cntL := 0.0
			for b := 0; b < nb-1; b++ {
				binCnt := 0.0
				for c := 0; c < classes; c++ {
					v := h[b*classes+c]
					left[c] += v
					binCnt += v
				}
				if binCnt == 0 {
					continue
				}
				cntL += binCnt
				cntR := nn - cntL
				if cntR < float64(t.Config.MinLeaf) {
					break
				}
				if cntL < float64(t.Config.MinLeaf) {
					continue
				}
				gL := giniFromCounts(left, cntL)
				for c := 0; c < classes; c++ {
					right[c] = totals[c] - left[c]
				}
				gR := giniFromCounts(right, cntR)
				gain := parentImp - (cntL*gL+cntR*gR)/nn
				if gain > bestGain+1e-12 {
					bestGain, feat, bin, ok = gain, f, b, true
					thr = bm.edges[f][b]
				}
			}
		}
		return feat, bin, thr, ok
	}

	// Regression: per-bin {count, sum, sum²} prefixes give each
	// boundary's variance split in O(1).
	var totSum, totSq float64
	for _, r := range idx {
		v := g.y[r]
		totSum += v
		totSq += v * v
	}
	for _, f := range feats {
		nb := bm.bins[f]
		if nb < 2 {
			continue
		}
		h := g.hist(slab, f)
		var cntL, sumL, sqL float64
		for b := 0; b < nb-1; b++ {
			bc := h[b*3]
			if bc == 0 {
				continue
			}
			cntL += bc
			sumL += h[b*3+1]
			sqL += h[b*3+2]
			cntR := nn - cntL
			if cntR < float64(t.Config.MinLeaf) {
				break
			}
			if cntL < float64(t.Config.MinLeaf) {
				continue
			}
			vL := varFromSums(sumL, sqL, cntL)
			vR := varFromSums(totSum-sumL, totSq-sqL, cntR)
			gain := parentImp - (cntL*vL+cntR*vR)/nn
			if gain > bestGain+1e-12 {
				bestGain, feat, bin, ok = gain, f, b, true
				thr = bm.edges[f][b]
			}
		}
	}
	return feat, bin, thr, ok
}
