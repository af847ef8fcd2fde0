package ml

import "math/rand"

// grower is the per-tree construction state shared by both split
// backends. It owns the tree's RNG, the optional binned matrix, a slab
// free-list for histogram reuse, the exact sweep's sort buffer, and the
// optional per-row train prediction capture used by boosting.
type grower struct {
	t    *Tree
	X    [][]float64
	bm   *BinnedMatrix // nil = exact backend
	y    []float64
	yc   []int16   // classification labels (-1 = out of range), nil for regression
	pred []float64 // optional: leaf value per training row (regression)
	rng  *rand.Rand

	// Histogram slab management. A slab holds one histogram per feature,
	// packed by each feature's own bin count: feature f's bins occupy
	// slab[off[f]*statLen : off[f+1]*statLen] (g.hist). statLen is the
	// per-bin payload: classes counts (classification) or {count, sum,
	// sum²} (regression).
	slabLen int
	statLen int
	free    [][]float64
	// Sweep scratch (classification), shared by both backends; totals
	// holds the node's class counts after impurity.
	scratchL []float64
	scratchR []float64
	totals   []float64
	// Exact-sweep sort buffer, grown to the largest exact node so far:
	// on the exact backend that is the root, one allocation per tree.
	arr []vy
	// Feature-sample buffer, refilled at every node (sampleFeatures).
	feats []int
}

func newGrower(t *Tree, X [][]float64, bm *BinnedMatrix, y []float64, pred []float64, rng *rand.Rand) *grower {
	g := &grower{t: t, X: X, bm: bm, y: y, pred: pred, rng: rng}
	if bm != nil {
		g.statLen = 3
		if t.classes > 0 {
			g.statLen = t.classes
		}
		g.slabLen = bm.off[bm.features] * g.statLen
	}
	if t.classes > 0 {
		g.scratchL = make([]float64, t.classes)
		g.scratchR = make([]float64, t.classes)
		g.totals = make([]float64, t.classes)
	}
	return g
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

// grow builds the subtree over rows idx. slab, when non-nil, is this
// node's pre-derived histogram (from the parent-minus-sibling trick);
// ownership transfers in: grow releases or re-derives it.
func (g *grower) grow(idx []int, depth int, slab []float64) *treeNode {
	t := g.t
	if depth >= t.Config.MaxDepth || len(idx) < 2*t.Config.MinLeaf || g.pure(idx) {
		g.release(slab)
		return g.makeLeaf(idx)
	}
	useHist := g.bm != nil && len(idx) >= t.Config.ExactNodeSize
	var feat, bin, nLeft int
	var thr float64
	var ok bool
	if useHist {
		if slab == nil {
			slab = g.getSlab()
			g.accumulate(slab, idx)
		}
		feat, bin, thr, nLeft, ok = g.bestSplitHist(slab, idx)
	} else {
		g.release(slab)
		slab = nil
		feat, thr, ok = g.bestSplit(idx)
	}
	if !ok {
		g.release(slab)
		return g.makeLeaf(idx)
	}
	var li, ri []int
	if useHist {
		li, ri = g.partitionCodes(idx, feat, bin, nLeft)
	} else {
		for _, r := range idx {
			if g.X[r][feat] <= thr {
				li = append(li, r)
			} else {
				ri = append(ri, r)
			}
		}
	}
	if len(li) < t.Config.MinLeaf || len(ri) < t.Config.MinLeaf {
		g.release(slab)
		return g.makeLeaf(idx)
	}
	var lh, rh []float64
	if useHist {
		lh, rh = g.childSlabs(slab, li, ri, depth+1)
	}
	n := &treeNode{feature: feat, threshold: thr}
	n.left = g.grow(li, depth+1, lh)
	n.right = g.grow(ri, depth+1, rh)
	return n
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

// makeLeaf emits a leaf node and, for regression trees with prediction
// capture enabled, records the leaf value for every covered row.
func (g *grower) makeLeaf(idx []int) *treeNode {
	if g.t.classes > 0 {
		dist := make([]float64, g.t.classes)
		for _, r := range idx {
			if c := g.yc[r]; c >= 0 {
				dist[c]++
			}
		}
		return &treeNode{isLeaf: true, value: dist}
	}
	var sum float64
	for _, r := range idx {
		sum += g.y[r]
	}
	mean := sum / float64(len(idx))
	if g.pred != nil {
		for _, r := range idx {
			g.pred[r] = mean
		}
	}
	return &treeNode{isLeaf: true, value: []float64{mean}}
}

// partitionCodes splits idx by binned code — a contiguous uint8 scan —
// which is predicate-equivalent to X[r][feat] <= edges[feat][bin].
func (g *grower) partitionCodes(idx []int, feat, bin, nLeft int) (li, ri []int) {
	codes := g.bm.codes[feat]
	li = make([]int, 0, nLeft)
	ri = make([]int, 0, len(idx)-nLeft)
	cb := uint8(bin)
	for _, r := range idx {
		if codes[r] <= cb {
			li = append(li, r)
		} else {
			ri = append(ri, r)
		}
	}
	return li, ri
}

// childNeedsHist reports whether a child node will run a histogram sweep
// (mirrors grow's own decision, minus the purity scan — an unused slab
// is simply released by the child).
func (g *grower) childNeedsHist(child []int, depth int) bool {
	t := g.t
	return len(child) >= t.Config.ExactNodeSize &&
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
func (g *grower) bestSplitHist(slab []float64, idx []int) (feat, bin int, thr float64, nLeft int, ok bool) {
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
					nLeft = int(cntL)
				}
			}
		}
		return feat, bin, thr, nLeft, ok
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
				nLeft = int(cntL)
			}
		}
	}
	return feat, bin, thr, nLeft, ok
}
