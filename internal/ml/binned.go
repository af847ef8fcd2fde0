package ml

import (
	"cmp"
	"math"
	"slices"
	"sort"
)

// binnedMatrix is the shared, read-only training representation behind
// histogram split finding: every feature is quantile-binned once into
// at most 256 uint8 codes, stored column-major so split finding scans a
// contiguous byte slice per feature instead of chasing row pointers. The
// per-feature edge arrays recover real-valued thresholds, so trees grown
// on codes still predict over raw float rows. A matrix is built once per
// ensemble Fit/FitClass and shared — race-free, since it is never
// mutated after construction — across all trees of a Forest/ExtraTrees
// and all rounds × one-vs-rest classes of a GBM.
type binnedMatrix struct {
	features int
	bins     []int       // per-feature bin count (len(edges[f])+1)
	off      []int       // histogram slab layout: feature f's bins are off[f]..off[f+1]-1
	codes    [][]uint8   // feature-major: codes[f][row]
	edges    [][]float64 // per-feature ascending thresholds; bin b holds (edges[b-1], edges[b]]
}

// maxHistBins is the hard cap on bins per feature (uint8 codes).
const maxHistBins = 256

// histMinRows is the fit size from which trees find splits on
// histograms; below it the exact sort-and-sweep is cheaper than the
// one-time binning pass.
const histMinRows = 512

// binnedFor is the one split-path decision of a fit: the binned matrix
// every tree of the fit shares when X has at least histMinRows rows, and
// nil (the exact sweep at every node) below that.
func binnedFor(X [][]float64) *binnedMatrix {
	if len(X) < histMinRows {
		return nil
	}
	return newBinnedMatrix(X)
}

// rankedFor is the other side of binnedFor's rule for classification:
// the rank matrix every tree of a classification fit below histMinRows
// shares, so its exact sweep can count classes per rank instead of
// sorting. Regression fits (classes == 0) and histogram fits get nil.
func rankedFor(X [][]float64, classes int) *rankMatrix {
	if classes == 0 || len(X) >= histMinRows {
		return nil
	}
	return newRankMatrix(X)
}

// rankMatrix is the read-only rank form of an exact classification fit.
// For each feature without a NaN it holds every row's dense rank among
// the fit's distinct values, compared by == so that −0 and +0 share a
// rank, and those values in ascending order. A feature with a NaN has no
// ranks: where pdqsort leaves a NaN depends on its comparison history,
// which counting cannot reproduce, so that feature sorts at every node.
// Ranks fit in uint16 because the fit has fewer than histMinRows rows.
type rankMatrix struct {
	ranks [][]uint16  // feature-major: ranks[f][row]; nil for a feature with a NaN
	vals  [][]float64 // ascending distinct values of each ranked feature
}

func newRankMatrix(X [][]float64) *rankMatrix {
	n, d := len(X), len(X[0])
	rk := &rankMatrix{ranks: make([][]uint16, d), vals: make([][]float64, d)}
	codes := make([]uint16, n*d)
	order := make([]int, n)
	for f := 0; f < d; f++ {
		if slices.ContainsFunc(X, func(row []float64) bool { return math.IsNaN(row[f]) }) {
			continue
		}
		for i := range order {
			order[i] = i
		}
		slices.SortFunc(order, func(a, b int) int { return cmp.Compare(X[a][f], X[b][f]) })
		ranks := codes[f*n : (f+1)*n]
		vals := []float64{X[order[0]][f]}
		for _, r := range order {
			if v := X[r][f]; v != vals[len(vals)-1] {
				vals = append(vals, v)
			}
			ranks[r] = uint16(len(vals) - 1)
		}
		rk.ranks[f], rk.vals[f] = ranks, vals
	}
	return rk
}

// newBinnedMatrix quantile-bins X into at most maxHistBins codes per
// feature. Features with few distinct values get one bin per value with
// midpoint edges, so low-cardinality columns bin losslessly.
func newBinnedMatrix(X [][]float64) *binnedMatrix {
	n := len(X)
	d := 0
	if n > 0 {
		d = len(X[0])
	}
	bm := &binnedMatrix{
		features: d,
		bins:     make([]int, d),
		off:      make([]int, d+1),
		codes:    make([][]uint8, d),
		edges:    make([][]float64, d),
	}
	vals := make([]float64, 0, n)
	for f := 0; f < d; f++ {
		vals = vals[:0]
		for _, row := range X {
			if v := row[f]; !math.IsNaN(v) {
				vals = append(vals, v)
			}
		}
		sort.Float64s(vals)
		edges := binEdges(vals)
		codes := make([]uint8, n)
		for r, row := range X {
			// NaN compares false against every edge and lands in the last
			// bin — the same side a NaN takes at predict time (x <= thr is
			// false), so binning and traversal agree on missing values.
			codes[r] = uint8(sort.SearchFloat64s(edges, row[f]))
		}
		bm.edges[f] = edges
		bm.codes[f] = codes
		bm.bins[f] = len(edges) + 1
		bm.off[f+1] = bm.off[f] + bm.bins[f]
	}
	return bm
}

// binEdges picks ascending split thresholds over sorted values. Every
// edge is the midpoint between two adjacent observed values — the same
// thresholds the exact sort-and-sweep proposes — either between all
// consecutive distinct values (when few) or between quantile cut values
// and their successors.
func binEdges(sorted []float64) []float64 {
	m := len(sorted)
	if m == 0 {
		return nil
	}
	distinct := 1
	for i := 1; i < m && distinct <= maxHistBins; i++ {
		if sorted[i] != sorted[i-1] {
			distinct++
		}
	}
	var edges []float64
	if distinct <= maxHistBins {
		for i := 1; i < m; i++ {
			if sorted[i] != sorted[i-1] {
				edges = append(edges, (sorted[i-1]+sorted[i])/2)
			}
		}
		return edges
	}
	prev := math.Inf(-1)
	for k := 1; k < maxHistBins; k++ {
		v := sorted[k*m/maxHistBins]
		if v <= prev {
			continue
		}
		// First value strictly greater than v; the midpoint separates
		// "<= v" from the rest exactly.
		j := sort.SearchFloat64s(sorted, v)
		for j < m && sorted[j] == v {
			j++
		}
		if j >= m {
			break
		}
		edges = append(edges, (v+sorted[j])/2)
		prev = v
	}
	return edges
}
