package ml

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// cmpVY is the reference comparator sortVY is pinned to: negative
// exactly when a.v < b.v (NaN is neither less nor greater than
// anything). slices.SortFunc consults only that "less" bit, so with it
// the standard library makes the comparisons and swaps sortVY copies.
func cmpVY(a, b vy) int {
	switch {
	case a.v < b.v:
		return -1
	case a.v > b.v:
		return 1
	}
	return 0
}

// sortPattern fills v with one of the input shapes pdqsort treats
// differently: random values with heavy ties and special floats, sorted,
// reversed, organ-pipe and sawtooth runs, all-equal, and few-unique.
func sortPattern(rng *rand.Rand, v []float64, pattern int) {
	n := len(v)
	switch pattern {
	case 0: // random, heavy ties, ±0, ±Inf, NaN
		for i := range v {
			v[i] = tieValue(rng)
		}
	case 1: // sorted, with runs of ties
		for i := range v {
			v[i] = float64(i / 3)
		}
	case 2: // reversed
		for i := range v {
			v[i] = float64(n - i)
		}
	case 3: // organ pipe
		for i := range v {
			v[i] = float64(min(i, n-1-i))
		}
	case 4: // sawtooth
		period := 2 + rng.Intn(40)
		for i := range v {
			v[i] = float64(i % period)
		}
	case 5: // all equal, signed zeros mixed in
		for i := range v {
			v[i] = math.Copysign(0, float64(rng.Intn(2)*2-1))
		}
	case 6: // few unique
		for i := range v {
			v[i] = float64(rng.Intn(3))
		}
	default: // nearly sorted: a sorted run with a few random swaps
		for i := range v {
			v[i] = float64(i)
		}
		for k := 0; k < 1+n/100 && n > 1; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			v[i], v[j] = v[j], v[i]
		}
	}
}

// TestSortVYMatchesSortFunc pins sortVY to slices.SortFunc with cmpVY on
// the full output — every value's bits and every pair's row — over sizes
// 0–3,000 and every input shape, each also with NaNs scattered in. The
// sizes cover insertion sort (≤ 12 elements), partitioning,
// partitionEqual, partialInsertionSort and breakPatterns. The heapsort
// fallback only runs after log2(n) badly unbalanced partitions, which
// none of these shapes produce; it is checked on its own below.
func TestSortVYMatchesSortFunc(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sizes := []int{100, 255, 256, 257, 1000, 2048, 3000}
	for n := 0; n <= 64; n++ {
		sizes = append(sizes, n)
	}
	for k := 0; k < 60; k++ {
		sizes = append(sizes, rng.Intn(3001))
	}
	const patterns = 8
	for _, n := range sizes {
		v := make([]float64, n)
		for pattern := 0; pattern < patterns; pattern++ {
			for _, nans := range []bool{false, true} {
				sortPattern(rng, v, pattern)
				if nans {
					for k := 0; k < 1+n/20 && n > 0; k++ {
						v[rng.Intn(n)] = math.NaN()
					}
				}
				got, want := make([]vy, n), make([]vy, n)
				for i, x := range v {
					got[i] = vy{x, float64(i)}
				}
				copy(want, got)
				sortVY(got)
				slices.SortFunc(want, cmpVY)
				for i := range got {
					if math.Float64bits(got[i].v) != math.Float64bits(want[i].v) || got[i].y != want[i].y {
						t.Fatalf("n=%d pattern=%d nans=%v: element %d is %v, slices.SortFunc has %v",
							n, pattern, nans, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestSortVYHeapsortFallback runs pdqsort with no bad-pivot budget left,
// so it goes straight to heapsort, and checks that the output is sorted
// and a permutation of the input.
func TestSortVYHeapsortFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{13, 50, 257, 3000} {
		for pattern := 1; pattern < 8; pattern++ {
			v := make([]float64, n)
			sortPattern(rng, v, pattern)
			data := make([]vy, n)
			for i, x := range v {
				data[i] = vy{x, float64(i)}
			}
			pdqsortVY(data, 0, n, 0)
			seen := make([]bool, n)
			for i, p := range data {
				row := int(p.y)
				if seen[row] || math.Float64bits(p.v) != math.Float64bits(v[row]) {
					t.Fatalf("n=%d pattern=%d: output is not a permutation of the input", n, pattern)
				}
				seen[row] = true
				if i > 0 && p.v < data[i-1].v {
					t.Fatalf("n=%d pattern=%d: element %d (%v) is below its predecessor (%v)", n, pattern, i, p.v, data[i-1].v)
				}
			}
		}
	}
}
