// Package embed holds the column-association measures behind the
// correlations of Algorithm 1 (lines 7-9): Pearson correlation between
// numeric columns and Cramér's V between a column and a categorical or
// binned numeric target. The profiler scores each column against the
// target with them (TargetCorr), and PipeScript's select_topk ranks
// columns by them. The paper derives its pairwise metadata from
// 300-dimensional column embeddings; this package builds none, and the
// similarities and inclusion dependencies of those lines are not
// computed, because no prompt, rule or experiment reads them.
package embed

import (
	"math"
	"sort"

	"catdb/internal/data"
)

// Correlation computes the Pearson correlation of two numeric columns
// over rows where both are present; callers send other pairs to
// CramersV. Columns of different lengths are compared over their
// overlapping prefix (rows past the shorter column carry no paired
// observation).
func Correlation(a, b *data.Column) float64 {
	rows := a.Len()
	if b.Len() < rows {
		rows = b.Len()
	}
	var n float64
	var sa, sb, saa, sbb, sab float64
	for i := 0; i < rows; i++ {
		if a.IsMissing(i) || b.IsMissing(i) {
			continue
		}
		x, y := a.Num(i), b.Num(i)
		n++
		sa += x
		sb += y
		saa += x * x
		sbb += y * y
		sab += x * y
	}
	if n < 2 {
		return 0
	}
	cov := sab/n - (sa/n)*(sb/n)
	va := saa/n - (sa/n)*(sa/n)
	vb := sbb/n - (sb/n)*(sb/n)
	if va <= 0 || vb <= 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

// CramersV estimates association between a categorical column and a
// (categorical or binned numeric) target, used by rule generation to find
// features "highly correlated with the target".
func CramersV(a, target *data.Column) float64 {
	n := a.Len()
	if n == 0 || target.Len() != n {
		return 0
	}
	statA, statT := a.NumericStats(), target.NumericStats()
	binCell := func(c *data.Column, st data.Stats, i int) (string, bool) {
		if c.IsMissing(i) {
			return "", false
		}
		if c.Kind.IsNumeric() {
			span := st.Max - st.Min
			if span == 0 {
				return "0", true
			}
			b := int((c.Num(i) - st.Min) / span * 7.999)
			return string(rune('0' + b)), true
		}
		return c.Str(i), true
	}
	counts := map[[2]string]float64{}
	rowTot := map[string]float64{}
	colTot := map[string]float64{}
	var total float64
	for i := 0; i < n; i++ {
		av, ok1 := binCell(a, statA, i)
		tv, ok2 := binCell(target, statT, i)
		if !ok1 || !ok2 {
			continue
		}
		counts[[2]string{av, tv}]++
		rowTot[av]++
		colTot[tv]++
		total++
	}
	if total == 0 || len(rowTot) < 2 || len(colTot) < 2 {
		return 0
	}
	// Chi-squared over the full contingency grid, including cells with zero
	// observations (their contribution is the expected count itself). The
	// grid is walked in sorted key order: floating-point accumulation then
	// has a fixed association order, so the statistic is bit-reproducible
	// run to run (map iteration order is not), which the profiler's
	// parallel-vs-serial and cache-on/off identity guarantees rely on.
	rowKeys := sortedKeys(rowTot)
	colKeys := sortedKeys(colTot)
	var chi2 float64
	for _, rv := range rowKeys {
		for _, cv := range colKeys {
			exp := rowTot[rv] * colTot[cv] / total
			if exp == 0 {
				continue
			}
			d := counts[[2]string{rv, cv}] - exp
			chi2 += d * d / exp
		}
	}
	minDim := float64(len(rowTot) - 1)
	if c := float64(len(colTot) - 1); c < minDim {
		minDim = c
	}
	if minDim <= 0 {
		return 0
	}
	return math.Sqrt(chi2 / (total * minDim))
}

func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
