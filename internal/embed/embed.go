// Package embed implements the lightweight column-embedding machinery the
// paper uses to approximate expensive dependency discovery (Algorithm 1,
// lines 7-9): each column is summarized as a 300-dimensional vector built by
// feature hashing of its values; inclusion dependencies, similarities, and
// correlations are then estimated from vector arithmetic. The paper reports
// this yields "faster processing (a few seconds) with minor degradation in
// accuracy" compared to exact discovery.
package embed

import (
	"math"
	"sort"

	"catdb/internal/data"
)

// Dim is the embedding dimensionality used throughout (the paper's 300).
const Dim = 300

// Vector is a fixed-size column embedding.
type Vector [Dim]float64

// hash64 is FNV-1a over a string.
func hash64(s string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// Column builds the embedding of a column: every non-missing value is
// hashed into a bucket (with a signed contribution from a second hash), and
// the vector is L2-normalized. Numeric columns additionally mix in a coarse
// magnitude bucketing so that similarly-distributed columns land close.
func Column(c *data.Column) Vector {
	var v Vector
	n := c.Len()
	for i := 0; i < n; i++ {
		if c.IsMissing(i) {
			continue
		}
		var key string
		if c.Kind.IsNumeric() {
			// Bucket numeric values by order of magnitude and leading digit
			// so embeddings reflect the distribution, not exact values.
			key = numericBucket(c.Num(i))
		} else {
			key = c.Str(i)
		}
		h := hash64(key)
		idx := int(h % Dim)
		sign := 1.0
		if (h>>32)&1 == 1 {
			sign = -1
		}
		v[idx] += sign
	}
	v.normalize()
	return v
}

func numericBucket(x float64) string {
	if x == 0 {
		return "zero"
	}
	neg := ""
	if x < 0 {
		neg = "-"
		x = -x
	}
	mag := int(math.Floor(math.Log10(x)))
	lead := int(x / math.Pow(10, float64(mag)))
	return neg + string(rune('a'+((mag%20)+20)%20)) + string(rune('0'+lead%10))
}

func (v *Vector) normalize() {
	var norm float64
	for _, x := range v {
		norm += x * x
	}
	norm = math.Sqrt(norm)
	if norm == 0 {
		return
	}
	for i := range v {
		v[i] /= norm
	}
}

// Cosine returns the cosine similarity of two embeddings in [-1, 1].
func Cosine(a, b Vector) float64 {
	var dot float64
	for i := range a {
		dot += a[i] * b[i]
	}
	if dot > 1 {
		dot = 1
	}
	if dot < -1 {
		dot = -1
	}
	return dot
}

// InclusionScore estimates how strongly the value set of a is included in
// the value set of b (an approximate inclusion dependency): the fraction
// of a's distinct values present in b's. Both distinct sets come from the
// columns' memoized summaries, so pairwise loops no longer rebuild them
// per pair.
func InclusionScore(a, b *data.Column) float64 {
	return InclusionFromSummaries(a.Summary(), b.Summary())
}

// InclusionFromSummaries is InclusionScore over precomputed summaries; the
// profiler's O(m²) inclusion loop uses it directly. A column with no
// values scores 0 without rendering any distinct strings.
func InclusionFromSummaries(sa, sb *data.Summary) float64 {
	if sa.DistinctCount() == 0 {
		return 0
	}
	da := sa.Distinct()
	hit := 0
	for _, v := range da {
		if sb.Contains(v) {
			hit++
		}
	}
	return float64(hit) / float64(len(da))
}

// Correlation computes Pearson correlation for two numeric columns over
// rows where both are present; for non-numeric columns it falls back to
// embedding cosine similarity as the paper's approximate signal. Numeric
// columns of different lengths are compared over their overlapping prefix
// (rows past the shorter column carry no paired observation) instead of
// silently degrading to the embedding fallback.
func Correlation(a, b *data.Column) float64 {
	if a.Kind.IsNumeric() && b.Kind.IsNumeric() {
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
	return Cosine(Column(a), Column(b))
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
