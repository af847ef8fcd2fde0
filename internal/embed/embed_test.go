package embed

import (
	"math"
	"math/rand"
	"testing"

	"catdb/internal/data"
)

func TestCorrelationNumeric(t *testing.T) {
	n := 200
	x := make([]float64, n)
	y := make([]float64, n)
	z := make([]float64, n)
	rng := rand.New(rand.NewSource(1))
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = 2*x[i] + 0.1*rng.NormFloat64()
		z[i] = rng.NormFloat64()
	}
	cx := data.NewNumeric("x", x)
	cy := data.NewNumeric("y", y)
	cz := data.NewNumeric("z", z)
	if got := Correlation(cx, cy); got < 0.95 {
		t.Fatalf("correlated cols corr = %g, want > 0.95", got)
	}
	if got := math.Abs(Correlation(cx, cz)); got > 0.3 {
		t.Fatalf("independent cols corr = %g, want ≈0", got)
	}
}

func TestCorrelationHandlesMissing(t *testing.T) {
	a := data.NewNumeric("a", []float64{1, 2, 3, 4})
	b := data.NewNumeric("b", []float64{1, 2, 3, 4})
	a.SetMissing(0)
	if got := Correlation(a, b); got < 0.99 {
		t.Fatalf("corr with missing = %g", got)
	}
	tiny := data.NewNumeric("t", []float64{1})
	if Correlation(tiny, tiny) != 1 && Correlation(tiny, tiny) != 0 {
		t.Fatal("tiny column should not NaN")
	}
}

func TestCorrelationConstantColumn(t *testing.T) {
	a := data.NewNumeric("a", []float64{5, 5, 5})
	b := data.NewNumeric("b", []float64{1, 2, 3})
	if got := Correlation(a, b); got != 0 {
		t.Fatalf("constant col corr = %g, want 0", got)
	}
}

func TestCramersVAssociation(t *testing.T) {
	n := 600
	feat := make([]string, n)
	tgt := make([]string, n)
	noise := make([]string, n)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < n; i++ {
		k := i % 3
		feat[i] = string(rune('a' + k))
		tgt[i] = string(rune('x' + k)) // perfect association
		noise[i] = string(rune('a' + rng.Intn(3)))
	}
	cf := data.NewString("f", feat)
	ct := data.NewString("t", tgt)
	cn := data.NewString("n", noise)
	strong := CramersV(cf, ct)
	weak := CramersV(cn, ct)
	if strong < 0.9 {
		t.Fatalf("perfect association V = %g, want ≈1", strong)
	}
	if weak > 0.3 {
		t.Fatalf("noise association V = %g, want ≈0", weak)
	}
}

func TestCramersVNumericBinning(t *testing.T) {
	n := 400
	x := make([]float64, n)
	y := make([]string, n)
	for i := 0; i < n; i++ {
		x[i] = float64(i)
		if i < n/2 {
			y[i] = "low"
		} else {
			y[i] = "high"
		}
	}
	v := CramersV(data.NewNumeric("x", x), data.NewString("y", y))
	if v < 0.8 {
		t.Fatalf("binned numeric association = %g, want high", v)
	}
}

func TestCramersVDegenerate(t *testing.T) {
	a := data.NewString("a", []string{"x", "x"})
	b := data.NewString("b", []string{"p", "q"})
	if CramersV(a, b) != 0 {
		t.Fatal("single-level feature must give 0")
	}
	if CramersV(data.NewString("e", nil), data.NewString("f", nil)) != 0 {
		t.Fatal("empty must give 0")
	}
}

// Numeric columns of unequal length get a Pearson score over their
// overlapping prefix.
func TestCorrelationLengthMismatch(t *testing.T) {
	a := data.NewNumeric("a", []float64{1, 2, 3, 4, 5, 6})
	b := data.NewNumeric("b", []float64{2, 4, 6, 8}) // perfectly linear on the overlap
	got := Correlation(a, b)
	if math.Abs(got-1) > 1e-12 {
		t.Fatalf("Correlation over overlapping prefix = %g, want 1", got)
	}
	if got2 := Correlation(b, a); math.Abs(got2-got) > 1e-12 {
		t.Fatalf("length-mismatch correlation must be symmetric: %g vs %g", got2, got)
	}
	// Anti-correlated overlap.
	c := data.NewNumeric("c", []float64{6, 4, 2})
	if got := Correlation(a, c); math.Abs(got+1) > 1e-12 {
		t.Fatalf("anti-correlated prefix = %g, want -1", got)
	}
}
