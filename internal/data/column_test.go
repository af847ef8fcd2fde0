package data

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{KindString: "string", KindInt: "int", KindFloat: "float", KindBool: "bool"}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
	if Kind(99).String() != "kind(99)" {
		t.Errorf("unknown kind formatting broken")
	}
}

func TestKindIsNumeric(t *testing.T) {
	if KindString.IsNumeric() {
		t.Error("string must not be numeric")
	}
	for _, k := range []Kind{KindInt, KindFloat, KindBool} {
		if !k.IsNumeric() {
			t.Errorf("%s must be numeric", k)
		}
	}
}

func TestColumnMissing(t *testing.T) {
	c := NewNumeric("x", []float64{1, 2, 3, 4})
	c.SetMissing(1)
	c.SetMissing(3)
	if got := c.MissingCount(); got != 2 {
		t.Fatalf("MissingCount = %d, want 2", got)
	}
	if got := c.MissingRatio(); got != 0.5 {
		t.Fatalf("MissingRatio = %g, want 0.5", got)
	}
	if !c.IsMissing(1) || c.IsMissing(0) {
		t.Fatal("IsMissing flags wrong")
	}
	if c.Num(1) != 0 {
		t.Fatal("SetMissing must zero the slot")
	}
	if c.ValueString(1) != "" {
		t.Fatal("missing cell must render empty")
	}
}

func TestColumnValueString(t *testing.T) {
	if got := NewInt("i", []float64{42}).ValueString(0); got != "42" {
		t.Errorf("int render = %q", got)
	}
	if got := NewBool("b", []bool{true}).ValueString(0); got != "true" {
		t.Errorf("bool render = %q", got)
	}
	if got := NewNumeric("f", []float64{2.5}).ValueString(0); got != "2.5" {
		t.Errorf("float render = %q", got)
	}
	if got := NewString("s", []string{"hi"}).ValueString(0); got != "hi" {
		t.Errorf("string render = %q", got)
	}
}

func TestDistinct(t *testing.T) {
	c := NewString("s", []string{"b", "a", "b", "c", "a"})
	d := c.Distinct()
	want := []string{"a", "b", "c"}
	if len(d) != len(want) {
		t.Fatalf("Distinct = %v", d)
	}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("Distinct = %v, want %v", d, want)
		}
	}
	if c.DistinctCount() != 3 {
		t.Fatal("DistinctCount wrong")
	}
	if got := c.DistinctRatio(); math.Abs(got-0.6) > 1e-12 {
		t.Fatalf("DistinctRatio = %g, want 0.6", got)
	}
}

func TestNumericStats(t *testing.T) {
	c := NewNumeric("x", []float64{1, 2, 3, 4, 100})
	c.SetMissing(4) // exclude the 100
	s := c.NumericStats()
	if s.Count != 4 || s.Min != 1 || s.Max != 4 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Mean != 2.5 || s.Median != 2.5 {
		t.Fatalf("mean/median = %g/%g", s.Mean, s.Median)
	}
	odd := NewNumeric("y", []float64{5, 1, 3})
	if got := odd.NumericStats().Median; got != 3 {
		t.Fatalf("odd median = %g, want 3", got)
	}
	if got := NewString("s", []string{"a"}).NumericStats(); got.Count != 0 {
		t.Fatal("string stats must be zero")
	}
}

func TestQuantile(t *testing.T) {
	c := NewNumeric("x", []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if got := c.Quantile(0.5); got != 5 {
		t.Fatalf("median quantile = %g", got)
	}
	if got := c.Quantile(0); got != 0 {
		t.Fatalf("q0 = %g", got)
	}
	if got := c.Quantile(1); got != 10 {
		t.Fatalf("q1 = %g", got)
	}
	if got := c.Quantile(0.25); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("q0.25 = %g, want 2.5", got)
	}
	if !math.IsNaN(NewString("s", []string{"a"}).Quantile(0.5)) {
		t.Fatal("string quantile must be NaN")
	}
}

func TestCloneIndependence(t *testing.T) {
	c := NewNumeric("x", []float64{1, 2})
	cp := c.Clone()
	cp.SetNum(0, 99)
	cp.SetMissing(1)
	if c.Num(0) != 1 || c.IsMissing(1) {
		t.Fatal("clone mutation leaked into the original")
	}
	if cp.Num(0) != 99 || !cp.IsMissing(1) {
		t.Fatal("clone lost its own mutations")
	}
	// And the reverse direction: mutating the original must not show
	// through an untouched clone.
	cp2 := c.Clone()
	c.SetNum(1, -5)
	if cp2.Num(1) == -5 {
		t.Fatal("original mutation leaked into the clone")
	}
}

func TestSelect(t *testing.T) {
	c := NewString("s", []string{"a", "b", "c", "d"})
	c.SetMissing(2)
	sel := c.Select([]int{3, 2, 0})
	if sel.Str(0) != "d" || sel.Str(2) != "a" {
		t.Fatalf("Select values wrong: %v", sel.StrsView())
	}
	if !sel.IsMissing(1) {
		t.Fatal("Select must carry missing mask")
	}
}

func TestAppendFromAndMissing(t *testing.T) {
	src := NewNumeric("x", []float64{7, 8})
	src.SetMissing(1)
	dst := NewNumeric("x", nil)
	dst.AppendFrom(src, 0)
	dst.AppendFrom(src, 1)
	dst.AppendMissing()
	if dst.Len() != 3 || dst.Num(0) != 7 {
		t.Fatalf("append result: %+v", dst)
	}
	if !dst.IsMissing(1) || !dst.IsMissing(2) {
		t.Fatal("missing propagation broken")
	}
}

func TestIsConstant(t *testing.T) {
	c := NewString("s", []string{"x", "x", "x"})
	if !c.IsConstant() {
		t.Fatal("constant column not detected")
	}
	c.SetStr(1, "y") // setter invalidates the memoized summary automatically
	if c.IsConstant() {
		t.Fatal("non-constant reported constant")
	}
	empty := NewString("e", nil)
	if empty.IsConstant() {
		t.Fatal("empty column must not be constant")
	}
	allMissing := NewString("m", []string{"a"})
	allMissing.SetMissing(0)
	if allMissing.IsConstant() {
		t.Fatal("all-missing column must not be constant")
	}
}

func TestInferKind(t *testing.T) {
	cases := []struct {
		vals []string
		want Kind
	}{
		{[]string{"1", "2", ""}, KindInt},
		{[]string{"1.5", "2"}, KindFloat},
		{[]string{"true", "FALSE"}, KindBool},
		{[]string{"1", "x"}, KindString},
		{[]string{"", ""}, KindString},
		{[]string{" +1 ", "-0", "007"}, KindInt},
		{[]string{"1", "9223372036854775808"}, KindFloat}, // past int64
		{[]string{"1", "inf", "NaN"}, KindFloat},
		{[]string{"true", "1"}, KindString},
		{[]string{"1", "true"}, KindString},
		{[]string{"TRUE", " false "}, KindBool},
		{[]string{"true", "falſe"}, KindString}, // ToLower, not case folding
	}
	for _, tc := range cases {
		if got := InferKind(tc.vals); got != tc.want {
			t.Errorf("InferKind(%v) = %s, want %s", tc.vals, got, tc.want)
		}
	}
}

func TestParseColumn(t *testing.T) {
	c := ParseColumn("x", KindFloat, []string{"1.5", "", "bogus", "3"})
	if c.Num(0) != 1.5 || c.Num(3) != 3 {
		t.Fatalf("parsed: %v", c.NumsView())
	}
	if !c.IsMissing(1) || !c.IsMissing(2) {
		t.Fatal("empty/bogus must be missing")
	}
	b := ParseColumn("b", KindBool, []string{"true", "false", "TRUE"})
	if b.Num(0) != 1 || b.Num(1) != 0 || b.Num(2) != 1 {
		t.Fatalf("bool parse: %v", b.NumsView())
	}
	s := ParseColumn("s", KindString, []string{"a", " "})
	if s.Str(0) != "a" || !s.IsMissing(1) {
		t.Fatal("string parse broken")
	}
}

// Property: quantile is monotone in q for any numeric column.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(vals []float64, a, b float64) bool {
		if len(vals) == 0 {
			return true
		}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		qa, qb := math.Abs(math.Mod(a, 1)), math.Abs(math.Mod(b, 1))
		if qa > qb {
			qa, qb = qb, qa
		}
		c := NewNumeric("x", vals)
		return c.Quantile(qa) <= c.Quantile(qb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Select(identity permutation) preserves values and mask.
func TestSelectIdentityProperty(t *testing.T) {
	f := func(vals []float64) bool {
		c := NewNumeric("x", vals)
		for i := range vals {
			if i%3 == 0 {
				c.SetMissing(i)
			}
		}
		rows := make([]int, len(vals))
		for i := range rows {
			rows[i] = i
		}
		sel := c.Select(rows)
		for i := range vals {
			if sel.IsMissing(i) != c.IsMissing(i) {
				return false
			}
			if !c.IsMissing(i) && sel.Num(i) != c.Num(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
