package profile

import (
	"testing"

	"catdb/internal/data"
)

func salaryLikeTable() *data.Table {
	n := 300
	exp := make([]string, n)
	gender := make([]string, n)
	skills := make([]string, n)
	addr := make([]string, n)
	sal := make([]float64, n)
	id := make([]float64, n)
	konst := make([]string, n)
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0:
			exp[i] = "1 year"
			gender[i] = "Female"
			skills[i] = "Java, SQL"
			addr[i] = "7050 CA"
		case 1:
			exp[i] = "two years or so"
			gender[i] = "F"
			skills[i] = "Python"
			addr[i] = "TX 7871"
		default:
			exp[i] = "about 3 years"
			gender[i] = "Male"
			skills[i] = "C++, Java, SQL"
			addr[i] = "CA 9000"
		}
		sal[i] = 100 + float64(i%3)*100
		id[i] = float64(i)
		konst[i] = "k"
	}
	t := data.NewTable("salary")
	t.MustAddColumn(data.NewString("experience", exp))
	t.MustAddColumn(data.NewString("gender", gender))
	t.MustAddColumn(data.NewString("skills", skills))
	t.MustAddColumn(data.NewString("address", addr))
	t.MustAddColumn(data.NewInt("emp_id", id))
	t.MustAddColumn(data.NewString("firmware", konst))
	t.MustAddColumn(data.NewNumeric("salary", sal))
	return t
}

func TestProfileBasics(t *testing.T) {
	tb := salaryLikeTable()
	p, err := Table(tb, "salary", data.Regression, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p.Rows != 300 || len(p.Columns) != 7 {
		t.Fatalf("profile shape: rows=%d cols=%d", p.Rows, len(p.Columns))
	}
	if p.Column("salary") == nil || !p.Column("salary").IsTarget {
		t.Fatal("target flag not set")
	}
	if p.Elapsed <= 0 {
		t.Fatal("elapsed not measured")
	}
}

func TestFeatureTypeGuesses(t *testing.T) {
	tb := salaryLikeTable()
	p, _ := Table(tb, "salary", data.Regression, Options{Seed: 1})
	cases := map[string]FeatureType{
		"gender":   FeatureCategorical,
		"skills":   FeatureCategorical, // few distinct joined strings here
		"emp_id":   FeatureID,
		"firmware": FeatureConstant,
	}
	for col, want := range cases {
		if got := p.Column(col).FeatureType; got != want {
			t.Errorf("%s: feature type = %s, want %s", col, got, want)
		}
	}
}

func TestFeatureTypeListAndSentence(t *testing.T) {
	n := 200
	lst := make([]string, n)
	sent := make([]string, n)
	for i := 0; i < n; i++ {
		lst[i] = "item" + string(rune('a'+i%26)) + ", item" + string(rune('a'+(i*7)%26)) + ", x" + string(rune('a'+(i*3)%26))
		sent[i] = "this is note number " + string(rune('a'+i%26)) + string(rune('a'+(i*11)%26)) + string(rune('a'+(i*5)%26))
	}
	tb := data.NewTable("t")
	tb.MustAddColumn(data.NewString("tags", lst))
	tb.MustAddColumn(data.NewString("note", sent))
	tb.MustAddColumn(data.NewNumeric("y", make([]float64, n)))
	p, _ := Table(tb, "y", data.Regression, Options{CategoricalMaxDistinct: 10, Seed: 1})
	if got := p.Column("tags").FeatureType; got != FeatureList {
		t.Errorf("tags = %s, want list", got)
	}
	if got := p.Column("note").FeatureType; got != FeatureSentence {
		t.Errorf("note = %s, want sentence", got)
	}
}

func TestDistinctAndMissingPct(t *testing.T) {
	tb := data.NewTable("t")
	c := data.NewString("c", []string{"a", "a", "b", "b"})
	c.SetMissing(3)
	tb.MustAddColumn(c)
	tb.MustAddColumn(data.NewNumeric("y", []float64{1, 2, 3, 4}))
	p, _ := Table(tb, "y", data.Regression, Options{Seed: 1})
	cp := p.Column("c")
	if cp.MissingPct != 25 {
		t.Fatalf("missing pct = %g", cp.MissingPct)
	}
	if cp.DistinctCount != 2 {
		t.Fatalf("distinct = %d", cp.DistinctCount)
	}
}

func TestSamplesBounded(t *testing.T) {
	tb := salaryLikeTable()
	p, _ := Table(tb, "salary", data.Regression, Options{Samples: 5, Seed: 1})
	for _, c := range p.Columns {
		if len(c.Samples) > 5 {
			t.Fatalf("column %s has %d samples", c.Name, len(c.Samples))
		}
	}
}

func TestTargetCorrelationSignal(t *testing.T) {
	n := 500
	x := make([]float64, n)
	y := make([]float64, n)
	noise := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = float64(i)
		y[i] = float64(i) * 2
		noise[i] = float64((i*2654435761)%1000) / 1000
	}
	tb := data.NewTable("t")
	tb.MustAddColumn(data.NewNumeric("x", x))
	tb.MustAddColumn(data.NewNumeric("noise", noise))
	tb.MustAddColumn(data.NewNumeric("y", y))
	p, _ := Table(tb, "y", data.Regression, Options{Seed: 1})
	if p.Column("x").TargetCorr < 0.9 {
		t.Fatalf("x corr = %g", p.Column("x").TargetCorr)
	}
	if p.Column("noise").TargetCorr > 0.5 {
		t.Fatalf("noise corr = %g", p.Column("noise").TargetCorr)
	}
}

func TestProfileDataset(t *testing.T) {
	ds, err := data.Load("Financial", 0.03)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Dataset(ds, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p.Dataset != "Financial" {
		t.Fatal("dataset name lost")
	}
	// Consolidated profile must include joined dimension columns.
	found := false
	for _, c := range p.Columns {
		if len(c.Name) > 4 && c.Name[:4] == "Fina" {
			found = true
		}
	}
	if !found {
		t.Log("columns:", len(p.Columns))
	}
	if len(p.Columns) <= ds.PrimaryTable().NumCols() {
		t.Fatalf("profile cols = %d, want > primary table cols %d", len(p.Columns), ds.PrimaryTable().NumCols())
	}
}

func TestProfileEmptyTable(t *testing.T) {
	if _, err := Table(data.NewTable("e"), "y", data.Binary, Options{}); err == nil {
		t.Fatal("empty table must error")
	}
}

func TestTypeCensus(t *testing.T) {
	tb := salaryLikeTable()
	p, _ := Table(tb, "salary", data.Regression, Options{Seed: 1})
	census := TypeCensus([]*Profile{p})
	total := 0
	for _, n := range census {
		total += n
	}
	if total != 6 { // 7 columns minus target
		t.Fatalf("census total = %d, want 6", total)
	}
	if census[FeatureConstant] != 1 {
		t.Fatalf("constant census = %d", census[FeatureConstant])
	}
}

func TestFeatureTypeStrings(t *testing.T) {
	for ft, want := range map[FeatureType]string{
		FeatureNumerical: "numerical", FeatureCategorical: "categorical",
		FeatureList: "list", FeatureSentence: "sentence",
		FeatureConstant: "constant", FeatureID: "id",
		FeatureBoolean: "boolean", FeatureUnknown: "unknown",
	} {
		if ft.String() != want {
			t.Errorf("%d.String() = %q", ft, ft.String())
		}
	}
}
