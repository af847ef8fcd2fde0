package catalog

import (
	"strings"
	"testing"

	"catdb/internal/data"
	"catdb/internal/llm"
	"catdb/internal/profile"
)

func client(t *testing.T) llm.Client {
	t.Helper()
	c, err := llm.New("gemini-1.5-pro", 1)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// salaryTable mirrors the paper's Figure 1/5 running example.
func salaryTable(n int) *data.Table {
	exp := make([]string, n)
	gender := make([]string, n)
	skills := make([]string, n)
	addr := make([]string, n)
	konst := make([]string, n)
	sal := make([]float64, n)
	templates := []string{"about %s", "roughly %s or so", "reported as %s", "%s (confirmed)"}
	for i := 0; i < n; i++ {
		token := []string{"alpha", "bravo", "congo"}[i%3]
		exp[i] = strings.Replace(templates[i%4], "%s", token, 1)
		switch i % 3 {
		case 0:
			gender[i] = "Female"
			skills[i] = "java, sql"
			addr[i] = "7050 congo"
		case 1:
			gender[i] = "FEMALE"
			skills[i] = "python"
			addr[i] = "delta 7871"
		default:
			gender[i] = "Male"
			skills[i] = "cpp, java, sql"
			addr[i] = "congo 9000"
		}
		konst[i] = "v1"
		sal[i] = 100 + float64(i%3)*100
	}
	t := data.NewTable("salary")
	t.MustAddColumn(data.NewString("experience", exp))
	t.MustAddColumn(data.NewString("gender", gender))
	t.MustAddColumn(data.NewString("skills", skills))
	t.MustAddColumn(data.NewString("address", addr))
	t.MustAddColumn(data.NewString("firmware", konst))
	t.MustAddColumn(data.NewNumeric("salary", sal))
	return t
}

func TestRefineSalaryExample(t *testing.T) {
	res, err := Refine(salaryTable(300), "salary", data.Regression, client(t), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Sentence: experience reduced to 3 category tokens.
	up := res.UpdateFor("experience")
	if up == nil || up.Kind != UpdateSentence {
		t.Fatalf("experience update = %+v", up)
	}
	if up.RefinedDistinct != 3 || up.OriginalDistinct <= 3 {
		t.Fatalf("experience distinct %d -> %d", up.OriginalDistinct, up.RefinedDistinct)
	}
	// Dedup: gender Female variants collapse to 2 categories.
	gup := res.UpdateFor("gender")
	if gup == nil || gup.Kind != UpdateDedup || gup.RefinedDistinct != 2 {
		t.Fatalf("gender update = %+v", gup)
	}
	// List: skills k-hot into item columns.
	sup := res.UpdateFor("skills")
	if sup == nil || sup.Kind != UpdateList {
		t.Fatalf("skills update = %+v", sup)
	}
	if len(sup.NewColumns) != 4 { // java sql python cpp
		t.Fatalf("skills items = %v", sup.NewColumns)
	}
	// Composite: address split into part + code.
	aup := res.UpdateFor("address")
	if aup == nil || aup.Kind != UpdateComposite {
		t.Fatalf("address update = %+v", aup)
	}
	if res.Table.Col("address_part") == nil || res.Table.Col("address_code") == nil {
		t.Fatalf("split columns missing: %v", res.Table.ColumnNames())
	}
	// Constant firmware dropped.
	if res.Table.Col("firmware") != nil {
		t.Fatal("constant column must be dropped")
	}
	if res.UpdateFor("firmware").Kind != UpdateDropConstant {
		t.Fatal("drop-constant update missing")
	}
	if res.Elapsed <= 0 {
		t.Fatal("elapsed not recorded")
	}
	// The refined table profiles with the new columns.
	if profileOf(t, res.Table).Column("address_part") == nil {
		t.Fatal("refined profile incomplete")
	}
}

// profileOf profiles a refined salary table as refinement profiles its
// input.
func profileOf(t *testing.T, tb *data.Table) *profile.Profile {
	t.Helper()
	p, err := profile.Table(tb, "salary", data.Regression, profile.Options{Samples: typeSamples, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRefineDirtyTarget(t *testing.T) {
	n := 300
	x := make([]float64, n)
	y := make([]string, n)
	for i := 0; i < n; i++ {
		x[i] = float64(i % 5)
		base := []string{"engineer", "manager", "analyst"}[i%3]
		y[i] = []string{base, strings.ToUpper(base), " " + base, base + " "}[i%4]
	}
	tb := data.NewTable("euit")
	tb.MustAddColumn(data.NewNumeric("x", x))
	tb.MustAddColumn(data.NewString("role", y))
	res, err := Refine(tb, "role", data.Multiclass, client(t), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Table.Col("role").DistinctCount(); got != 3 {
		t.Fatalf("refined target distinct = %d, want 3", got)
	}
	up := res.UpdateFor("role")
	if up == nil || up.Kind != UpdateDedup {
		t.Fatal("target dedup update missing")
	}
}

func TestRefineDataset(t *testing.T) {
	ds, err := data.Load("Utility", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RefineDataset(ds, client(t), Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Updates) == 0 {
		t.Fatal("Utility should get refinements (dirty meter_class)")
	}
	// meter_class distinct count must shrink (Table 4 shape).
	up := res.UpdateFor("meter_class")
	if up == nil || up.RefinedDistinct >= up.OriginalDistinct {
		t.Fatalf("meter_class update = %+v", up)
	}
}

func TestRefineNumericOnlyNoop(t *testing.T) {
	tb := data.NewTable("num")
	tb.MustAddColumn(data.NewNumeric("a", []float64{1, 2, 3, 4}))
	tb.MustAddColumn(data.NewNumeric("y", []float64{1, 2, 3, 4}))
	res, err := Refine(tb, "y", data.Regression, client(t), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Updates) != 0 {
		t.Fatalf("numeric table should need no refinement: %+v", res.Updates)
	}
	if res.Table.NumCols() != 2 {
		t.Fatal("columns altered")
	}
}

func TestRefineIsIdempotent(t *testing.T) {
	res1, err := Refine(salaryTable(300), "salary", data.Regression, client(t), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Refine(res1.Table, "salary", data.Regression, client(t), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A second refinement pass should change (almost) nothing: no new
	// structural updates.
	for _, up := range res2.Updates {
		if up.Kind == UpdateList || up.Kind == UpdateComposite || up.Kind == UpdateDedup {
			t.Fatalf("second pass should be clean, got %+v", up)
		}
	}
}

func TestRefineRecordsProfileTypes(t *testing.T) {
	res, err := Refine(salaryTable(300), "salary", data.Regression, client(t), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ft := profileOf(t, res.Table).Column("experience").FeatureType; ft != profile.FeatureCategorical {
		t.Fatalf("refined experience type = %s", ft)
	}
}

// Refinement profiles its input once and never its output: with a cache
// attached, one Refine makes exactly one lookup.
func TestRefineProfilesOnce(t *testing.T) {
	cache := profile.NewCache()
	if _, err := Refine(salaryTable(300), "salary", data.Regression, client(t), Options{Seed: 1, Cache: cache}); err != nil {
		t.Fatal(err)
	}
	if hits, misses := cache.Stats(); hits+misses != 1 {
		t.Fatalf("profile cache lookups = %d hits + %d misses, want 1", hits, misses)
	}
}
