package errkb

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"catdb/internal/pipescript"
)

func TestClassifySyntax(t *testing.T) {
	_, err := pipescript.Parse("pipeline \"x\"\nfrobnicate\n")
	c := Classify(err)
	if c.Category != CategorySE || c.Type != "InvalidKeyword" || c.Code != "E_SYNTAX" {
		t.Fatalf("classified = %+v", c)
	}
	if c.Line != 2 {
		t.Fatalf("line = %d", c.Line)
	}
	_, err = pipescript.Parse("pipeline \"x\ntrain\n")
	if got := Classify(err); got.Type != "UnterminatedString" {
		t.Fatalf("unterminated: %+v", got)
	}
}

func TestClassifyRuntime(t *testing.T) {
	cases := []struct {
		code     string
		category Category
		typ      string
	}{
		{pipescript.ErrPkgMissing, CategoryKB, "ModuleNotFoundError"},
		{pipescript.ErrUnknownColumn, CategoryRE, "KeyError"},
		{pipescript.ErrStringInMatrix, CategoryRE, "ValueError"},
		{pipescript.ErrNaNInMatrix, CategoryRE, "NaNError"},
		{pipescript.ErrModelOOM, CategoryRE, "MemoryError"},
		{pipescript.ErrTooManyFeatures, CategoryRE, "FeatureExplosionError"},
		{pipescript.ErrNoTrainStmt, CategoryRE, "NoTrainError"},
		{pipescript.ErrOpPanic, CategoryRE, "ValueError"},
	}
	for _, tc := range cases {
		err := &pipescript.RuntimeError{Line: 3, Code: tc.code, Msg: "m"}
		c := Classify(err)
		if c.Category != tc.category || c.Type != tc.typ {
			t.Errorf("%s: got %s/%s", tc.code, c.Category, c.Type)
		}
	}
	// Unknown errors default to RE/ValueError.
	c := Classify(errors.New("weird"))
	if c.Category != CategoryRE || c.Type != "ValueError" {
		t.Fatalf("fallback: %+v", c)
	}
}

func TestTaxonomyHas23Types(t *testing.T) {
	if len(AllErrorTypes) != 23 {
		t.Fatalf("taxonomy has %d types, want 23", len(AllErrorTypes))
	}
	seen := map[string]bool{}
	for _, typ := range AllErrorTypes {
		if seen[typ] {
			t.Fatalf("duplicate type %s", typ)
		}
		seen[typ] = true
	}
}

func TestKBPatchPkgMissing(t *testing.T) {
	kb := NewKnowledgeBase()
	src := "pipeline \"x\"\nrequire xgboost\nrequire tabular\ntrain model=knn target=\"y\"\n"
	c := Classified{Category: CategoryKB, Code: pipescript.ErrPkgMissing, Line: 2}
	if !kb.CanPatch(c) {
		t.Fatal("KB must patch package errors")
	}
	out, err := kb.Patch(src, c)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "xgboost") {
		t.Fatal("phantom require must be removed")
	}
	if !strings.Contains(out, "require tabular") {
		t.Fatal("valid require must survive")
	}
	if _, err := pipescript.Parse(out); err != nil {
		t.Fatalf("patched source must parse: %v", err)
	}
}

func TestKBPatchProse(t *testing.T) {
	kb := NewKnowledgeBase()
	src := "pipeline \"x\"\nHere is the pipeline:\ntrain model=knn target=\"y\"\n"
	_, perr := pipescript.Parse(src)
	c := Classify(perr)
	if !kb.CanPatch(c) {
		t.Fatal("KB should strip prose locally")
	}
	out, err := kb.Patch(src, c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipescript.Parse(out); err != nil {
		t.Fatalf("patched source must parse: %v\n%s", err, out)
	}
}

func TestKBPatchUnterminatedString(t *testing.T) {
	kb := NewKnowledgeBase()
	src := "pipeline \"x\ntrain model=knn target=\"y\"\n"
	_, perr := pipescript.Parse(src)
	c := Classify(perr)
	out, err := kb.Patch(src, c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipescript.Parse(out); err != nil {
		t.Fatalf("quote patch failed: %v\n%s", err, out)
	}
}

func TestKBRefusesRuntime(t *testing.T) {
	kb := NewKnowledgeBase()
	c := Classified{Category: CategoryRE, Type: "NaNError", Code: pipescript.ErrNaNInMatrix}
	if kb.CanPatch(c) {
		t.Fatal("runtime errors need the LLM, not the KB")
	}
	if _, err := kb.Patch("x", c); err == nil {
		t.Fatal("Patch must refuse runtime errors")
	}
}

func TestTraceStoreDistribution(t *testing.T) {
	s := NewTraceStore()
	for i := 0; i < 80; i++ {
		s.Add(Trace{Model: "llama3.1-70b", Category: "RE", Type: "NaNError"})
	}
	for i := 0; i < 15; i++ {
		s.Add(Trace{Model: "llama3.1-70b", Category: "KB", Type: "ModuleNotFoundError"})
	}
	for i := 0; i < 5; i++ {
		s.Add(Trace{Model: "llama3.1-70b", Category: "SE", Type: "SyntaxError"})
	}
	s.Add(Trace{Model: "gemini-1.5-pro", Category: "RE", Type: "KeyError"})
	dist := s.DistributionByModel()
	if len(dist) != 2 {
		t.Fatalf("models = %d", len(dist))
	}
	var llama Distribution
	for _, d := range dist {
		if d.Model == "llama3.1-70b" {
			llama = d
		}
	}
	if llama.TotalRequests != 100 || llama.REPct != 80 || llama.KBPct != 15 || llama.SEPct != 5 {
		t.Fatalf("llama dist = %+v", llama)
	}
	hist := s.TypeHistogram()
	if hist["NaNError"] != 80 {
		t.Fatalf("histogram = %v", hist)
	}
}

func TestTraceStorePersistence(t *testing.T) {
	s := NewTraceStore()
	s.Add(Trace{Model: "gpt-4o", Dataset: "Wifi", Category: "SE", Type: "SyntaxError", Attempt: 1, Fixed: true, FixedBy: "kb"})
	path := filepath.Join(t.TempDir(), "traces.json")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadTraces(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 1 || back.Traces[0].Dataset != "Wifi" || !back.Traces[0].Fixed {
		t.Fatalf("round trip: %+v", back.Traces)
	}
	if _, err := LoadTraces(filepath.Join(t.TempDir(), "none.json")); err == nil {
		t.Fatal("missing file must error")
	}
}

func TestCategoryString(t *testing.T) {
	if CategoryKB.String() != "KB" || CategorySE.String() != "SE" || CategoryRE.String() != "RE" {
		t.Fatal("category names")
	}
}
