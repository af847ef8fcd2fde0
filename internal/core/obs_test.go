package core

import (
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"catdb/internal/errkb"
	"catdb/internal/llm"
	"catdb/internal/obs"
	"catdb/internal/obs/opsserver"
)

// TestTracedRunBitIdentical pins the observability contract: attaching a
// tracer and metrics registry to a runner must not change anything about
// the run's outcome except the wall-clock duration fields. The
// error-prone llama personality exercises the debug loop (and its
// per-attempt spans and fix counters) on both sides of the comparison.
func TestTracedRunBitIdentical(t *testing.T) {
	ds := loadDS(t, "CMC", 0.5)
	run := func(traced bool) *Result {
		c, err := llm.New("llama3.1-70b", 11)
		if err != nil {
			t.Fatal(err)
		}
		r := NewRunner(c)
		if traced {
			r.Tracer = obs.New()
			r.Metrics = obs.NewRegistry()
		}
		res, err := r.Run(ds, Options{Seed: 11, NoRefine: true})
		if err != nil {
			t.Fatal(err)
		}
		res.ProfileTime, res.RefineTime, res.GenTime, res.ExecTime = 0, 0, 0, 0
		return res
	}
	plain, traced := run(false), run(true)
	if !reflect.DeepEqual(plain, traced) {
		t.Fatalf("traced run diverged from untraced:\nplain:  %+v\ntraced: %+v", plain, traced)
	}
}

// TestOpsServerRunBitIdentical extends the bit-identity contract to the
// full live ops plane: one arm runs bare, the other runs with tracer,
// metrics, a sampling runtime collector, AND an attached debug HTTP
// server being actively scraped (/metrics, /api/spans,
// /api/critical-path) while the run is in flight. The executor emits
// one stmt span per statement, so that emission is exercised under
// concurrent snapshots. Everything except wall-clock durations must
// match exactly.
func TestOpsServerRunBitIdentical(t *testing.T) {
	ds := loadDS(t, "CMC", 0.5)
	run := func(ops bool) *Result {
		c, err := llm.New("llama3.1-70b", 11)
		if err != nil {
			t.Fatal(err)
		}
		r := NewRunner(c)
		var cleanup func()
		if ops {
			r.Tracer = obs.New()
			r.Metrics = obs.NewRegistry()
			srv, serr := opsserver.Start("127.0.0.1:0", opsserver.Options{Registry: r.Metrics, Tracer: r.Tracer})
			if serr != nil {
				t.Fatal(serr)
			}
			col := opsserver.NewCollector(r.Metrics)
			col.Start(time.Millisecond)
			stop := make(chan struct{})
			scraped := make(chan struct{})
			go func() {
				defer close(scraped)
				for {
					select {
					case <-stop:
						return
					default:
					}
					for _, path := range []string{"/metrics", "/api/spans", "/api/critical-path"} {
						resp, gerr := http.Get(srv.URL() + path)
						if gerr != nil {
							return
						}
						_, _ = io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}
			}()
			cleanup = func() {
				close(stop)
				<-scraped
				col.Stop()
				_ = srv.Close()
			}
		}
		res, err := r.Run(ds, Options{Seed: 11, NoRefine: true})
		if cleanup != nil {
			cleanup()
		}
		if err != nil {
			t.Fatal(err)
		}
		res.ProfileTime, res.RefineTime, res.GenTime, res.ExecTime = 0, 0, 0, 0
		return res
	}
	plain, served := run(false), run(true)
	if !reflect.DeepEqual(plain, served) {
		t.Fatalf("run with live ops plane diverged from bare run:\nplain:  %+v\nserved: %+v", plain, served)
	}
}

// TestTracedRunRecordsSpansAndMetrics sanity-checks that an instrumented
// run actually produces a span tree rooted at "run" and the headline
// counters, so the wiring cannot silently regress to all no-ops.
func TestTracedRunRecordsSpansAndMetrics(t *testing.T) {
	ds := loadDS(t, "Wifi", 0.5)
	c, err := llm.New("gemini-1.5-pro", 12)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(c)
	r.Tracer = obs.New()
	r.Metrics = obs.NewRegistry()
	if _, err := r.Run(ds, Options{Seed: 12, NoRefine: true}); err != nil {
		t.Fatal(err)
	}
	spans := r.Tracer.Snapshot()
	if len(spans) == 0 || spans[0].Name != "run" {
		t.Fatalf("want a span tree rooted at run, got %d spans", len(spans))
	}
	names := map[string]bool{}
	nameOf := map[int]string{} // spans come in start order: parents first
	trainUnderExec := false
	for _, s := range spans {
		names[s.Name] = true
		nameOf[s.ID] = s.Name
		if s.Name == "stmt" && s.Attrs["op"] == "train" && nameOf[s.Parent] == "exec" {
			trainUnderExec = true
		}
	}
	for _, want := range []string{"profile", "prompt-build", "generate", "final-validate", "exec"} {
		if !names[want] {
			t.Errorf("missing %q span in %v", want, names)
		}
	}
	if !trainUnderExec {
		t.Error("no train stmt span under exec: the executor must open one span per statement")
	}
	if got := r.Metrics.Counter("catdb_llm_calls_total", "model", "gemini-1.5-pro").Value(); got == 0 {
		t.Error("catdb_llm_calls_total not recorded")
	}
	if got := r.Metrics.Counter("catdb_gen_calls_total", "kind", "pipeline").Value(); got == 0 {
		t.Error("catdb_gen_calls_total{kind=pipeline} not recorded")
	}
	if got := r.Metrics.Histogram("catdb_stage_seconds", obs.DefBuckets, "stage", "exec").Count(); got == 0 {
		t.Error("catdb_stage_seconds{stage=exec} not recorded")
	}
}

// TestDebugLoopTraceFixedSemantics drives the error-prone llama client
// through runs that hit the debug loop and checks the recorded traces
// carry meaningful Fixed values: a fix is only credited when the next
// execution succeeded or surfaced a different error signature, so a
// store full of unconditional Fixed=true can no longer happen.
func TestDebugLoopTraceFixedSemantics(t *testing.T) {
	ds := loadDS(t, "CMC", 0.5)
	c, _ := llm.New("llama3.1-70b", 5)
	r := NewRunner(c)
	r.Traces = errkb.NewTraceStore()
	// Several seeds so traces accumulate (the Table 2 setup).
	for seed := int64(0); seed < 8; seed++ {
		if _, err := r.Run(ds, Options{Seed: seed, NoRefine: true}); err != nil {
			t.Fatal(err)
		}
	}
	if r.Traces.Len() == 0 {
		t.Skip("no error traces produced at these seeds")
	}
	fixed := 0
	for _, tr := range r.Traces.Traces {
		if tr.FixedBy == "" {
			t.Fatalf("trace without FixedBy: %+v", tr)
		}
		if tr.Fixed {
			fixed++
		}
	}
	// Successful runs end their error chains, so at least one trace must
	// be credited as fixed; and with a 42%-fault client not every attempt
	// clears its error, so blanket Fixed=true would be a regression.
	if fixed == 0 {
		t.Fatal("no trace marked fixed across 8 runs that all completed")
	}
	if fixed == len(r.Traces.Traces) && len(r.Traces.Traces) > 3 {
		t.Fatalf("all %d traces marked fixed — Fixed is not being derived from outcomes", fixed)
	}
}

// finalValidateSpan returns the run's one final-validate span and its
// revalidated attribute.
func finalValidateSpan(t *testing.T, tr *obs.Tracer) (obs.SpanData, bool) {
	t.Helper()
	var found []obs.SpanData
	for _, s := range tr.Snapshot() {
		if s.Name == "final-validate" {
			found = append(found, s)
		}
	}
	if len(found) != 1 {
		t.Fatalf("want one final-validate span, got %d", len(found))
	}
	v, ok := found[0].Attrs["revalidated"].(bool)
	if !ok {
		t.Fatalf("final-validate span has no revalidated bool: %v", found[0].Attrs)
	}
	return found[0], v
}

// TestCleanRunSkipsRevalidation pins validation to one strict run per
// pipeline: a β=1 run whose generated pipeline passes the validation
// sample at once is not run strictly on that sample a second time. Its
// final-validate span says revalidated=false, and the executor runs
// twice: once on the sample, once on the full split.
func TestCleanRunSkipsRevalidation(t *testing.T) {
	ds := loadDS(t, "CMC", 0.4)
	c, err := llm.New("llama3.1-70b", 901)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(c)
	r.Tracer = obs.New()
	r.Metrics = obs.NewRegistry()
	res, err := r.Run(ds, Options{Seed: 1, NoRefine: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost.Attempts != 0 || res.Handcrafted {
		t.Fatalf("want a clean run, got %d repair attempts (handcrafted=%v)", res.Cost.Attempts, res.Handcrafted)
	}
	if _, revalidated := finalValidateSpan(t, r.Tracer); revalidated {
		t.Error("a pipeline that just passed strict validation was re-validated")
	}
	if got := r.Metrics.Counter("catdb_pipescript_execs_total").Value(); got != 2 {
		t.Errorf("catdb_pipescript_execs_total = %d, want 2 (sample run + full-split run)", got)
	}
}

// TestHandcraftedFallbackIsRevalidated pins the other side: when the
// last prompt exhausts τ₂, the handcrafted fallback has never run, so
// it still gets its strict run on the validation sample, and passes it
// without a repair attempt before the full split.
func TestHandcraftedFallbackIsRevalidated(t *testing.T) {
	ds := loadDS(t, "CMC", 0.4)
	c, err := llm.New("llama3.1-70b", 900)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(c)
	r.Tracer = obs.New()
	r.Metrics = obs.NewRegistry()
	res, err := r.Run(ds, Options{Seed: 0, MaxAttempts: 1, NoRefine: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Handcrafted || !strings.Contains(res.Pipeline, `-handcrafted"`) {
		t.Fatalf("want the handcrafted fallback, got handcrafted=%v:\n%s", res.Handcrafted, res.Pipeline)
	}
	fv, revalidated := finalValidateSpan(t, r.Tracer)
	if !revalidated {
		t.Fatal("the handcrafted fallback skipped strict validation")
	}
	for _, s := range r.Tracer.Snapshot() {
		if s.Name == "debug-attempt" && s.Parent == fv.ID {
			t.Fatalf("the handcrafted fallback failed strict validation: %v", s.Attrs)
		}
	}
	// The generated pipeline's failed sample run, the fallback's strict
	// sample run, and the full-split run.
	if got := r.Metrics.Counter("catdb_pipescript_execs_total").Value(); got != 3 {
		t.Errorf("catdb_pipescript_execs_total = %d, want 3", got)
	}
	if res.Exec == nil {
		t.Fatal("no full-split result")
	}
}
