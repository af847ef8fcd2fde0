package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"catdb/internal/core"
	"catdb/internal/data"
	"catdb/internal/errkb"
	"catdb/internal/llm"
	"catdb/internal/obs"
	"catdb/internal/pipescript"
)

// The traced pass measures layers from outside the program. Its sources
// are the span tree core.Runner already records, an llm.Client wrapper
// timing every Complete, the Runner's error-trace store, spans and timers
// of the benchmark's own around each public call, heap-allocation reads
// at every span boundary (through the tracer's clock), and replays:
//
//   - each run's final program is executed again on the run's own split,
//     once as-is (its score must equal the run's) and once without its
//     train/evaluate statements, which times the pipeline's ops and so
//     splits the run's exec span into ops and training;
//   - each deployed fit is split the same way, and each Predict call is
//     followed by a Transform of the same rows, which splits it into
//     recorded preprocessing and model inference.
//
// Replays run while the pass stopwatch is stopped, so the traced wall is
// comparable to an untraced pass and the layers must add up to it.

// layerMetric is one per-layer metric and the end-to-end metric (and
// workload) it is expected to move.
type layerMetric struct {
	Name  string `json:"name"`
	Unit  string `json:"unit"`
	Moves string `json:"moves"`
}

var layerMetrics = []layerMetric{
	{"data.ingest_s", "s", "ingest_mb_per_s on serve"},
	{"data.ingest_alloc_mb", "MB", "ingest_mb_per_s on serve"},
	{"catalog.refine_s", "s", "pass_s on gen-repair"},
	{"catalog.llm_calls", "count", "pass_s on gen-repair"},
	{"profile.profile_s", "s", "pass_s on gen-repair"},
	{"profile.alloc_mb", "MB", "pass_s on gen-repair"},
	{"prompt.build_s", "s", "tokens_per_run on gen-repair"},
	{"prompt.prompt_tokens", "tokens", "tokens_per_run on gen-repair"},
	{"llm.calls", "count", "tokens_per_run on gen-repair"},
	{"llm.busy_s", "s", "tokens_per_run on gen-repair"},
	{"llm.completion_tokens", "tokens", "tokens_per_run on gen-repair"},
	{"llm.error_fix_calls", "count", "tokens_per_run on gen-repair"},
	{"core.validate_s", "s", "pass_s and run_s.p50 on gen-repair"},
	{"core.validate_alloc_mb", "MB", "pass_s and run_s.p50 on gen-repair"},
	{"errkb.attempts", "count", "tokens_per_run and run_s.p50 on gen-repair"},
	{"errkb.kb_fixes", "count", "tokens_per_run and run_s.p50 on gen-repair"},
	{"errkb.llm_fixes", "count", "tokens_per_run and run_s.p50 on gen-repair"},
	{"errkb.fix_yield", "ratio", "tokens_per_run and run_s.p50 on gen-repair"},
	{"pipescript.exec_ops_s", "s", "pass_s on gen-repair"},
	{"pipescript.exec_ops_alloc_mb", "MB", "pass_s on gen-repair"},
	{"ml.train_s", "s", "pass_s on gen-repair"},
	{"pipescript.fit_ops_s", "s", "fit_s on serve"},
	{"ml.fit_train_s", "s", "fit_s on serve"},
	{"pipescript.transform_s", "s", "predict_row_us.p50 and predict_batch_rows_per_s on serve"},
	{"ml.predict_s", "s", "predict_batch_rows_per_s on serve"},
	{"runtime.gc_cycles", "count", "predict_row_us.p99 on serve, alloc_mb_per_pass elsewhere"},
	{"runtime.gc_pause_s", "s", "predict_row_us.p99 on serve, alloc_mb_per_pass elsewhere"},
	{"core.runs", "count", "diagnostic: runs in the traced pass"},
	{"core.fallback_runs", "count", "score_mean on gen-repair"},
	{"core.traced_wall_s", "s", "diagnostic: the wall time the layer times add up to"},
	{"core.unattributed_s", "s", "diagnostic: traced wall minus every layer time above"},
	{"obs.trace_overhead_pct", "%", "diagnostic: traced wall against the untraced median pass"},
	{"obs.untraced_spread_pct", "%", "diagnostic: (max-min)/median of the untraced passes"},
}

// spanLayer maps span names to the layer their self time belongs to.
// "exec", "fit" and "predict" are split further by replays; "run" self
// time is the runner's own glue and stays unattributed.
var spanLayer = map[string]string{
	"ingest":         "data.ingest",
	"refine":         "catalog.refine",
	"deploy-refine":  "catalog.refine",
	"profile":        "profile.profile",
	"prompt-build":   "prompt.build",
	"generate":       "core.validate",
	"final-validate": "core.validate",
	"debug-attempt":  "core.validate",
	"resume-debug":   "core.validate",
	"exec":           "exec",
	"fit":            "fit",
	"predict":        "predict",
	"run":            "",
}

// tracing is the state of one traced pass.
type tracing struct {
	spans  *obs.Tracer
	traces *errkb.TraceStore
	epoch  time.Time

	mu      sync.Mutex
	allocAt map[time.Duration]uint64 // heap bytes allocated at each span clock reading

	ids   map[*obs.Span]int // span IDs of the benchmark's own root spans
	runID int               // span ID the next Runner.Run root will get
	calls []llmCall
	// Replay times and allocations, keyed by the span they split.
	opsS     map[int]float64
	opsAlloc float64
	xformS   map[int]float64
}

type llmCall struct {
	start, end         time.Duration // offsets from the tracer epoch
	kind               string        // refine | generate | error-fix
	prompt, completion int
}

func newTracing() *tracing {
	t := &tracing{
		traces:  errkb.NewTraceStore(),
		allocAt: map[time.Duration]uint64{},
		ids:     map[*obs.Span]int{},
		opsS:    map[int]float64{},
		xformS:  map[int]float64{},
	}
	t.spans = obs.NewWithClock(t.clock)
	return t
}

// clock is the tracer's clock: wall time plus a heap-allocation read, so
// every span start and end carries the allocation counter.
func (t *tracing) clock() time.Time {
	now := time.Now()
	if t.epoch.IsZero() {
		t.epoch = now
	}
	a := heapAllocBytes()
	t.mu.Lock()
	t.allocAt[now.Sub(t.epoch)] = a
	t.mu.Unlock()
	return now
}

// root opens one of the benchmark's own spans around a public call.
func (t *tracing) root(name string) *obs.Span {
	if t == nil {
		return nil
	}
	sp := t.spans.Root(name)
	t.ids[sp] = t.spans.Len()
	return sp
}

// client wraps an LLM client so every Complete is timed and counted.
func (t *tracing) client(c llm.Client) llm.Client {
	if t == nil {
		return c
	}
	return &timedClient{Client: c, t: t}
}

// attach points a runner at the traced pass's span tree and trace store.
func (t *tracing) attach(r *core.Runner) {
	if t == nil {
		return
	}
	r.Tracer = t.spans
	r.Traces = t.traces
	t.runID = t.spans.Len() + 1
}

type timedClient struct {
	llm.Client
	t *tracing
}

func (c *timedClient) Complete(prompt string) (llm.Response, error) {
	start := time.Now()
	resp, err := c.Client.Complete(prompt)
	end := time.Now()
	kind := "generate"
	switch {
	case strings.Contains(prompt, "TASK: refine-categorical"), strings.Contains(prompt, "TASK: infer-feature-type"):
		kind = "refine"
	case strings.Contains(prompt, "</CODE>\n<ERROR>\n"):
		kind = "error-fix"
	}
	c.t.calls = append(c.t.calls, llmCall{start: start.Sub(c.t.epoch), end: end.Sub(c.t.epoch), kind: kind,
		prompt: resp.Usage.PromptTokens, completion: resp.Usage.CompletionTokens})
	return resp, err
}

// withoutTrain drops the train and evaluate statements of a program.
func withoutTrain(p *pipescript.Program) *pipescript.Program {
	out := *p
	out.Stmts = nil
	for _, st := range p.Stmts {
		if st.Op != "train" && st.Op != "evaluate" {
			out.Stmts = append(out.Stmts, st)
		}
	}
	return &out
}

// timeOps executes a program without its train statements and returns
// the seconds and heap bytes that took.
func timeOps(prog *pipescript.Program, target string, task data.Task, seed int64, train, test *data.Table) (float64, uint64, error) {
	ex := &pipescript.Executor{Target: target, Task: task, Seed: seed, AllowNoTrain: true}
	a0 := heapAllocBytes()
	start := time.Now()
	_, err := ex.Execute(withoutTrain(prog), train, test)
	return time.Since(start).Seconds(), heapAllocBytes() - a0, err
}

// replayRun re-executes a run's final program on the run's own split.
func (t *tracing) replayRun(pr *passRun, ds *data.Dataset, res *core.Result, model string, llmSeed int64) {
	name := res.Dataset + "/" + model + "/" + res.Variant
	client, err := llm.New(model, llmSeed)
	if err != nil {
		pr.chk.fail(name, "replay: %v", err)
		return
	}
	train, test, err := refineAndSplit(ds, client, pr.in.seed, 0.7)
	if err != nil {
		pr.chk.fail(name, "replay refine: %v", err)
		return
	}
	prog, err := pipescript.Parse(res.Pipeline)
	if err != nil {
		pr.chk.fail(name, "replay parse: %v", err)
		return
	}
	ex := &pipescript.Executor{Target: ds.Target, Task: ds.Task, Seed: pr.in.seed}
	full, err := ex.Execute(prog, train, test)
	if err != nil {
		pr.chk.fail(name, "replay: %v", err)
		return
	}
	if full.Primary() != res.Exec.Primary() {
		pr.chk.fail(name, "replayed score %v != run score %v", full.Primary(), res.Exec.Primary())
	}
	secs, alloc, err := timeOps(prog, ds.Target, ds.Task, pr.in.seed, train, test)
	if err != nil {
		pr.chk.fail(name, "replay without train: %v", err)
		return
	}
	t.opsS[t.runID] = secs
	t.opsAlloc += float64(alloc)
}

// replayFit times the deployed program's ops on the fit's split.
func (t *tracing) replayFit(pr *passRun, prog *pipescript.Program, ds *data.Dataset, train, test *data.Table, fit *obs.Span) {
	secs, alloc, err := timeOps(prog, ds.Target, ds.Task, pr.in.seed, train, test)
	if err != nil {
		pr.chk.fail(ds.Name, "fit replay without train: %v", err)
		return
	}
	t.opsS[t.ids[fit]] = secs
	t.opsAlloc += float64(alloc)
}

// replayTransform times the recorded preprocessing of one Predict call.
func (t *tracing) replayTransform(fp *pipescript.FittedPipeline, rows *data.Table, predict *obs.Span) {
	start := time.Now()
	if _, err := fp.Transform(rows); err == nil {
		t.xformS[t.ids[predict]] = time.Since(start).Seconds()
	}
}

// traced is a finished traced pass.
type traced struct {
	w       *workload
	pass    *passStats
	t       *tracing
	gcStart rtReading
	gcEnd   rtReading
}

// tracedPass runs one pass with every probe attached.
func tracedPass(w *workload, in *inputs, chk *checker) *traced {
	runtime.GC()
	t := newTracing()
	tp := &traced{w: w, t: t, gcStart: readRuntime()}
	tp.pass = w.pass(in, t, chk)
	tp.gcEnd = readRuntime()
	return tp
}

// perLayer attributes the traced pass to layers. untraced are the
// measured passes the overhead is computed against.
func (tp *traced) perLayer(untraced []*passStats) map[string]metric {
	t := tp.t
	spans := t.spans.Snapshot()
	byID := make(map[int]*obs.SpanData, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	self := make(map[int]float64, len(spans))
	selfAlloc := make(map[int]float64, len(spans))
	for _, s := range spans {
		if _, known := spanLayer[s.Name]; !known {
			continue // folded into its parent's self time
		}
		self[s.ID] += s.Dur.Seconds()
		selfAlloc[s.ID] += t.allocBetween(s.Start, s.Start+s.Dur)
		if p, ok := byID[s.Parent]; ok {
			self[p.ID] -= s.Dur.Seconds()
			selfAlloc[p.ID] -= t.allocBetween(s.Start, s.Start+s.Dur)
		}
	}

	v := map[string]float64{}
	// LLM time leaves the innermost span that contains the call.
	for _, c := range t.calls {
		v["llm.calls"]++
		v["llm.busy_s"] += (c.end - c.start).Seconds()
		v["llm.completion_tokens"] += float64(c.completion)
		switch c.kind {
		case "refine":
			v["catalog.llm_calls"]++
		case "error-fix":
			v["llm.error_fix_calls"]++
		default:
			v["prompt.prompt_tokens"] += float64(c.prompt)
		}
		if id := innermost(spans, c.start, c.end); id != 0 {
			self[id] -= (c.end - c.start).Seconds()
		}
	}

	for _, s := range spans {
		layer, known := spanLayer[s.Name]
		if !known || layer == "" {
			continue
		}
		secs, alloc := self[s.ID], selfAlloc[s.ID]
		switch layer {
		case "exec":
			// The run replay is keyed by the run span, exec's parent.
			ops := math.Min(t.opsS[s.Parent], secs)
			v["pipescript.exec_ops_s"] += ops
			v["ml.train_s"] += secs - ops
		case "fit":
			ops := math.Min(t.opsS[s.ID], secs)
			v["pipescript.fit_ops_s"] += ops
			v["ml.fit_train_s"] += secs - ops
		case "predict":
			x := math.Min(t.xformS[s.ID], secs)
			v["pipescript.transform_s"] += x
			v["ml.predict_s"] += secs - x
		default:
			v[layer+"_s"] += secs
			switch layer {
			case "data.ingest":
				v["data.ingest_alloc_mb"] += alloc / 1e6
			case "profile.profile":
				v["profile.alloc_mb"] += alloc / 1e6
			case "core.validate":
				v["core.validate_alloc_mb"] += alloc / 1e6
			}
		}
	}
	v["pipescript.exec_ops_alloc_mb"] = t.opsAlloc / 1e6

	for _, c := range tp.pass.cells {
		v["core.runs"]++
		v["errkb.attempts"] += float64(c.Attempts)
		v["errkb.kb_fixes"] += float64(c.KBFixes)
		v["errkb.llm_fixes"] += float64(c.LLMFixes)
		if c.Fallback {
			v["core.fallback_runs"]++
		}
	}
	fixed := 0
	for _, tr := range t.traces.Traces {
		if tr.Fixed {
			fixed++
		}
	}
	if n := len(t.traces.Traces); n > 0 {
		v["errkb.fix_yield"] = float64(fixed) / float64(n)
	}
	v["runtime.gc_cycles"] = float64(tp.gcEnd.cycles - tp.gcStart.cycles - tp.pass.settled.cycles)
	v["runtime.gc_pause_s"] = tp.gcEnd.pauseS - tp.gcStart.pauseS - tp.pass.settled.pauseS

	wall := tp.pass.wall.Seconds()
	v["core.traced_wall_s"] = wall
	attributed := 0.0
	for _, m := range layerMetrics {
		if m.Unit == "s" && strings.HasSuffix(m.Name, "_s") && m.Name != "core.traced_wall_s" &&
			m.Name != "core.unattributed_s" && m.Name != "runtime.gc_pause_s" {
			attributed += v[m.Name]
		}
	}
	v["core.unattributed_s"] = wall - attributed
	walls := passWalls(untraced)
	if base := median(walls); base > 0 {
		v["obs.trace_overhead_pct"] = (wall/base - 1) * 100
		sort.Float64s(walls)
		v["obs.untraced_spread_pct"] = (walls[len(walls)-1] - walls[0]) / base * 100
	}

	out := make(map[string]metric, len(layerMetrics))
	for _, m := range layerMetrics {
		out[m.Name] = metric{Value: v[m.Name], Unit: m.Unit}
	}
	return out
}

// allocBetween is the heap bytes allocated between two span clock reads.
func (t *tracing) allocBetween(from, to time.Duration) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	a, okA := t.allocAt[from]
	b, okB := t.allocAt[to]
	if !okA || !okB || b < a {
		return 0
	}
	return float64(b - a)
}

// innermost returns the ID of the latest-starting span that contains the
// interval, or 0.
func innermost(spans []obs.SpanData, start, end time.Duration) int {
	id := 0
	var best time.Duration = -1
	for _, s := range spans {
		if s.Start <= start && s.Start+s.Dur >= end && s.Start > best {
			if _, known := spanLayer[s.Name]; known {
				id, best = s.ID, s.Start
			}
		}
	}
	return id
}

// report prints every per-layer metric next to the end-to-end metric it
// should move.
func (tp *traced) report(w io.Writer, m map[string]metric) {
	fmt.Fprintf(w, "traced pass of %s: %d spans, %d LLM calls, %d error traces\n",
		tp.w.Name, tp.t.spans.Len(), len(tp.t.calls), tp.t.traces.Len())
	for _, l := range layerMetrics {
		fmt.Fprintf(w, "  %-30s %14.6g %-7s -> %s\n", l.Name, m[l.Name].Value, l.Unit, l.Moves)
	}
}
