package bench

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"catdb/internal/obs"
	"catdb/internal/pool"
)

// TestMapCellsMatchesPoolMap pins the fast-path contract: with no
// observability configured, mapCells must return exactly what pool.Map
// returns — same values, same order — and the observed mode must not
// change the results either.
func TestMapCellsMatchesPoolMap(t *testing.T) {
	setProcs(t, 4)
	fn := func(i int) (int, error) { return i * i, nil }
	want, err := pool.Map(32, fn)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := mapCells(Config{}, "test", 32, func(i int, _ *obs.Span) (int, error) { return fn(i) })
	if err != nil {
		t.Fatal(err)
	}
	observed, err := mapCells(Config{Tracer: obs.New(), Metrics: obs.NewRegistry(), Progress: io.Discard},
		"test", 32, func(i int, _ *obs.Span) (int, error) { return fn(i) })
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if plain[i] != want[i] || observed[i] != want[i] {
			t.Fatalf("index %d: pool=%d plain=%d observed=%d", i, want[i], plain[i], observed[i])
		}
	}
}

// TestMapCellsProgressSpansMetrics checks the observed mode's three
// outputs: one progress line per cell, a bench:<phase> root span with one
// cell child per cell, and the catdb_bench_* counters.
func TestMapCellsProgressSpansMetrics(t *testing.T) {
	var buf bytes.Buffer
	tr := obs.New()
	reg := obs.NewRegistry()
	setProcs(t, 3)
	cfg := Config{Tracer: tr, Metrics: reg, Progress: &buf}
	const n = 7
	if _, err := mapCells(cfg, "phaseX", n, func(i int, sp *obs.Span) (int, error) {
		sp.SetInt("payload", int64(i))
		return i, nil
	}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != n {
		t.Fatalf("progress lines = %d, want %d:\n%s", len(lines), n, buf.String())
	}
	for _, line := range lines {
		if !strings.HasPrefix(line, "[phaseX] cell ") || !strings.Contains(line, "done") {
			t.Fatalf("malformed progress line %q", line)
		}
		// With metrics on, every line carries running latency quantiles.
		if !strings.Contains(line, "p50=") || !strings.Contains(line, "p99=") {
			t.Fatalf("progress line missing latency quantiles: %q", line)
		}
	}
	spans := tr.Snapshot()
	if len(spans) != 1+n {
		t.Fatalf("spans = %d, want %d", len(spans), 1+n)
	}
	if spans[0].Name != "bench:phaseX" {
		t.Fatalf("root span = %q", spans[0].Name)
	}
	cells := 0
	for _, s := range spans[1:] {
		if s.Name == "cell" && s.Parent == spans[0].ID {
			cells++
		}
	}
	if cells != n {
		t.Fatalf("cell spans under root = %d, want %d", cells, n)
	}
	if got := reg.Counter("catdb_bench_cells_total", "phase", "phaseX").Value(); got != n {
		t.Fatalf("catdb_bench_cells_total = %d, want %d", got, n)
	}
	if got := reg.Histogram("catdb_bench_cell_seconds", obs.DefBuckets, "phase", "phaseX").Count(); got != n {
		t.Fatalf("catdb_bench_cell_seconds count = %d, want %d", got, n)
	}
}

// TestObservedBenchOutputIdentical runs a real experiment twice — once
// bare, once fully observed — and requires byte-identical rendered
// tables: observability must never leak into experiment results.
func TestObservedBenchOutputIdentical(t *testing.T) {
	var plain, observed bytes.Buffer
	if _, err := RunTable4Refinement(Config{Fast: true, Seed: 1, Out: &plain}); err != nil {
		t.Fatal(err)
	}
	if _, err := RunTable4Refinement(Config{
		Fast: true, Seed: 1, Out: &observed,
		Tracer: obs.New(), Metrics: obs.NewRegistry(), Progress: io.Discard,
	}); err != nil {
		t.Fatal(err)
	}
	if plain.String() != observed.String() {
		t.Fatalf("observed run changed output:\n--- plain ---\n%s\n--- observed ---\n%s", plain.String(), observed.String())
	}
}
