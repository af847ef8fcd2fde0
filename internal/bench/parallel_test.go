package bench

import (
	"bytes"
	"runtime"
	"testing"
)

// The parallel harness must be invisible in the results: for a fixed seed,
// any worker count produces exactly the rows the serial loop produced, in
// the same order. These tests pin that guarantee on experiments whose
// rendered reports are time-free (fig10, table2, ablation) and structurally
// on fig11, whose report includes wall-clock columns.

// setProcs sets GOMAXPROCS to n for the rest of the test. The pool sizes
// every fan-out from GOMAXPROCS, experiment cells included, so this is
// how a test picks its worker count.
func setProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func renderedAt(t *testing.T, workers int, run func(Config) error) string {
	t.Helper()
	setProcs(t, workers)
	var buf bytes.Buffer
	cfg := fastCfg()
	cfg.Out = &buf
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestParallelMatchesSerialRendered(t *testing.T) {
	experiments := []struct {
		name string
		run  func(Config) error
	}{
		{"fig10", func(c Config) error { _, err := RunFig10MetadataImpact(c); return err }},
		{"table2", func(c Config) error { _, err := RunTable2ErrorTraces(c); return err }},
		{"ablation", func(c Config) error { _, err := RunAblation(c); return err }},
	}
	for _, e := range experiments {
		e := e
		t.Run(e.name, func(t *testing.T) {
			serial := renderedAt(t, 1, e.run)
			parallel := renderedAt(t, 8, e.run)
			if serial != parallel {
				t.Fatalf("%s: workers=8 output differs from workers=1\n--- serial ---\n%s\n--- parallel ---\n%s",
					e.name, serial, parallel)
			}
		})
	}
}

func TestParallelMatchesSerialFig11(t *testing.T) {
	runAt := func(workers int) *Fig11Result {
		setProcs(t, workers)
		var buf bytes.Buffer
		cfg := fastCfg()
		cfg.Out = &buf
		res, err := RunFig11TenIterations(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := runAt(1)
	parallel := runAt(8)
	if len(serial.Cells) != len(parallel.Cells) {
		t.Fatalf("cell count: %d vs %d", len(serial.Cells), len(parallel.Cells))
	}
	// Cells appear in first-contribution order, which the ordered merge
	// makes identical; every time-free field must match exactly, including
	// the per-iteration AUC sequences.
	for i, s := range serial.Cells {
		p := parallel.Cells[i]
		if s.Dataset != p.Dataset || s.Model != p.Model || s.System != p.System {
			t.Fatalf("cell %d identity: %s/%s/%s vs %s/%s/%s",
				i, s.Dataset, s.Model, s.System, p.Dataset, p.Model, p.System)
		}
		if s.Fails != p.Fails || s.TotalTokens != p.TotalTokens || s.ErrTokens != p.ErrTokens {
			t.Fatalf("cell %s/%s/%s aggregates differ: %+v vs %+v", s.Dataset, s.Model, s.System, s, p)
		}
		if len(s.AUCs) != len(p.AUCs) {
			t.Fatalf("cell %s/%s/%s AUC count: %d vs %d", s.Dataset, s.Model, s.System, len(s.AUCs), len(p.AUCs))
		}
		for j := range s.AUCs {
			if s.AUCs[j] != p.AUCs[j] {
				t.Fatalf("cell %s/%s/%s AUC[%d]: %g vs %g", s.Dataset, s.Model, s.System, j, s.AUCs[j], p.AUCs[j])
			}
		}
	}
}
