package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests cross-check.
type benchmarkJSON struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) *benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return &bj
}

// TestSmokePasses runs a smoke-sized untraced and traced pass of every
// workload. Every output check must pass, every end-to-end metric must be
// positive, and the traced pass's per-layer self times must add up to its
// wall time within 5%.
func TestSmokePasses(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		s := w.smoke()
		t.Run(w.Name, func(t *testing.T) {
			in, err := s.setup(1)
			if err != nil {
				t.Fatal(err)
			}
			chk := &checker{}
			untraced := []*passStats{s.pass(in, nil, chk)}
			tp := tracedPass(s, in, chk)
			layers := tp.perLayer(untraced)
			all := append(untraced, tp.pass)
			chk.checkPasses(all)
			if !chk.ok() {
				t.Fatalf("output checks failed: %v", chk.fails)
			}
			for _, p := range all {
				if p.failed > 0 {
					t.Fatalf("%d of %d operations failed", p.failed, p.attempted)
				}
			}

			e2e := endToEnd(untraced, []float64{1})
			for _, m := range bj.EndToEnd {
				got, ok := e2e[m.Name]
				if !ok || got.Unit != m.Unit || !(got.Value > 0) {
					t.Errorf("end-to-end %s = %+v, want a positive value in %s", m.Name, got, m.Unit)
				}
			}
			for _, m := range bj.PerLayer {
				if got, ok := layers[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer %s = %+v, want unit %s", m.Name, got, m.Unit)
				}
			}

			wall := layers["core.traced_wall_s"].Value
			rest := layers["core.unattributed_s"].Value
			if wall <= 0 || math.Abs(rest) > 0.05*wall {
				t.Errorf("layers leave %.4fs of the %.4fs traced wall unattributed, want within 5%%", rest, wall)
			}
		})
	}
}

// TestBenchmarkJSONMatches pins BENCHMARK.json to the workloads and the
// metric tables of this package.
func TestBenchmarkJSONMatches(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if findWorkload(w.Name) == nil || workloads[i].Name != w.Name {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloads[i].Name)
		}
	}
	if len(bj.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark reports %d", len(bj.PerLayer), len(layerMetrics))
	}
	for i, m := range bj.PerLayer {
		if m.Name != layerMetrics[i].Name || m.Unit != layerMetrics[i].Unit {
			t.Errorf("per-layer %d is %s (%s), want %s (%s)", i, m.Name, m.Unit, layerMetrics[i].Name, layerMetrics[i].Unit)
		}
	}
}
