package obs_test

import (
	"bytes"
	"runtime"
	"testing"

	"catdb/internal/obs"
	"catdb/internal/pool"
)

// TestConcurrentRecordingUnderPoolMap exercises the shared tracer and
// registry exactly the way the bench harness does — one span subtree and
// a batch of metric updates per pool.Map cell — and then exports while
// the structures are quiescent. Run under `make race`, it guards the
// store's race-safety invariants.
func TestConcurrentRecordingUnderPoolMap(t *testing.T) {
	tr := obs.New()
	reg := obs.NewRegistry()
	root := tr.Root("bench:race")
	const cells = 64
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8)) // the pool's worker count
	_, err := pool.Map(cells, func(i int) (int, error) {
		sp := root.Child("cell")
		sp.SetInt("index", int64(i))
		inner := sp.Child("run")
		inner.SetStr("dataset", "synthetic")
		inner.End()
		sp.End()
		reg.Counter("race_cells_total").Inc()
		reg.Counter("race_by_parity_total", "parity", []string{"even", "odd"}[i%2]).Inc()
		reg.Gauge("race_last_index").Set(int64(i))
		reg.Gauge("race_max_index").Max(int64(i))
		reg.Histogram("race_index_hist", obs.DefBuckets).Observe(float64(i))
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	root.End()

	if got := tr.Len(); got != 1+2*cells {
		t.Errorf("span count = %d, want %d", got, 1+2*cells)
	}
	if got := reg.Counter("race_cells_total").Value(); got != cells {
		t.Errorf("race_cells_total = %d, want %d", got, cells)
	}
	even := reg.Counter("race_by_parity_total", "parity", "even").Value()
	odd := reg.Counter("race_by_parity_total", "parity", "odd").Value()
	if even != cells/2 || odd != cells/2 {
		t.Errorf("parity counters = %d/%d, want %d each", even, odd, cells/2)
	}
	if got := reg.Gauge("race_max_index").Value(); got != cells-1 {
		t.Errorf("race_max_index = %d, want %d", got, cells-1)
	}
	if got := reg.Histogram("race_index_hist", obs.DefBuckets).Count(); got != cells {
		t.Errorf("histogram count = %d, want %d", got, cells)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("exports produced no output")
	}
}

// TestConcurrentExportDuringRecording pins that exporting while spans and
// metrics are still being recorded is memory-safe (the exporters snapshot
// under locks).
func TestConcurrentExportDuringRecording(t *testing.T) {
	tr := obs.New()
	reg := obs.NewRegistry()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var buf bytes.Buffer
			_ = tr.WriteJSONL(&buf)
			_ = tr.WriteTree(&buf)
			_ = reg.WriteProm(&buf)
		}
	}()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // the pool's worker count
	_, err := pool.Map(200, func(i int) (struct{}, error) {
		sp := tr.Root("r")
		sp.SetInt("i", int64(i))
		sp.End()
		reg.Counter("c_total").Inc()
		reg.Histogram("h", []float64{1, 10}).Observe(float64(i))
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-done
}
