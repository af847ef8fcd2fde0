package main

import (
	"io"
	"reflect"
	"strings"
	"testing"
)

// Three -count repeats of one benchmark fold into their median entry,
// with the run count and ns/op range kept; a single run passes through.
func TestParseBenchFoldsRepeatsToMedian(t *testing.T) {
	in := strings.Join([]string{
		"goos: linux",
		"BenchmarkX/rows=10-2   3   300 ns/op   30 B/op   3 allocs/op   9 qps",
		"BenchmarkX/rows=10-2   3   100 ns/op   10 B/op   1 allocs/op   7 qps",
		"BenchmarkX/rows=10-2   3   200 ns/op   20 B/op   2 allocs/op   8 qps",
		"BenchmarkY-2   1   50 ns/op",
		"PASS",
	}, "\n")
	got, err := parseBench(strings.NewReader(in), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]Entry{
		"BenchmarkX/rows=10": {Iterations: 3, Runs: 3, NsPerOp: 200, NsPerOpMin: 100, NsPerOpMax: 300,
			BytesPerOp: 20, AllocsPerOp: 2, Extra: map[string]float64{"qps": 8}},
		"BenchmarkY": {Iterations: 1, Runs: 1, NsPerOp: 50, NsPerOpMin: 50, NsPerOpMax: 50},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parseBench:\ngot  %+v\nwant %+v", got, want)
	}
}

// A speedup is marked noise exactly when both entries carry ns/op ranges
// and those ranges overlap; entries without ranges (single-run baselines
// captured before repeats were folded) are never marked.
func TestSpeedupMarksOverlappingRangesAsNoise(t *testing.T) {
	ranged := func(med, lo, hi float64) Entry {
		return Entry{Runs: 5, NsPerOp: med, NsPerOpMin: lo, NsPerOpMax: hi}
	}
	cases := []struct {
		name      string
		base, cur Entry
		want      string
	}{
		{"disjoint", ranged(400, 380, 460), ranged(260, 220, 280), "1.54x"},
		{"overlap", ranged(300, 250, 350), ranged(280, 240, 330), "1.07x (noise)"},
		{"touching", ranged(300, 280, 350), ranged(200, 150, 280), "1.50x (noise)"},
		{"slower overlap", ranged(200, 150, 260), ranged(250, 240, 300), "0.80x (noise)"},
		{"unranged baseline", Entry{NsPerOp: 300}, ranged(280, 240, 330), "1.07x"},
		{"unranged current", ranged(300, 250, 350), Entry{NsPerOp: 150}, "2.00x"},
	}
	for _, c := range cases {
		if got := speedup(c.base, c.cur); got != c.want {
			t.Errorf("%s: speedup = %q, want %q", c.name, got, c.want)
		}
	}
}
