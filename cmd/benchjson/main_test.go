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
