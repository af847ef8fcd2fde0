package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"

	"catdb/internal/data"
)

// cells.json holds the expected per-cell outputs by workload and seed,
// written by --record, along with the workload grids and the layer map.
//
//go:embed cells.json
var cellsJSON []byte

type cellsFile struct {
	Workloads []cellsWorkload                    `json:"workloads"`
	LayerMap  []layerMetric                      `json:"layer_map"`
	Cells     map[string]map[string][]cellResult `json:"cells"`
}

type cellsWorkload struct {
	Workload *workload `json:"workload"`
	Smoke    *workload `json:"smoke"`
}

func loadExpected() (*cellsFile, error) {
	var f cellsFile
	if err := json.Unmarshal(cellsJSON, &f); err != nil {
		return nil, fmt.Errorf("cells.json: %w", err)
	}
	return &f, nil
}

// cells returns the recorded cells of a workload and seed, or nil.
func (f *cellsFile) cells(workload string, seed int64) []cellResult {
	return f.Cells[workload][strconv.FormatInt(seed, 10)]
}

// recordCells stores one seed's cells in the cells file at path, along
// with the current workload definitions and layer map.
func recordCells(path string, w *workload, seed int64, cells []cellResult) error {
	f := &cellsFile{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, f); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	f.Workloads = nil
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, cellsWorkload{Workload: w, Smoke: w.smoke()})
	}
	f.LayerMap = layerMetrics
	if f.Cells == nil {
		f.Cells = map[string]map[string][]cellResult{}
	}
	if f.Cells[w.Name] == nil {
		f.Cells[w.Name] = map[string][]cellResult{}
	}
	f.Cells[w.Name][strconv.FormatInt(seed, 10)] = cells
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// checker collects failed output checks, each naming its cell.
type checker struct {
	want    []cellResult // recorded cells for this seed; nil when none
	fails   []string
	checked int
	tables  map[string]bool // tables whose ingest was checked already
}

func (c *checker) fail(cell, format string, args ...any) {
	c.fails = append(c.fails, cell+": "+fmt.Sprintf(format, args...))
}

func (c *checker) ok() bool { return len(c.fails) == 0 }

// sameTable checks that ReadCSV reproduced the source table cell for cell.
func (c *checker) sameTable(cell string, want, got *data.Table) {
	if c.tables[cell+"/"+want.Name] {
		return // every pass reads the same bytes; checking one suffices
	}
	if c.tables == nil {
		c.tables = map[string]bool{}
	}
	c.tables[cell+"/"+want.Name] = true
	if want.NumRows() != got.NumRows() || want.NumCols() != got.NumCols() {
		c.fail(cell, "ReadCSV %s: %dx%d, want %dx%d", want.Name, got.NumRows(), got.NumCols(), want.NumRows(), want.NumCols())
		return
	}
	for j, wc := range want.Cols {
		gc := got.Cols[j]
		if gc.Name != wc.Name {
			c.fail(cell, "ReadCSV %s: column %d is %q, want %q", want.Name, j, gc.Name, wc.Name)
			return
		}
		for i := 0; i < wc.Len(); i++ {
			if gc.IsMissing(i) != wc.IsMissing(i) || gc.ValueString(i) != wc.ValueString(i) {
				c.fail(cell, "ReadCSV %s: cell (%d, %s) = %q, want %q", want.Name, i, wc.Name, gc.ValueString(i), wc.ValueString(i))
				return
			}
		}
	}
}

// sameFloats checks two prediction vectors for bit-identity.
func (c *checker) sameFloats(cell, what string, got, want []float64) {
	if len(got) != len(want) {
		c.fail(cell, "%s: %d values, want %d", what, len(got), len(want))
		return
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			c.fail(cell, "%s: row %d = %v, want %v", what, i, got[i], want[i])
			return
		}
	}
}

// sameCell compares everything deterministic about two cell results.
func sameCell(a, b cellResult) bool {
	a.WallS, b.WallS = 0, 0
	fa, fb := a.FitScore, b.FitScore
	a.FitScore, b.FitScore = nil, nil
	if (fa == nil) != (fb == nil) || (fa != nil && *fa != *fb) {
		return false
	}
	return a == b
}

// checkPasses compares every pass's cells with the recorded cells for
// this seed, when there are any, and with the first pass.
func (c *checker) checkPasses(passes []*passStats) {
	first := passes[0].cells
	for k, p := range passes {
		if len(p.cells) != len(first) {
			c.fail("pass "+strconv.Itoa(k), "%d cells, first pass had %d", len(p.cells), len(first))
			continue
		}
		for i, got := range p.cells {
			if !sameCell(got, first[i]) {
				c.fail(got.key(), "pass %d differs from pass 0: %+v vs %+v", k, got, first[i])
			}
		}
	}
	if c.want == nil {
		return
	}
	if len(c.want) != len(first) {
		c.fail("cells", "%d cells, cells.json has %d", len(first), len(c.want))
		return
	}
	for i, got := range first {
		c.checked++
		if !sameCell(got, c.want[i]) {
			c.fail(got.key(), "got %s, cells.json has %s", cellString(got), cellString(c.want[i]))
		}
	}
}

func cellString(c cellResult) string {
	fit := "-"
	if c.FitScore != nil {
		fit = strconv.FormatFloat(*c.FitScore, 'g', -1, 64)
	}
	return fmt.Sprintf("tokens=%d attempts=%d kb=%d llm=%d fallback=%v score=%v fit=%s",
		c.Tokens, c.Attempts, c.KBFixes, c.LLMFixes, c.Fallback, c.Score, fit)
}

// report prints the per-cell record of the first pass and the checks.
func report(w io.Writer, wl *workload, seed int64, passes []*passStats, chk *checker) {
	fmt.Fprintf(w, "%s seed %d: %d passes, pass walls %v s, %d held-out rows per pass left out as unservable\n",
		wl.Name, seed, len(passes), passWalls(passes), passes[0].refused)
	fmt.Fprintf(w, "reference probe: median %.4g ms over the passes, so measured times are scaled by %.4g\n",
		refProbe.Seconds()/speedScale(passes)*1e3, speedScale(passes))
	fmt.Fprintf(w, "  %-12s %-15s %-11s %8s %7s %4s %3s %3s %5s %9s\n",
		"dataset", "model", "variant", "wall_s", "tokens", "att", "kb", "llm", "fallb", "score")
	for _, c := range passes[0].cells {
		fmt.Fprintf(w, "  %-12s %-15s %-11s %8.3f %7d %4d %3d %3d %5v %9.4f\n",
			c.Dataset, c.Model, c.Variant, c.WallS, c.Tokens, c.Attempts, c.KBFixes, c.LLMFixes, c.Fallback, c.Score)
	}
	if chk.want == nil {
		fmt.Fprintf(w, "cells.json has no record of %s seed %d: per-cell outputs checked across passes only\n", wl.Name, seed)
	} else {
		fmt.Fprintf(w, "%d cells checked against cells.json\n", chk.checked)
	}
	for _, f := range chk.fails {
		fmt.Fprintf(w, "CHECK FAILED %s\n", f)
	}
}
