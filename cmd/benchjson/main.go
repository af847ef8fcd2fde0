// Command benchjson converts `go test -bench` output on stdin into a
// committed JSON record. It merges into an existing file: the "baseline"
// block (the reference numbers) is preserved verbatim, the "current"
// block is replaced with the parsed run, and a per-benchmark speedup
// table is recomputed for every name present in both blocks. Repeated
// runs of one benchmark (`-count=N`) fold into their median, with the
// run count and the ns/op range kept alongside, and speedups compare
// medians; a speedup whose two ns/op ranges overlap is marked "(noise)".
//
//	go test -run='^$' -bench=Profile -benchmem -benchtime=1x ./internal/profile/ \
//	  | go run ./cmd/benchjson -o BENCH_profile.json
//
// With -compare it instead reads a run ledger (the JSONL appended by
// `catdb-bench -ledger`) and diffs each configuration's latest run
// against its earliest baseline, exiting 1 if any stage time or the
// token total regressed beyond -threshold:
//
//	go run ./cmd/benchjson -compare runs.jsonl -threshold 0.10
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"catdb/internal/obs/ledger"
)

// Entry is one benchmark measurement: the median of its Runs repeats,
// taken field by field, with the slowest and fastest ns/op alongside.
// Extra holds custom b.ReportMetric units (e.g. p99-ns, qps) keyed by
// their unit string.
type Entry struct {
	Iterations  int                `json:"iterations"`
	Runs        int                `json:"runs,omitempty"`
	NsPerOp     float64            `json:"ns_per_op"`
	NsPerOpMin  float64            `json:"ns_per_op_min,omitempty"`
	NsPerOpMax  float64            `json:"ns_per_op_max,omitempty"`
	BytesPerOp  int64              `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64              `json:"allocs_per_op,omitempty"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// File is the on-disk layout of BENCH_profile.json.
type File struct {
	Note     string            `json:"note,omitempty"`
	Baseline map[string]Entry  `json:"baseline,omitempty"`
	Current  map[string]Entry  `json:"current"`
	Speedup  map[string]string `json:"speedup_vs_baseline,omitempty"`
}

// benchLine matches the benchmark name and iteration count, e.g.
//
//	BenchmarkProfileKDD98-16  1  17379382968 ns/op  5621032880 B/op  74230499 allocs/op
//	BenchmarkPredictSingleRow-16  300  61500 ns/op  58000 p50-ns  91000 p99-ns
//
// The remainder of the line is value/unit pairs, parsed positionally so
// custom b.ReportMetric units interleave freely with the standard ones.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.+)$`)

func main() {
	out := flag.String("o", "BENCH_profile.json", "output JSON file (merged in place)")
	setBaseline := flag.Bool("set-baseline", false, "record this run as the baseline instead of the current numbers")
	compare := flag.String("compare", "", "run-ledger JSONL to check for regressions instead of parsing stdin")
	threshold := flag.Float64("threshold", 0.10, "relative regression threshold for -compare (0.10 = 10%)")
	flag.Parse()

	if *compare != "" {
		os.Exit(runCompare(*compare, *threshold))
	}

	// Stay pipe-transparent: the raw output remains visible.
	parsed, err := parseBench(os.Stdin, os.Stdout)
	if err != nil {
		fatal("read stdin: %v", err)
	}
	if len(parsed) == 0 {
		fatal("no benchmark lines found on stdin")
	}

	var f File
	if raw, err := os.ReadFile(*out); err == nil {
		if err := json.Unmarshal(raw, &f); err != nil {
			fatal("parse existing %s: %v", *out, err)
		}
	}
	if *setBaseline {
		f.Baseline = parsed
	} else {
		f.Current = parsed
	}
	f.Speedup = map[string]string{}
	for name, cur := range f.Current {
		if base, ok := f.Baseline[name]; ok && cur.NsPerOp > 0 {
			f.Speedup[name] = speedup(base, cur)
		}
	}
	if len(f.Speedup) == 0 {
		f.Speedup = nil
	}

	enc, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		fatal("encode: %v", err)
	}
	if err := os.WriteFile(*out, append(enc, '\n'), 0o644); err != nil {
		fatal("write %s: %v", *out, err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d entries to %s\n", len(parsed), *out)
}

// speedup formats the baseline/current median ratio, e.g. "1.42x". When
// both entries carry an ns/op range and the ranges overlap, the change
// lies inside the run-to-run spread and the ratio gains " (noise)".
func speedup(base, cur Entry) string {
	s := fmt.Sprintf("%.2fx", base.NsPerOp/cur.NsPerOp)
	ranged := base.NsPerOpMax > 0 && cur.NsPerOpMax > 0
	if ranged && base.NsPerOpMin <= cur.NsPerOpMax && cur.NsPerOpMin <= base.NsPerOpMax {
		s += " (noise)"
	}
	return s
}

// parseBench reads `go test -bench` output, copying every line to echo,
// and returns one Entry per benchmark name with its repeats folded.
func parseBench(r io.Reader, echo io.Writer) (map[string]Entry, error) {
	runs := map[string][]Entry{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(echo, line)
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		e := Entry{}
		e.Iterations, _ = strconv.Atoi(m[2])
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			switch fields[i+1] {
			case "ns/op":
				e.NsPerOp = v
			case "B/op":
				e.BytesPerOp = int64(v)
			case "allocs/op":
				e.AllocsPerOp = int64(v)
			default:
				if e.Extra == nil {
					e.Extra = map[string]float64{}
				}
				e.Extra[fields[i+1]] = v
			}
		}
		if e.NsPerOp == 0 && e.Extra == nil {
			continue
		}
		runs[m[1]] = append(runs[m[1]], e)
	}
	parsed := make(map[string]Entry, len(runs))
	for name, rs := range runs {
		parsed[name] = fold(rs)
	}
	return parsed, sc.Err()
}

// fold reduces the repeats of one benchmark to the median of each field.
func fold(runs []Entry) Entry {
	field := func(get func(Entry) float64) []float64 {
		v := make([]float64, len(runs))
		for i, e := range runs {
			v[i] = get(e)
		}
		sort.Float64s(v)
		return v
	}
	ns := field(func(e Entry) float64 { return e.NsPerOp })
	out := Entry{
		Iterations:  int(math.Round(median(field(func(e Entry) float64 { return float64(e.Iterations) })))),
		Runs:        len(runs),
		NsPerOp:     median(ns),
		NsPerOpMin:  ns[0],
		NsPerOpMax:  ns[len(ns)-1],
		BytesPerOp:  int64(math.Round(median(field(func(e Entry) float64 { return float64(e.BytesPerOp) })))),
		AllocsPerOp: int64(math.Round(median(field(func(e Entry) float64 { return float64(e.AllocsPerOp) })))),
	}
	extra := map[string][]float64{}
	for _, e := range runs {
		for unit, v := range e.Extra {
			extra[unit] = append(extra[unit], v)
		}
	}
	for unit, v := range extra {
		sort.Float64s(v)
		if out.Extra == nil {
			out.Extra = make(map[string]float64, len(extra))
		}
		out.Extra[unit] = median(v)
	}
	return out
}

// median of a sorted, non-empty slice.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// runCompare diffs the latest run of every configuration in the ledger
// against its earliest recorded baseline. Exit status: 0 clean, 1
// regressions found, 2 unreadable ledger.
func runCompare(path string, threshold float64) int {
	records, err := ledger.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		return 2
	}
	if len(records) == 0 {
		fmt.Fprintf(os.Stderr, "benchjson: %s: empty ledger, nothing to compare\n", path)
		return 0
	}
	regs, compared := ledger.Compare(records, threshold)
	fmt.Printf("benchjson: %d records, %d configurations with history, threshold %.0f%%\n",
		len(records), compared, threshold*100)
	if len(regs) == 0 {
		fmt.Println("benchjson: no regressions")
		return 0
	}
	for _, r := range regs {
		fmt.Printf("REGRESSION %s\n", r)
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d regression(s) beyond %.0f%%\n", len(regs), threshold*100)
	return 1
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchjson: "+format+"\n", args...)
	os.Exit(1)
}
