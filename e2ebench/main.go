// Command e2ebench is CatDB's end-to-end benchmark. One invocation sets up
// a workload from a seed, measures passes of the CatDB user flow over it
// for a fixed time, checks every output, and prints one JSON result as the
// last line of standard output:
//
//	bash e2ebench/run.sh --workload gen-repair --seed 1 --seconds 40 --trace 0
//
// A pass is what a library user does with each dataset of the workload:
// read its CSV files (data.ReadCSV), generate a pipeline for every grid
// cell with a fresh LLM client and runner (core.Runner.Run, as
// catdb.PipGen does), then deploy one generated pipeline: refine the data,
// fit the pipeline into a serving artifact (pipescript.Executor.Fit) and
// score the held-out rows with FittedPipeline.Predict, in 512-row batches
// and one row at a time. One client issues every call back to back
// (a closed loop); the executor keeps its default worker count.
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// tracing off, their times scaled to a reference host by a probe timed
// between the calls of every pass (probe.go). With --trace 1 it carries
// the per-layer metrics of one further, traced pass (trace.go), and a
// table on standard error pairs each of them with the end-to-end metric
// it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload name: "+workloadNames())
		seed    = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = flag.Int("seconds", 20, "measurement time in seconds")
		trace   = flag.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics of a traced pass")
		record  = flag.String("record", "", "merge this seed's per-cell records into the given cells file")
	)
	flag.Parse()
	w := findWorkload(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}

	// Set-up is repeated and its median reported, so that work moved into
	// set-up shows as a regression of setup_s rather than hiding in noise.
	var setups []float64
	var in *inputs
	setupStart := time.Now()
	for i := 0; i < setupRepeats || time.Since(setupStart) < setupTime; i++ {
		in = nil
		runtime.GC()
		start := time.Now()
		var err error
		in, err = w.setup(*seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: set-up: %v\n", err)
			return 1
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	exp, err := loadExpected()
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	chk := &checker{want: exp.cells(w.Name, *seed)}

	budget := time.Duration(*seconds) * time.Second
	passes := measure(w, in, budget, chk)
	var res result
	all := passes
	if *trace == 0 {
		res.Metrics = endToEnd(passes, setups)
	} else {
		tp := tracedPass(w, in, chk)
		res.Metrics = tp.perLayer(passes)
		tp.report(os.Stderr, res.Metrics)
		all = append(all, tp.pass)
	}
	for _, p := range all {
		res.Attempted += p.attempted
		res.Failed += p.failed
	}
	chk.checkPasses(all)
	report(os.Stderr, w, *seed, all, chk)
	if *record != "" && chk.ok() && res.Failed == 0 {
		if err := recordCells(*record, w, *seed, passes[0].cells); err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: record: %v\n", err)
			return 1
		}
	}
	res.Correct = chk.ok() && res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// Set-up runs at least setupRepeats times and until setupTime has
// passed; setup_s is the median. A 10 ms set-up thus runs about a
// hundred times, a 1 s one three times.
const (
	setupRepeats = 3
	setupTime    = time.Second
)

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measure runs untraced passes: at least minPasses, and more while the
// next would end no later than half a median pass after the budget.
func measure(w *workload, in *inputs, budget time.Duration, chk *checker) []*passStats {
	var passes []*passStats
	var walls []float64
	start := time.Now()
	for {
		p := w.pass(in, nil, chk)
		passes = append(passes, p)
		walls = append(walls, p.wall.Seconds())
		next := time.Duration(median(walls) * float64(time.Second))
		if len(passes) >= minPasses && time.Since(start)+next/2 > budget {
			return passes
		}
	}
}

// minPasses is the fewest passes a run measures: every call's time is
// the median of at least this many.
const minPasses = 3
