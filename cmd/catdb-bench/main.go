// Command catdb-bench regenerates the paper's tables and figures (§5).
//
// Usage:
//
//	catdb-bench -exp all -scale 0.2 -seed 1 -iterations 10
//	catdb-bench -exp fig10,table5,table8 -fast
//
// Experiments: fig9, fig10, table2 (incl. fig8), table4, table5 (incl.
// table6), fig11 (incl. fig12), table7 (incl. fig13), table8, fig14, and
// the design-choice ablation (ablation).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"catdb/internal/bench"
	"catdb/internal/obs"
	"catdb/internal/obs/ledger"
	"catdb/internal/obs/opsserver"
	"catdb/internal/pool"
)

type experiment struct {
	name string
	run  func(bench.Config) error
}

func main() {
	exp := flag.String("exp", "all", "comma-separated experiments or 'all'")
	scale := flag.Float64("scale", 0.2, "dataset row-count scale factor")
	seed := flag.Int64("seed", 1, "random seed")
	iters := flag.Int("iterations", 10, "iterations for fig11/fig12/table2")
	fast := flag.Bool("fast", false, "trimmed datasets and iterations")
	outPath := flag.String("out", "", "also write the report to this file")
	progress := flag.Bool("progress", false, "print one line per completed experiment cell to stderr")
	traceOut := flag.String("trace-out", "", "write per-cell span traces to this file (.jsonl = JSON lines, otherwise a human-readable tree)")
	metricsOut := flag.String("metrics-out", "", "write harness metrics in Prometheus text format to this file")
	listen := flag.String("listen", "", "serve the live ops plane on this address while experiments run (/metrics, /api/spans, /api/runs, /debug/pprof; results are bit-identical with or without it)")
	ledgerPath := flag.String("ledger", "", "append one JSONL record per completed run to this persistent run ledger (compare runs with `benchjson -compare`)")
	flag.Parse()

	var out io.Writer = os.Stdout
	var file *os.File
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "catdb-bench:", err)
			os.Exit(1)
		}
		file = f
		out = io.MultiWriter(os.Stdout, f)
	}
	var tracer *obs.Tracer
	var metrics *obs.Registry
	// -listen implies live tracing and metrics even without the file
	// exporters: the ops server's whole point is watching a run that
	// wasn't configured to save anything.
	if *traceOut != "" || *listen != "" {
		tracer = obs.New()
	}
	if *metricsOut != "" || *listen != "" {
		metrics = obs.NewRegistry()
		// The worker pool is process-wide infrastructure, so its queue
		// and utilization gauges are installed process-wide too.
		pool.SetMetrics(metrics)
	}
	var ledgerW *ledger.Writer
	if *ledgerPath != "" {
		w, err := ledger.OpenWriter(*ledgerPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "catdb-bench:", err)
			os.Exit(1)
		}
		ledgerW = w
	}
	if *listen != "" {
		srv, err := opsserver.Start(*listen, opsserver.Options{
			Registry: metrics, Tracer: tracer, LedgerPath: *ledgerPath,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "catdb-bench:", err)
			os.Exit(1)
		}
		defer srv.Close()
		col := opsserver.NewCollector(metrics)
		col.Start(time.Second)
		defer col.Stop()
		fmt.Fprintf(os.Stderr, "ops server listening on %s\n", srv.URL())
	}
	var progressW io.Writer
	if *progress {
		progressW = os.Stderr
	}
	cfg := bench.Config{
		Scale: *scale, Seed: *seed, Iterations: *iters, Fast: *fast, Out: out,
		Tracer: tracer, Metrics: metrics, Progress: progressW, Ledger: ledgerW,
	}

	experiments := []experiment{
		{"fig9", func(c bench.Config) error { _, err := bench.RunFig9Profiling(c); return err }},
		{"fig10", func(c bench.Config) error { _, err := bench.RunFig10MetadataImpact(c); return err }},
		{"table2", func(c bench.Config) error { _, err := bench.RunTable2ErrorTraces(c); return err }},
		{"table4", func(c bench.Config) error { _, err := bench.RunTable4Refinement(c); return err }},
		{"table5", func(c bench.Config) error { _, err := bench.RunTable5Cleaning(c); return err }},
		{"fig11", func(c bench.Config) error { _, err := bench.RunFig11TenIterations(c); return err }},
		{"table7", func(c bench.Config) error { _, err := bench.RunTable7SingleIteration(c); return err }},
		{"table8", func(c bench.Config) error { _, err := bench.RunTable8EndToEnd(c); return err }},
		{"fig14", func(c bench.Config) error { _, err := bench.RunFig14Robustness(c); return err }},
		{"ablation", func(c bench.Config) error { _, err := bench.RunAblation(c); return err }},
	}
	want := map[string]bool{}
	for _, name := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(name)] = true
	}
	ranAny := false
	for _, e := range experiments {
		if !want["all"] && !want[e.name] {
			continue
		}
		ranAny = true
		start := time.Now()
		fmt.Fprintf(out, "\n### experiment %s (scale=%.2f seed=%d) ###\n", e.name, *scale, *seed)
		if err := e.run(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "catdb-bench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Fprintf(out, "[%s completed in %s]\n", e.name, time.Since(start).Round(time.Millisecond))
	}
	if !ranAny {
		fmt.Fprintln(os.Stderr, "catdb-bench: no matching experiments; known:", names(experiments))
		os.Exit(2)
	}
	if err := writeObsOutputs(tracer, metrics, *traceOut, *metricsOut); err != nil {
		fmt.Fprintln(os.Stderr, "catdb-bench:", err)
		os.Exit(1)
	}
	if ledgerW != nil {
		// Close reports the first append error retained during the run —
		// a full disk surfaces here instead of failing experiment cells.
		if err := ledgerW.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "catdb-bench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "run ledger appended to %s\n", *ledgerPath)
	}
	if file != nil {
		if err := file.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "catdb-bench:", err)
			os.Exit(1)
		}
	}
}

// writeObsOutputs exports the collected span trace (JSONL or tree by
// file extension) and the Prometheus metrics snapshot.
func writeObsOutputs(tracer *obs.Tracer, metrics *obs.Registry, tracePath, metricsPath string) error {
	if tracer != nil && tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		if strings.HasSuffix(tracePath, ".jsonl") {
			err = tracer.WriteJSONL(f)
		} else {
			err = tracer.WriteTree(f)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "trace written to %s (%d spans)\n", tracePath, tracer.Len())
	}
	if metrics != nil && metricsPath != "" {
		f, err := os.Create(metricsPath)
		if err != nil {
			return err
		}
		err = metrics.WriteProm(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "metrics written to %s\n", metricsPath)
	}
	return nil
}

func names(exps []experiment) string {
	out := make([]string, len(exps))
	for i, e := range exps {
		out[i] = e.name
	}
	return strings.Join(out, ", ")
}
