// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (§5). Each experiment has a typed
// runner returning structured rows plus a printer that renders them in
// the paper's layout. Dataset sizes are scaled via Config.Scale (see
// DESIGN.md: row counts are scaled, characteristics are not), so the
// comparisons preserve the paper's shape rather than its absolute
// numbers.
package bench

import (
	"fmt"
	"io"
	"strings"
	"time"
	"unicode/utf8"

	"catdb/internal/obs"
	"catdb/internal/obs/ledger"
	"catdb/internal/profile"
)

// Config tunes an experiment run.
type Config struct {
	// Scale multiplies the registry row counts (1.0 = full scaled sizes;
	// the quick default used by the benches is 0.2).
	Scale float64
	// Seed drives every random choice; a fixed seed reproduces runs
	// bit-for-bit.
	Seed int64
	// Iterations for the repeated-run experiments (Figures 11-12).
	Iterations int
	// Fast trims dataset lists and iteration counts for CI runs.
	Fast bool
	// ProfileCache shares Algorithm 1 profiling across cells: every cell
	// that loads the same (dataset, scale) at the same seed and options
	// reuses one computed profile instead of redoing the pass. Defaults to
	// a fresh cache per experiment; pass one cache to several experiments
	// to share across them. Profiles are keyed by table content, so
	// corrupted/mutated variants never alias (see profile.Cache).
	ProfileCache *profile.Cache
	// Out receives the rendered tables (defaults to io.Discard).
	Out io.Writer
	// Tracer, when set, records one "bench:<phase>" span per experiment
	// phase with a "cell" child per experiment cell; instrumented runners
	// nest their run subtree (refine/profile/generate/debug-attempt/exec)
	// under the cell. Nil disables tracing; experiment results are
	// bit-identical either way.
	Tracer *obs.Tracer
	// Metrics, when set, receives harness counters and latency histograms
	// (catdb_bench_*) plus everything the instrumented runners, LLM
	// middleware, profile cache, and pipeline executors record.
	Metrics *obs.Registry
	// Progress, when set, receives one line per completed experiment cell
	// (the bench CLI points it at stderr under -progress). Lines report
	// completion order, which is scheduling-dependent; experiment results
	// remain deterministic.
	Progress io.Writer
	// Ledger, when set, appends one record per completed core.Run —
	// config hash, stage seconds, token counts, fix counts, and the
	// final metric snapshot — to the persistent run ledger
	// (`benchjson -compare` diffs the latest run against this history).
	// Nil disables recording; results are bit-identical either way.
	Ledger *ledger.Writer
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 0.2
	}
	if c.Iterations <= 0 {
		c.Iterations = 10
	}
	if c.Fast && c.Iterations > 3 {
		c.Iterations = 3
	}
	if c.ProfileCache == nil {
		c.ProfileCache = profile.NewCache()
	}
	if c.Metrics != nil {
		// Cache lookups surface as catdb_profile_cache_{hits,misses}_total.
		// Only attach when metrics are on, so an unobserved experiment
		// never detaches a registry another experiment installed on a
		// shared cache.
		c.ProfileCache.SetMetrics(c.Metrics)
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
	return c
}

// table is a simple fixed-width table renderer.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) render(w io.Writer, title string) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if w := utf8.RuneCountInString(c); i < len(widths) && w > widths[i] {
				widths[i] = w
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
}

// pad right-pads to w columns measured in runes, not bytes, so non-ASCII
// cells (dataset names, τ₂ variant labels) don't misalign the table.
func pad(s string, w int) string {
	n := utf8.RuneCountInString(s)
	if n >= w {
		return s
	}
	return s + strings.Repeat(" ", w-n)
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

func secs(d time.Duration) string { return fmt.Sprintf("%.2f", d.Seconds()) }

func orNA(failed bool, reason, value string) string {
	if failed {
		if reason == "OOM" || strings.Contains(reason, "Mem") {
			return "OOM"
		}
		if strings.Contains(reason, "regression") {
			return "n/s"
		}
		return "N/A"
	}
	return value
}
