package main

import (
	"bufio"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// stopwatch accumulates time while running.
type stopwatch struct {
	total   time.Duration
	since   time.Time
	running bool
}

func (s *stopwatch) start() {
	if !s.running {
		s.since, s.running = time.Now(), true
	}
}

// stop pauses the stopwatch and returns the time accumulated so far.
func (s *stopwatch) stop() time.Duration {
	if s.running {
		s.total += time.Since(s.since)
		s.running = false
	}
	return s.total
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func passWalls(passes []*passStats) []float64 {
	out := make([]float64, len(passes))
	for i, p := range passes {
		out[i] = p.wall.Seconds()
	}
	return out
}

const (
	allocsMetric = "/gc/heap/allocs:bytes"
	cyclesMetric = "/gc/cycles/total:gc-cycles"
	pausesMetric = "/gc/pauses:seconds"
)

// heapAllocBytes is the cumulative count of heap bytes allocated.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: allocsMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// rtReading is a snapshot of the runtime counters the traced pass reads.
type rtReading struct {
	cycles uint64
	pauseS float64 // total GC pause, from the pause histogram's bucket midpoints
}

func readRuntime() rtReading {
	s := []metrics.Sample{{Name: cyclesMetric}, {Name: pausesMetric}}
	metrics.Read(s)
	r := rtReading{cycles: s[0].Value.Uint64()}
	if s[1].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[1].Value.Float64Histogram()
		for i, n := range h.Counts {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			switch {
			case math.IsInf(lo, -1):
				lo = hi
			case math.IsInf(hi, 1):
				hi = lo
			}
			r.pauseS += float64(n) * (lo + hi) / 2
		}
	}
	return r
}

// peakRSSMB is the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}

// callMedians returns, for every call a pass makes, its median time in
// seconds across the passes. Shared virtual machines have stretches of
// ten to thirty seconds in which a CPU runs at up to half speed. A
// call's fastest repeat depends on whether a run happened to catch a
// fast stretch, which splits runs into two groups; its median over
// passes spread across the whole run does not.
func callMedians(passes []*passStats, times func(*passStats) []time.Duration) []float64 {
	n := len(times(passes[0]))
	out := make([]float64, n)
	for i := range out {
		var xs []float64
		for _, p := range passes {
			if t := times(p); i < len(t) {
				xs = append(xs, t[i].Seconds())
			}
		}
		out[i] = median(xs)
	}
	return out
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// endToEnd computes the end-to-end metrics from the untraced passes.
// Every call's time is its median across passes (callMedians); pass_s is
// the sum of those plus the median time spent between calls, and the
// single-row percentiles are taken over the requests' median times.
// Every time, and every rate's time, is scaled to the reference host by
// speedScale; set-up is scaled by the same factor.
func endToEnd(passes []*passStats, setups []float64) map[string]metric {
	k := speedScale(passes)
	lists := []func(*passStats) []time.Duration{
		func(p *passStats) []time.Duration { return p.ingestT },
		func(p *passStats) []time.Duration { return p.runT },
		func(p *passStats) []time.Duration { return p.refineT },
		func(p *passStats) []time.Duration { return p.fitT },
		func(p *passStats) []time.Duration { return p.batchT },
		func(p *passStats) []time.Duration { return p.rowLat },
	}
	runs, fits, batches, rows := lists[1], lists[3], lists[4], lists[5]
	passS := 0.0
	for _, l := range lists {
		passS += sum(callMedians(passes, l))
	}
	var between, ingest, allocs []float64
	for _, p := range passes {
		ingest = append(ingest, p.ingestMed.Seconds())
		calls := 0.0
		for _, l := range lists {
			calls += sum(seconds(l(p)))
		}
		between = append(between, p.wall.Seconds()-calls)
		allocs = append(allocs, float64(p.allocBytes)/1e6)
	}
	passS += median(between)
	var tokens, scores []float64
	for _, c := range passes[0].cells {
		tokens = append(tokens, float64(c.Tokens))
		scores = append(scores, c.Score)
	}
	lat := callMedians(passes, rows)
	return map[string]metric{
		"pass_s":                   {k * passS, "s"},
		"run_s.p50":                {k * median(callMedians(passes, runs)), "s"},
		"tokens_per_run":           {mean(tokens), "tokens"},
		"score_mean":               {mean(scores), "score"},
		"alloc_mb_per_pass":        {median(allocs), "MB"},
		"peak_rss_mb":              {peakRSSMB(), "MB"},
		"setup_s":                  {k * median(setups), "s"},
		"ingest_mb_per_s":          {float64(passes[0].bytes) / 1e6 / (k * median(ingest)), "MB/s"},
		"fit_s":                    {k * sum(callMedians(passes, fits)), "s"},
		"predict_batch_rows_per_s": {float64(passes[0].batchRows) / (k * sum(callMedians(passes, batches))), "rows/s"},
		"predict_row_us.p50":       {k * quantile(lat, 0.5) * 1e6, "us"},
		"predict_row_us.p99":       {k * quantile(lat, 0.99) * 1e6, "us"},
	}
}
