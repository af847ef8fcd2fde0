package main

import (
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"
)

// The host a run lands on changes speed under it: on shared 2-vCPU
// virtual machines a fixed loop reads up to twice as slow for stretches
// of ten to thirty seconds, so the same code measured in two runs a few
// minutes apart can differ by more than any bound a benchmark could set.
// Each run therefore also times a fixed reference probe that does not
// touch the program, at every point where a pass settles the heap, and
// reports its time metrics as seconds on a host where the probe takes
// refProbe: measured time × refProbe / (the run's median probe time).
// A change to the program moves the measured times and leaves the probe
// as it was, so the scaled metrics move with it. The probe runs on every
// scheduler thread at once, because the executor's workers do too and a
// slow second CPU slows them.

// refProbe is about the probe's median time on the shared 2-vCPU x86-64
// VM (2.0 GHz) the benchmark was tuned on, where it read 3.6-4.4 ms, so
// that scaled metrics read close to that host's seconds.
const refProbe = 4 * time.Millisecond

// probe runs the reference work on GOMAXPROCS goroutines at once and
// returns the wall time until all of them finish.
func probe() time.Duration {
	n := runtime.GOMAXPROCS(0)
	start := time.Now()
	var wg sync.WaitGroup
	sums := make([]float64, n)
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sums[g] = probeWork()
		}(g)
	}
	wg.Wait()
	took := time.Since(start)
	for _, s := range sums {
		probeSink += s
	}
	return took
}

// probeWork is a fixed mix of what the program spends its time on:
// float parsing, a sort, string-keyed map inserts and scattered reads
// over an array larger than a core's private caches, so that it slows
// when neighbours contend for the shared cache and memory as well as
// when they contend for the core.
func probeWork() float64 {
	fs := make([]float64, len(probeStrs))
	for i, str := range probeStrs {
		fs[i], _ = strconv.ParseFloat(str, 64)
	}
	sort.Float64s(fs)
	m := make(map[string]int, 512)
	for i, str := range probeStrs[:2048] {
		m[str] += i
	}
	s := fs[len(fs)/2] + float64(len(m))
	x := uint64(88172645463325252)
	for i := 0; i < 1<<17; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		s += probeArr[x&(uint64(len(probeArr))-1)]
	}
	return s
}

var (
	probeSink float64
	probeArr  = func() []float64 {
		a := make([]float64, 1<<19) // 4 MB, every page written
		for i := range a {
			a[i] = float64(i % 97)
		}
		return a
	}()
	probeStrs = func() []string {
		out := make([]string, 4096)
		x := uint64(88172645463325252)
		for i := range out {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			out[i] = strconv.FormatFloat(float64(x%1000000)/997, 'g', -1, 64)
		}
		return out
	}()
)

// speedScale is what the run's measured times are multiplied by to read
// as seconds on the reference host: refProbe over the median probe time
// of every pass. It is 1 when no probe ran.
func speedScale(passes []*passStats) float64 {
	var all []float64
	for _, p := range passes {
		all = append(all, seconds(p.probes)...)
	}
	if m := median(all); m > 0 {
		return refProbe.Seconds() / m
	}
	return 1
}
