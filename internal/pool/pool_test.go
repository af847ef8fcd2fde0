package pool

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"catdb/internal/obs"
)

// setProcs sets GOMAXPROCS to n for the rest of the test (n = 0 leaves
// it as it is). The pool sizes every batch from GOMAXPROCS, so this is
// how a test picks its worker count.
func setProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func TestMapOrder(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		setProcs(t, workers)
		out, err := Map(33, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 33 {
			t.Fatalf("workers=%d: %d results", workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := Map[int](0, func(i int) (int, error) { t.Fatal("called"); return 0, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("out=%v err=%v", out, err)
	}
}

func TestMapReturnsLowestIndexError(t *testing.T) {
	// Several cells fail; the reported error must be the one a serial
	// loop would have hit first, regardless of scheduling.
	for _, workers := range []int{1, 4, 16} {
		setProcs(t, workers)
		_, err := Map(100, func(i int) (int, error) {
			if i == 7 || i == 40 || i == 99 {
				return 0, fmt.Errorf("cell %d", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "cell 7" {
			t.Fatalf("workers=%d: err = %v, want cell 7", workers, err)
		}
	}
}

// TestMapRecoversPanics runs a batch where index 3 panics and index 5
// returns an error, serially and on four workers, with metrics
// installed. The panic must come back as the batch's error — the
// lowest failing index, carrying the value and the panicking stack —
// and the active-worker and queue-depth gauges must return to their
// pre-batch values.
func TestMapRecoversPanics(t *testing.T) {
	reg := obs.NewRegistry()
	SetMetrics(reg)
	defer SetMetrics(nil)
	active := reg.Gauge("catdb_pool_active_workers")
	queue := reg.Gauge("catdb_pool_queue_depth")
	for _, workers := range []int{1, 4} {
		setProcs(t, workers)
		activeBefore, queueBefore := active.Value(), queue.Value()
		out, err := Map(40, func(i int) (int, error) {
			switch i {
			case 3:
				panicInTask(i)
			case 5:
				return 0, fmt.Errorf("cell %d", i)
			}
			return i, nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want a *PanicError", workers, err)
		}
		if out != nil || pe.Index != 3 || pe.Value != "task 3 broke" {
			t.Fatalf("workers=%d: out=%v, panic index %d value %v; want nil, 3, \"task 3 broke\"", workers, out, pe.Index, pe.Value)
		}
		if !strings.Contains(string(pe.Stack), "panicInTask") {
			t.Fatalf("workers=%d: stack does not show the panic site:\n%s", workers, pe.Stack)
		}
		if want := "pool: task 3 panicked: task 3 broke"; err.Error() != want {
			t.Fatalf("workers=%d: message %q, want %q", workers, err.Error(), want)
		}
		if a, q := active.Value(), queue.Value(); a != activeBefore || q != queueBefore {
			t.Fatalf("workers=%d: active workers %d (was %d), queue depth %d (was %d)", workers, a, activeBefore, q, queueBefore)
		}
	}
	// Each, with a panic behind an earlier error: the lower index, the
	// error, still wins.
	setProcs(t, 4)
	err := Each(10, func(i int) error {
		if i == 2 {
			return errors.New("cell 2")
		}
		if i == 6 {
			panicInTask(i)
		}
		return nil
	})
	if err == nil || err.Error() != "cell 2" {
		t.Fatalf("Each: err = %v, want cell 2", err)
	}
}

func panicInTask(i int) { panic(fmt.Sprintf("task %d broke", i)) }

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	var inFlight, peak int64
	var mu sync.Mutex
	setProcs(t, workers)
	_, err := Map(50, func(i int) (int, error) {
		cur := atomic.AddInt64(&inFlight, 1)
		mu.Lock()
		if cur > peak {
			peak = cur
		}
		mu.Unlock()
		defer atomic.AddInt64(&inFlight, -1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak > workers {
		t.Fatalf("peak concurrency %d > %d workers", peak, workers)
	}
}

func TestEach(t *testing.T) {
	setProcs(t, 4)
	var n int64
	if err := Each(20, func(i int) error { atomic.AddInt64(&n, 1); return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 20 {
		t.Fatalf("ran %d cells", n)
	}
	wantErr := errors.New("boom")
	if err := Each(5, func(i int) error { return wantErr }); !errors.Is(err, wantErr) {
		t.Fatalf("err = %v", err)
	}
}

func TestDeriveSeedStability(t *testing.T) {
	a := DeriveSeed(1, 0, "Diabetes", "gpt-4o")
	b := DeriveSeed(1, 0, "Diabetes", "gpt-4o")
	if a != b {
		t.Fatal("DeriveSeed not stable")
	}
	if DeriveSeed(1, 1, "Diabetes", "gpt-4o") == a {
		t.Fatal("iteration must change the seed")
	}
	if DeriveSeed(1, 0, "CMC", "gpt-4o") == a {
		t.Fatal("dataset must change the seed")
	}
	// Concatenation ambiguity: ("ab","c") and ("a","bc") must differ.
	if DeriveSeed(1, 0, "ab", "c") == DeriveSeed(1, 0, "a", "bc") {
		t.Fatal("part boundaries must be significant")
	}
}
