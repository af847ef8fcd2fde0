package pipescript

import (
	"errors"
	"reflect"
	"testing"

	"catdb/internal/data"
	"catdb/internal/obs"
	"catdb/internal/pool"
)

const stmtSrc = `pipeline "stmt"
impute "num" strategy=median
dedup_values "cat"
onehot "cat"
khot "lst"
train model=naive_bayes target="y"
evaluate metric=auto
`

// Every executed statement gets one stmt span under Executor.Span, in
// program order, with its op and line; train is one of them.
func TestStmtSpans(t *testing.T) {
	tr, te := split(messyTable(300, 4), 5)
	p := mustParse(t, stmtSrc)
	tracer := obs.New()
	root := tracer.Root("exec")
	ex := &Executor{Target: "y", Task: data.Multiclass, Seed: 1, Span: root}
	if _, err := ex.Execute(p, tr, te); err != nil {
		t.Fatal(err)
	}
	root.End()
	var ops []string
	for _, s := range tracer.Snapshot() {
		if s.Name != "stmt" {
			continue
		}
		if s.Parent != 1 || s.Running {
			t.Fatalf("stmt span %+v: want an ended child of the exec span", s)
		}
		ops = append(ops, s.Attrs["op"].(string))
		if line := s.Attrs["line"].(int64); line != int64(len(ops)) {
			t.Fatalf("stmt span %d (%s) has line %d", len(ops), ops[len(ops)-1], line)
		}
	}
	want := []string{"pipeline", "impute", "dedup_values", "onehot", "khot", "train", "evaluate"}
	if !reflect.DeepEqual(ops, want) {
		t.Fatalf("stmt spans %v, want %v", ops, want)
	}
}

// A panic in an op body, or in model code that re-panics a pool task's
// panic on its caller (as ml.forChunks does), fails the statement with
// E_OP_PANIC at its own line instead of crashing the process.
func TestOpPanicContained(t *testing.T) {
	for _, tc := range []struct {
		op   string
		line int
		fn   func(e *Executor, st Stmt, c *execCtx) error
	}{
		{"impute", 2, func(*Executor, Stmt, *execCtx) error { panic("boom") }},
		{"train", 6, func(*Executor, Stmt, *execCtx) error {
			if err := pool.Each(4, func(int) error { panic("boom") }); err != nil {
				panic(err)
			}
			return nil
		}},
	} {
		t.Run(tc.op, func(t *testing.T) {
			// Patch the registry entry in place and restore it, so no
			// op is registered outside optable.go (lint-dag).
			spec := opRegistry[tc.op]
			orig := spec.exec
			spec.exec = tc.fn
			t.Cleanup(func() { spec.exec = orig })
			for _, w := range dagWorkerCounts {
				tr, te := split(messyTable(200, 2), 3)
				reg := obs.NewRegistry()
				setProcs(t, w)
				ex := &Executor{Target: "y", Task: data.Multiclass, Seed: 1, Metrics: reg}
				_, err := ex.Execute(mustParse(t, stmtSrc), tr, te)
				var re *RuntimeError
				if !errors.As(err, &re) || re.Code != ErrOpPanic || re.Line != tc.line {
					t.Fatalf("workers=%d: err = %v, want %s at line %d", w, err, ErrOpPanic, tc.line)
				}
				if n := reg.Counter("catdb_pipescript_exec_errors_total", "code", ErrOpPanic).Value(); n != 1 {
					t.Fatalf("workers=%d: %s error counter = %d, want 1", w, ErrOpPanic, n)
				}
			}
		})
	}
}
