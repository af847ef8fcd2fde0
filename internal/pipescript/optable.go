package pipescript

import (
	"fmt"

	"catdb/internal/data"
)

// This file is the single source of op knowledge: every PipeScript
// statement kind is registered here with its parser arity, its static
// column footprint (reads/writes/removes/adds), whether it is a
// whole-table barrier, and its executor handler. The parser (knownOps),
// the executor dispatch (execStmt), the static analyzer (Analyze), and
// the DAG builder (dag.go) all consume this one table, so they cannot
// drift from each other. `make lint-dag` enforces that no op is wired
// up anywhere else.

// colRefs is the static column footprint of one statement: which
// columns it reads, mutates in place, removes from the table, and adds.
// prefixes lists name prefixes under which the op adds a data-dependent
// set of columns (one-hot/k-hot indicator names depend on the observed
// categories, so only the "col__" prefix is known statically).
type colRefs struct {
	reads    []string
	writes   []string
	removes  []string
	adds     []string
	prefixes []string
}

// names returns every statically known column name the footprint
// mentions, in reads/writes/removes/adds order (with duplicates).
func (r colRefs) names() []string {
	out := make([]string, 0, len(r.reads)+len(r.writes)+len(r.removes)+len(r.adds))
	out = append(out, r.reads...)
	out = append(out, r.writes...)
	out = append(out, r.removes...)
	out = append(out, r.adds...)
	return out
}

// opSpec describes one registered statement kind.
type opSpec struct {
	name    string
	minArgs int
	// pure ops touch no columns at all (pipeline/require/evaluate);
	// they become dependency-free DAG nodes.
	pure bool
	// encoder marks category encoders for the analyzer's DOUBLE_ENCODE
	// detection (onehot, khot, hash_encode, ordinal, target_encode).
	encoder bool
	// barrier, when non-nil and true for a statement, forces serial
	// whole-table execution: the op reads or mutates columns that cannot
	// be enumerated statically (row drops/appends, "all" forms, ...).
	barrier func(st Stmt) bool
	// refs derives the static column footprint for non-barrier
	// statements. target is the executor's label column ("" omits
	// implicit target reads, which is what the analyzer wants).
	refs func(st Stmt, target string) colRefs
	// stringAdds marks ops whose added columns hold strings
	// (split_composite parts still need encoding before train).
	stringAdds bool
	exec       func(e *Executor, st Stmt, c *execCtx) error
}

// opRegistry holds every registered op, keyed by statement keyword.
var opRegistry = map[string]*opSpec{}

// registerOp installs an op into the registry and the parser's arity
// table. It panics on incomplete specs so a miswired op fails at
// package init, not silently at schedule time.
func registerOp(spec opSpec) {
	if spec.exec == nil {
		panic("pipescript: op " + spec.name + " registered without an exec handler")
	}
	if !spec.pure && spec.refs == nil && spec.barrier == nil {
		panic("pipescript: op " + spec.name + " declares neither column refs nor a barrier")
	}
	if _, dup := opRegistry[spec.name]; dup {
		panic("pipescript: op " + spec.name + " registered twice")
	}
	s := spec
	opRegistry[spec.name] = &s
	knownOps[spec.name] = spec.minArgs
}

// isBarrierStmt reports whether the statement must run serially against
// the real train/test tables.
func (s *opSpec) isBarrierStmt(st Stmt) bool {
	return s.barrier != nil && s.barrier(st)
}

func alwaysBarrier(Stmt) bool { return true }

// inPlaceRefs is the footprint of ops that transform one named column
// in place (impute, scale <col>, winsorize, ...).
func inPlaceRefs(st Stmt, _ string) colRefs {
	col := st.Arg(0)
	return colRefs{reads: []string{col}, writes: []string{col}}
}

// colOrWholeTable is the footprint of ops whose first argument names
// either one column or a whole-table keyword ("all"/"all_numeric").
// The keyword form enumerates its columns at run time, so it has no
// static footprint — those statements are barriers and never reach the
// scheduler's resolver; the empty footprint is what the analyzer sees.
func colOrWholeTable(keyword string) func(Stmt, string) colRefs {
	return func(st Stmt, _ string) colRefs {
		if st.Arg(0) == keyword {
			return colRefs{}
		}
		return inPlaceRefs(st, "")
	}
}

// replaceRefs is the footprint of encoders that drop the source column
// and add one derived column with a fixed suffix.
func replaceRefs(suffix string) func(Stmt, string) colRefs {
	return func(st Stmt, _ string) colRefs {
		col := st.Arg(0)
		return colRefs{reads: []string{col}, removes: []string{col}, adds: []string{col + suffix}}
	}
}

// prefixEncodeRefs is the footprint of one-hot/k-hot: the source column
// is dropped and an unknown set of "col__<cat>" indicators is added.
func prefixEncodeRefs(st Stmt, _ string) colRefs {
	col := st.Arg(0)
	return colRefs{reads: []string{col}, removes: []string{col}, prefixes: []string{col + "__"}}
}

// deferredStep is a recorded fit/transform step whose test-side
// application (recordAndApply) is postponed until the DAG merge so the
// artifact step order and test-table mutation order stay identical to
// linear execution.
type deferredStep struct {
	step FittedStep
	line int
	code string // RuntimeError code used to wrap apply errors; "" = raw
}

// deferredCap is a postponed feature-count guard: one-hot/k-hot bound
// the encoded width against the table's column count, which during DAG
// execution is only known at merge time.
type deferredCap struct {
	line int
	kind string // "one-hot" or "k-hot"
	col  string
	adds int
}

// nodeBuffer collects the side effects a DAG node defers to the merge.
type nodeBuffer struct {
	steps []deferredStep
	cap   *deferredCap
}

// execCtx carries the per-statement execution environment. On the
// linear path tr/te are the real tables and side effects apply
// immediately; on the DAG path tr is the node's private column view,
// te is nil, and apply/capOK buffer into node for the ordered merge.
type execCtx struct {
	e       *Executor
	tr      *data.Table
	te      *data.Table
	maxOH   int
	res     *Result
	trained *bool
	node    *nodeBuffer // non-nil only while running as a DAG node
}

// apply records a fitted step and applies it to the test table (linear
// path), or buffers it for the merge (DAG path). code wraps any apply
// error into a RuntimeError; "" returns the raw error unchanged.
func (c *execCtx) apply(step FittedStep, line int, code string) error {
	if c.node != nil {
		c.node.steps = append(c.node.steps, deferredStep{step: step, line: line, code: code})
		return nil
	}
	if err := c.e.recordAndApply(step, c.te); err != nil {
		if code == "" {
			return err
		}
		return rtErr(line, code, "%v", err)
	}
	return nil
}

// capOK enforces the encoded-feature cap against the current column
// count (linear path) or defers the check to the merge (DAG path).
func (c *execCtx) capOK(line int, kind, col string, adds int) error {
	if c.node != nil {
		c.node.cap = &deferredCap{line: line, kind: kind, col: col, adds: adds}
		return nil
	}
	if c.tr.NumCols()+adds > maxEncodedFeatures {
		return capErr(line, kind, col)
	}
	return nil
}

func capErr(line int, kind, col string) error {
	return rtErr(line, ErrTooManyFeatures, "%s of %q would exceed %d features", kind, col, maxEncodedFeatures)
}

func init() {
	// Core statements (the paper's pipeline vocabulary).
	registerOp(opSpec{name: "pipeline", minArgs: 1, pure: true, exec: (*Executor).execNop})
	registerOp(opSpec{name: "evaluate", minArgs: 0, pure: true, exec: (*Executor).execNop})
	registerOp(opSpec{name: "require", minArgs: 1, pure: true, exec: (*Executor).execRequire})

	registerOp(opSpec{name: "impute", minArgs: 1, refs: inPlaceRefs, exec: (*Executor).execImpute})
	registerOp(opSpec{name: "impute_all", minArgs: 0, barrier: alwaysBarrier, exec: (*Executor).execImputeAll})

	// clip_outliers <col>|all: the "all" form touches every numeric
	// column; the single-column form clips one column in place.
	registerOp(opSpec{name: "clip_outliers", minArgs: 1,
		barrier: func(st Stmt) bool { return st.Arg(0) == "all" },
		refs:    colOrWholeTable("all"), exec: (*Executor).execClipOutliers})
	// remove_outliers drops train rows, so it is always a barrier; its
	// refs exist for the analyzer's column checks only.
	registerOp(opSpec{name: "remove_outliers", minArgs: 1,
		barrier: alwaysBarrier, refs: colOrWholeTable("all"),
		exec: (*Executor).execRemoveOutliers})
	registerOp(opSpec{name: "scale", minArgs: 1,
		barrier: func(st Stmt) bool { return st.Arg(0) == "all_numeric" },
		refs:    colOrWholeTable("all_numeric"), exec: (*Executor).execScale})

	registerOp(opSpec{name: "onehot", minArgs: 1, encoder: true,
		refs: prefixEncodeRefs, exec: (*Executor).execOnehot})
	registerOp(opSpec{name: "khot", minArgs: 1, encoder: true,
		refs: prefixEncodeRefs, exec: (*Executor).execKhot})
	registerOp(opSpec{name: "hash_encode", minArgs: 1, encoder: true,
		refs: replaceRefs("__hash"), exec: (*Executor).execHashEncode})
	registerOp(opSpec{name: "ordinal", minArgs: 1, encoder: true,
		refs: replaceRefs("__ord"), exec: (*Executor).execOrdinal})

	registerOp(opSpec{name: "drop", minArgs: 1,
		refs: func(st Stmt, _ string) colRefs {
			return colRefs{reads: []string{st.Arg(0)}, removes: []string{st.Arg(0)}}
		}, exec: (*Executor).execDrop})
	registerOp(opSpec{name: "drop_constant", minArgs: 0, barrier: alwaysBarrier, exec: (*Executor).execDropConstant})
	registerOp(opSpec{name: "drop_sparse", minArgs: 0, barrier: alwaysBarrier, exec: (*Executor).execDropSparse})

	registerOp(opSpec{name: "split_composite", minArgs: 1, stringAdds: true,
		refs: func(st Stmt, _ string) colRefs {
			col := st.Arg(0)
			names := splitNames(st, col)
			return colRefs{reads: []string{col}, removes: []string{col}, adds: names[:]}
		}, exec: (*Executor).execSplitComposite})
	registerOp(opSpec{name: "extract_token", minArgs: 1, refs: inPlaceRefs, exec: (*Executor).execExtractToken})
	registerOp(opSpec{name: "dedup_values", minArgs: 1, refs: inPlaceRefs, exec: (*Executor).execDedupValues})

	registerOp(opSpec{name: "rebalance", minArgs: 0, barrier: alwaysBarrier, exec: (*Executor).execRebalance})
	registerOp(opSpec{name: "augment", minArgs: 0, barrier: alwaysBarrier, exec: (*Executor).execAugment})
	registerOp(opSpec{name: "select_topk", minArgs: 0, barrier: alwaysBarrier, exec: (*Executor).execSelectTopK})
	registerOp(opSpec{name: "train", minArgs: 0, barrier: alwaysBarrier, exec: (*Executor).execTrain})

	// Extended statements beyond the paper's core set (ops_extra.go).
	registerOp(opSpec{name: "bin_numeric", minArgs: 1, refs: inPlaceRefs, exec: (*Executor).execBinNumeric})
	registerOp(opSpec{name: "log_transform", minArgs: 1, refs: inPlaceRefs, exec: (*Executor).execLogTransform})
	registerOp(opSpec{name: "interaction", minArgs: 2,
		refs: func(st Stmt, _ string) colRefs {
			a, b := st.Arg(0), st.Arg(1)
			name := fmt.Sprintf("%s_%s_%s", a, st.Opt("op", "product"), b)
			return colRefs{reads: []string{a, b}, adds: []string{name}}
		}, exec: (*Executor).execInteraction})
	registerOp(opSpec{name: "drop_duplicates", minArgs: 0, barrier: alwaysBarrier, exec: (*Executor).execDropDuplicates})
	registerOp(opSpec{name: "winsorize", minArgs: 1, refs: inPlaceRefs, exec: (*Executor).execWinsorize})
	registerOp(opSpec{name: "target_encode", minArgs: 1, encoder: true,
		refs: func(st Stmt, target string) colRefs {
			col := st.Arg(0)
			r := colRefs{reads: []string{col}, removes: []string{col}, adds: []string{col + "__tenc"}}
			if target != "" {
				r.reads = append(r.reads, target)
			}
			return r
		}, exec: (*Executor).execTargetEncode})
}
