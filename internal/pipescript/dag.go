package pipescript

import (
	"fmt"
	"sort"
	"strings"
)

// This file lowers a linear PipeScript program into a dependency DAG.
// The program is first split into segments at barrier statements
// (whole-table ops: row drops/appends, "all" forms, train). Within a
// segment, each statement's column footprint (optable.go refs) yields
// edges: statement j depends on an earlier statement i when i writes,
// removes, or adds a column that j touches, or j writes/removes a
// column that i reads. Read-read sharing carries no edge — column
// summaries memoize through atomic pointers, so concurrent read-only
// access (including racing identical summary computations) is safe.
//
// Resolution is intentionally conservative: if any referenced column
// cannot be proven present at its statement (or an added name could
// collide — e.g. with another add, an existing column, or a one-hot's
// data-dependent "col__" output prefix), the whole segment falls back
// to linear execution. Fallback is never an error: the linear path
// raises exactly the message the program would have raised anyway, so
// results and errors are independent of scheduling.

// dagNode is one schedulable statement inside a segment.
type dagNode struct {
	idx  int // statement index in the program (error-ordering key)
	st   Stmt
	spec *opSpec
	refs colRefs
	deps []dagDep // earlier nodes this one must wait for
}

type dagDep struct {
	node int    // index into the segment's node slice
	col  string // first conflicting column (for rendering)
}

// segment is a maximal run of non-barrier statements, optionally
// terminated by one barrier statement.
type segment struct {
	stmts   []Stmt
	barrier *Stmt
}

// segmentProgram splits the statement list at barriers. With serial
// set every statement is a barrier: one empty segment per statement.
func segmentProgram(p *Program, serial bool) []segment {
	var segs []segment
	cur := segment{}
	for i := range p.Stmts {
		st := p.Stmts[i]
		spec := opRegistry[st.Op]
		if serial || spec == nil || spec.isBarrierStmt(st) {
			cur.barrier = &p.Stmts[i]
			segs = append(segs, cur)
			cur = segment{}
			continue
		}
		cur.stmts = append(cur.stmts, st)
	}
	if len(cur.stmts) > 0 {
		segs = append(segs, cur)
	}
	return segs
}

// resolveSegment statically checks every column reference in a segment
// against the set of columns present when the segment starts, and
// derives dependency edges. start is the program index of the first
// statement. ok=false (with a reason) means the segment must run
// linearly.
func resolveSegment(stmts []Stmt, start int, present map[string]bool, target string) ([]*dagNode, string, bool) {
	sim := make(map[string]bool, len(present))
	for name := range present {
		sim[name] = true
	}
	var activePrefixes []string
	matchesPrefix := func(name string) string {
		for _, p := range activePrefixes {
			if strings.HasPrefix(name, p) {
				return p
			}
		}
		return ""
	}
	nodes := make([]*dagNode, 0, len(stmts))
	for i, st := range stmts {
		spec := opRegistry[st.Op]
		nd := &dagNode{idx: start + i, st: st, spec: spec}
		if !spec.pure {
			nd.refs = spec.refs(st, target)
			r := nd.refs
			for _, name := range r.names() {
				if p := matchesPrefix(name); p != "" {
					return nil, fmt.Sprintf("column %q may be produced under encoder prefix %q", name, p), false
				}
			}
			for _, name := range r.reads {
				if !sim[name] {
					return nil, fmt.Sprintf("column %q not statically present at line %d", name, st.Line), false
				}
			}
			for _, name := range r.writes {
				if !sim[name] {
					return nil, fmt.Sprintf("column %q not statically present at line %d", name, st.Line), false
				}
			}
			for _, name := range r.removes {
				if !sim[name] {
					return nil, fmt.Sprintf("column %q not statically present at line %d", name, st.Line), false
				}
			}
			for _, name := range r.adds {
				if sim[name] {
					// Adding over an existing name must fail with the real
					// table's duplicate-column error — run linearly.
					return nil, fmt.Sprintf("added column %q collides with an existing column", name), false
				}
			}
			for _, p := range r.prefixes {
				for name := range sim {
					if strings.HasPrefix(name, p) {
						return nil, fmt.Sprintf("existing column %q under encoder prefix %q", name, p), false
					}
				}
				for _, q := range activePrefixes {
					if strings.HasPrefix(p, q) || strings.HasPrefix(q, p) {
						return nil, fmt.Sprintf("encoder prefixes %q and %q overlap", p, q), false
					}
				}
			}
			for _, name := range r.removes {
				delete(sim, name)
			}
			for _, name := range r.adds {
				sim[name] = true
			}
			activePrefixes = append(activePrefixes, r.prefixes...)
		}
		for j, prev := range nodes {
			if col, hit := refsConflict(prev.refs, nd.refs); hit {
				nd.deps = append(nd.deps, dagDep{node: j, col: col})
			}
		}
		nodes = append(nodes, nd)
	}
	return nodes, "", true
}

// refsConflict reports whether two footprints require ordering, and
// names the first conflicting column. a is the earlier statement.
func refsConflict(a, b colRefs) (string, bool) {
	aw := map[string]bool{}
	for _, n := range a.writes {
		aw[n] = true
	}
	for _, n := range a.removes {
		aw[n] = true
	}
	for _, n := range a.adds {
		aw[n] = true
	}
	// i's writes vs anything j touches.
	for _, n := range b.names() {
		if aw[n] {
			return n, true
		}
	}
	// i's reads vs j's writes/removes/adds.
	ar := map[string]bool{}
	for _, n := range a.reads {
		ar[n] = true
	}
	for _, n := range b.writes {
		if ar[n] {
			return n, true
		}
	}
	for _, n := range b.removes {
		if ar[n] {
			return n, true
		}
	}
	for _, n := range b.adds {
		if ar[n] {
			return n, true
		}
	}
	return "", false
}

// waveOrder computes deterministic Kahn levels: wave[k] holds the node
// indices (ascending) whose dependencies all lie in earlier waves.
func waveOrder(nodes []*dagNode) [][]int {
	level := make([]int, len(nodes))
	maxLevel := 0
	for i, nd := range nodes { // deps always point backwards, one pass suffices
		for _, d := range nd.deps {
			if level[d.node]+1 > level[i] {
				level[i] = level[d.node] + 1
			}
		}
		if level[i] > maxLevel {
			maxLevel = level[i]
		}
	}
	waves := make([][]int, maxLevel+1)
	for i := range nodes {
		waves[level[i]] = append(waves[level[i]], i)
	}
	return waves
}

// RenderDAG renders the dependency-DAG plan of a program over the
// given initial column set, as the scheduler would partition it:
// segments of parallel waves separated by serial barriers. It is a
// static preview — segments whose references cannot be proven resolve
// are marked serial, and barriers with statically unknown effects
// (drop_constant, select_topk, ...) may make later segments resolve
// differently at run time. Used for plan goldens and -dag-plan output.
func RenderDAG(p *Program, cols []string, target string) string {
	var b strings.Builder
	present := map[string]bool{}
	for _, c := range cols {
		present[c] = true
	}
	segs := segmentProgram(p, false)
	fmt.Fprintf(&b, "dag %q: %d statement(s), %d segment(s)\n", p.Name, len(p.Stmts), len(segs))
	start := 0
	for si, seg := range segs {
		if len(seg.stmts) > 0 {
			nodes, reason, ok := resolveSegment(seg.stmts, start, present, target)
			if !ok {
				fmt.Fprintf(&b, "segment %d: serial (%s)\n", si+1, reason)
				for _, st := range seg.stmts {
					fmt.Fprintf(&b, "  [line %d] %s\n", st.Line, renderStmt(st))
				}
			} else {
				waves := waveOrder(nodes)
				fmt.Fprintf(&b, "segment %d: parallel (%d node(s), %d wave(s))\n", si+1, len(nodes), len(waves))
				for wi, wave := range waves {
					fmt.Fprintf(&b, "  wave %d:\n", wi+1)
					for _, ni := range wave {
						nd := nodes[ni]
						fmt.Fprintf(&b, "    [line %d] %s%s\n", nd.st.Line, renderStmt(nd.st), renderDeps(nodes, nd))
					}
				}
				// Advance the simulated column set past the segment.
				for _, nd := range nodes {
					for _, name := range nd.refs.removes {
						delete(present, name)
					}
					for _, name := range nd.refs.adds {
						present[name] = true
					}
				}
			}
		}
		start += len(seg.stmts)
		if seg.barrier != nil {
			fmt.Fprintf(&b, "barrier [line %d] %s\n", seg.barrier.Line, renderStmt(*seg.barrier))
			start++
		}
	}
	return b.String()
}

func renderStmt(st Stmt) string {
	parts := []string{st.Op}
	parts = append(parts, st.Args...)
	keys := make([]string, 0, len(st.KV))
	for k := range st.KV {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		parts = append(parts, k+"="+st.KV[k])
	}
	return strings.Join(parts, " ")
}

func renderDeps(nodes []*dagNode, nd *dagNode) string {
	if len(nd.deps) == 0 {
		return ""
	}
	parts := make([]string, len(nd.deps))
	for i, d := range nd.deps {
		parts[i] = fmt.Sprintf("line %d (%s)", nodes[d.node].st.Line, d.col)
	}
	return "  <- " + strings.Join(parts, ", ")
}
