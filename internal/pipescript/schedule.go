package pipescript

import (
	"catdb/internal/data"
	"catdb/internal/obs"
	"catdb/internal/pool"
)

// This file schedules the DAG built by dag.go: within each segment,
// ready nodes (all dependencies done) run concurrently over
// internal/pool, each against a private table view holding exactly the
// columns its footprint names. Side effects that would race or depend
// on execution order — artifact step recording, test-table
// application, the encoded-feature cap — are buffered per node and
// replayed in statement order by the merge, so results, fitted
// artifacts, and errors are bit-identical to linear execution at any
// worker count.

// nodeOutcome is everything a node execution produced.
type nodeOutcome struct {
	err     error
	buf     *nodeBuffer
	adds    []*data.Column // columns the node created, in creation order
	removes []string       // columns the node dropped, in original order
	seconds float64
}

// executeDAG is the executor's statement loop: it runs the program
// segment-by-segment, parallel waves for resolvable non-barrier runs and
// plain execStmt for everything else. The linear reference makes every
// statement its own barrier, so the same loop then runs the program in
// statement order and schedules nothing.
func (e *Executor) executeDAG(p *Program, tr, te *data.Table, maxOH int, res *Result, trained *bool) error {
	inOrder := func(stmts []Stmt) error {
		for _, st := range stmts {
			if err := e.execStmt(st, tr, te, maxOH, res, trained); err != nil {
				return err
			}
		}
		return nil
	}
	for _, seg := range segmentProgram(p, e.linear) {
		if len(seg.stmts) == 1 {
			// A single statement gains nothing from scheduling.
			if err := inOrder(seg.stmts); err != nil {
				return err
			}
		} else if len(seg.stmts) > 1 {
			present := map[string]bool{}
			for _, c := range tr.Cols {
				present[c.Name] = true
			}
			nodes, _, ok := resolveSegment(seg.stmts, 0, present, e.Target)
			if !ok {
				e.countSegment("linear")
				if err := inOrder(seg.stmts); err != nil {
					return err
				}
			} else {
				e.countSegment("parallel")
				ssp := e.Span.Child("dag-segment")
				ssp.SetInt("stmts", int64(len(seg.stmts)))
				err := e.runSegment(nodes, tr, te, maxOH, ssp)
				ssp.End()
				if err != nil {
					return err
				}
			}
		}
		if seg.barrier != nil {
			if err := inOrder([]Stmt{*seg.barrier}); err != nil {
				return err
			}
		}
	}
	return nil
}

func (e *Executor) countSegment(mode string) {
	if e.Metrics != nil {
		e.Metrics.Counter("catdb_dag_segments_total", "mode", mode).Inc()
	}
}

// runSegment executes one resolved segment: Kahn waves over the pool,
// then a statement-ordered merge of column adds/removes, deferred cap
// checks, and deferred test-side step applications. sp (nil when
// tracing is off) parents one dag-wave span per wave with dag-node
// children recorded from inside the workers.
func (e *Executor) runSegment(nodes []*dagNode, tr, te *data.Table, maxOH int, sp *obs.Span) error {
	n := len(nodes)
	colOf := make(map[string]*data.Column, len(tr.Cols))
	for _, c := range tr.Cols {
		colOf[c.Name] = c
	}
	indeg := make([]int, n)
	children := make([][]int, n)
	for j, nd := range nodes {
		for _, d := range nd.deps {
			indeg[j]++
			children[d.node] = append(children[d.node], j)
		}
	}
	outcomes := make([]nodeOutcome, n)
	done := make([]bool, n)
	dead := make([]bool, n) // a dependency failed; the node never runs
	var markDead func(j int)
	markDead = func(j int) {
		for _, ch := range children[j] {
			if !dead[ch] {
				dead[ch] = true
				markDead(ch)
			}
		}
	}
	waves := 0
	for {
		var ready []int
		for j := 0; j < n; j++ {
			if !done[j] && indeg[j] == 0 {
				ready = append(ready, j)
			}
		}
		if len(ready) == 0 {
			break
		}
		waves++
		wsp := sp.Child("dag-wave")
		wsp.SetInt("ready", int64(len(ready)))
		// colOf is read concurrently below and only written between
		// waves, so node table construction inside workers is race-free.
		outs, _ := pool.Map(e.Workers, len(ready), func(k int) (nodeOutcome, error) {
			j := ready[k]
			if dead[j] {
				return nodeOutcome{}, nil
			}
			nsp := wsp.Child("dag-node")
			nsp.SetStr("op", nodes[j].st.Op)
			nsp.SetInt("line", int64(nodes[j].st.Line))
			out := e.runDAGNode(nodes[j], tr.Name, colOf, maxOH)
			nsp.End()
			return out, nil
		})
		wsp.End()
		for k, j := range ready {
			done[j] = true
			for _, ch := range children[j] {
				indeg[ch]--
			}
			if dead[j] {
				continue
			}
			outcomes[j] = outs[k]
			if outs[k].err != nil {
				markDead(j)
				continue
			}
			for _, name := range outs[k].removes {
				delete(colOf, name)
			}
			for _, c := range outs[k].adds {
				colOf[c.Name] = c
			}
		}
	}
	e.recordDAGMetrics(nodes, outcomes, dead, waves)
	return e.mergeSegment(nodes, outcomes, dead, tr, te)
}

// runDAGNode executes one statement against a private table view that
// shares column objects with the live table. In-place column writes
// land directly (edges guarantee exclusive access); structural changes
// (adds/removes) stay private and are reported for the ordered merge.
func (e *Executor) runDAGNode(nd *dagNode, tableName string, colOf map[string]*data.Column, maxOH int) nodeOutcome {
	start := obs.Now()
	out := nodeOutcome{buf: &nodeBuffer{}}
	defer func() { out.seconds = obs.Since(start).Seconds() }()
	if err := e.policyCheck(nd.st); err != nil {
		out.err = err
		return out
	}
	// Deduplicated private column set, in footprint order.
	var cols []*data.Column
	seen := map[string]bool{}
	for _, name := range nd.refs.names() {
		if seen[name] {
			continue
		}
		seen[name] = true
		if c := colOf[name]; c != nil {
			cols = append(cols, c)
		}
	}
	ptab := &data.Table{Name: tableName, Cols: cols}
	// Snapshot names, not the slice: DropColumn splices the backing
	// array in place, so cols would alias post-exec contents.
	beforeNames := make([]string, len(cols))
	before := make(map[string]bool, len(cols))
	for i, c := range cols {
		beforeNames[i] = c.Name
		before[c.Name] = true
	}
	ctx := &execCtx{e: e, tr: ptab, maxOH: maxOH, node: out.buf}
	if out.err = nd.spec.exec(e, nd.st, ctx); out.err != nil {
		return out
	}
	after := map[string]bool{}
	for _, c := range ptab.Cols {
		after[c.Name] = true
		if !before[c.Name] {
			out.adds = append(out.adds, c)
		}
	}
	for _, name := range beforeNames {
		if !after[name] {
			out.removes = append(out.removes, name)
		}
	}
	return out
}

// mergeSegment replays node outcomes in statement order: the first
// error (lowest statement index) is returned exactly as linear
// execution would raise it; column removals/additions rebuild the
// train table in the order linear execution would have produced; and
// deferred fitted steps apply to the test table in statement order.
func (e *Executor) mergeSegment(nodes []*dagNode, outcomes []nodeOutcome, dead []bool, tr, te *data.Table) error {
	names := make([]string, 0, len(tr.Cols))
	colOf := make(map[string]*data.Column, len(tr.Cols))
	for _, c := range tr.Cols {
		names = append(names, c.Name)
		colOf[c.Name] = c
	}
	for j, nd := range nodes {
		if dead[j] {
			// Unreachable: a dead node's failed ancestor has a smaller
			// statement index, so its error returned first.
			return rtErr(nd.st.Line, ErrBadOption, "internal: dependency of line %d failed", nd.st.Line)
		}
		o := outcomes[j]
		if o.err != nil {
			return o.err
		}
		if c := o.buf.cap; c != nil && len(names)+c.adds > maxEncodedFeatures {
			return capErr(c.line, c.kind, c.col)
		}
		for _, rm := range o.removes {
			delete(colOf, rm)
			for i, name := range names {
				if name == rm {
					names = append(names[:i], names[i+1:]...)
					break
				}
			}
		}
		for _, c := range o.adds {
			names = append(names, c.Name)
			colOf[c.Name] = c
		}
		for _, ds := range o.buf.steps {
			if err := e.recordAndApply(ds.step, te); err != nil {
				if ds.code == "" {
					return err
				}
				return rtErr(ds.line, ds.code, "%v", err)
			}
		}
	}
	cols := make([]*data.Column, len(names))
	for i, name := range names {
		cols[i] = colOf[name]
	}
	tr.Cols = cols
	return nil
}

// recordDAGMetrics books per-node and per-wave scheduler metrics.
// Counter values are deterministic at any worker count (the wave
// structure is a property of the DAG, not of the pool size); only the
// duration histograms vary run to run.
func (e *Executor) recordDAGMetrics(nodes []*dagNode, outcomes []nodeOutcome, dead []bool, waves int) {
	if e.Metrics == nil {
		return
	}
	e.Metrics.Counter("catdb_dag_waves_total").Add(int64(waves))
	for j, nd := range nodes {
		if dead[j] {
			continue
		}
		e.Metrics.Counter("catdb_dag_nodes_total", "op", nd.st.Op).Inc()
		e.Metrics.Histogram("catdb_dag_node_seconds", obs.DefBuckets, "op", nd.st.Op).Observe(outcomes[j].seconds)
	}
}
