package pipescript

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"catdb/internal/data"
)

// This file adds the extended pipeline primitives beyond the paper's core
// set: numeric binning, log transforms, interaction features, row
// deduplication, winsorizing, and target encoding. The simulated LLM uses
// a subset of them; they are also available to hand-written pipelines via
// the public ExecutePipeline API. Registration (parser arity, column
// footprints, barrier flags) lives in optable.go with the core set.

// requireColExtra resolves a column reference in an extended statement
// (shorter message than the core requireCol, kept for compatibility).
func requireColExtra(tr *data.Table, line int, name string) (*data.Column, error) {
	if c := tr.Col(name); c != nil {
		return c, nil
	}
	return nil, rtErr(line, ErrUnknownColumn, "column %q does not exist", name)
}

func (e *Executor) execBinNumeric(st Stmt, ctx *execCtx) error {
	c, err := requireColExtra(ctx.tr, st.Line, st.Arg(0))
	if err != nil {
		return err
	}
	if !c.Kind.IsNumeric() {
		return rtErr(st.Line, ErrTypeMismatch, "bin_numeric needs a numeric column, %q is %s", c.Name, c.Kind)
	}
	bins, perr := strconv.Atoi(st.Opt("bins", "8"))
	if perr != nil || bins < 2 {
		return rtErr(st.Line, ErrBadOption, "bad bins %q", st.Opt("bins", ""))
	}
	edges := make([]float64, bins-1)
	for i := range edges {
		edges[i] = c.Quantile(float64(i+1) / float64(bins))
	}
	binifyColumn(c, edges)
	return ctx.apply(FittedStep{Op: "bin_numeric", Col: c.Name, Edges: edges}, st.Line, ErrBadOption)
}

func (e *Executor) execLogTransform(st Stmt, ctx *execCtx) error {
	c, err := requireColExtra(ctx.tr, st.Line, st.Arg(0))
	if err != nil {
		return err
	}
	if !c.Kind.IsNumeric() {
		return rtErr(st.Line, ErrTypeMismatch, "log_transform needs a numeric column, %q is %s", c.Name, c.Kind)
	}
	logTransformColumn(c)
	return ctx.apply(FittedStep{Op: "log_transform", Col: c.Name}, st.Line, ErrBadOption)
}

func (e *Executor) execInteraction(st Stmt, ctx *execCtx) error {
	a, err := requireColExtra(ctx.tr, st.Line, st.Arg(0))
	if err != nil {
		return err
	}
	b, err := requireColExtra(ctx.tr, st.Line, st.Arg(1))
	if err != nil {
		return err
	}
	if !a.Kind.IsNumeric() || !b.Kind.IsNumeric() {
		return rtErr(st.Line, ErrTypeMismatch, "interaction needs numeric columns")
	}
	op := st.Opt("op", "product")
	name := fmt.Sprintf("%s_%s_%s", a.Name, op, b.Name)
	if err := buildInteraction(ctx.tr, a.Name, b.Name, op, name); err != nil {
		return rtErr(st.Line, ErrBadOption, "%v", err)
	}
	return ctx.apply(FittedStep{Op: "interaction", Col: a.Name, ColB: b.Name,
		Method: op, Name: name}, st.Line, ErrBadOption)
}

func (e *Executor) execDropDuplicates(st Stmt, ctx *execCtx) error {
	tr := ctx.tr
	seen := map[string]bool{}
	var keep []int
	for i := 0; i < tr.NumRows(); i++ {
		var key strings.Builder
		for _, c := range tr.Cols {
			key.WriteString(c.ValueString(i))
			key.WriteByte(0x1f)
		}
		k := key.String()
		if !seen[k] {
			seen[k] = true
			keep = append(keep, i)
		}
	}
	if len(keep) == 0 {
		return rtErr(st.Line, ErrEmptyData, "deduplication removed every row")
	}
	if len(keep) < tr.NumRows() {
		*tr = *tr.SelectRows(keep)
	}
	return nil
}

func (e *Executor) execWinsorize(st Stmt, ctx *execCtx) error {
	c, err := requireColExtra(ctx.tr, st.Line, st.Arg(0))
	if err != nil {
		return err
	}
	if !c.Kind.IsNumeric() {
		return rtErr(st.Line, ErrTypeMismatch, "winsorize needs a numeric column, %q is %s", c.Name, c.Kind)
	}
	lowQ, err1 := strconv.ParseFloat(st.Opt("lower", "0.01"), 64)
	hiQ, err2 := strconv.ParseFloat(st.Opt("upper", "0.99"), 64)
	if err1 != nil || err2 != nil || lowQ < 0 || hiQ > 1 || lowQ >= hiQ {
		return rtErr(st.Line, ErrBadOption, "bad winsorize bounds")
	}
	lo, hi := c.Quantile(lowQ), c.Quantile(hiQ)
	clipColumn(c, lo, hi)
	if c.Name != e.Target {
		return ctx.apply(FittedStep{Op: "clip", Col: c.Name, Lo: lo, Hi: hi}, st.Line, ErrBadOption)
	}
	return nil
}

func (e *Executor) execTargetEncode(st Stmt, ctx *execCtx) error {
	tr := ctx.tr
	c, err := requireColExtra(tr, st.Line, st.Arg(0))
	if err != nil {
		return err
	}
	if c.Kind != data.KindString {
		return rtErr(st.Line, ErrTypeMismatch, "target_encode needs a string column, %q is %s", c.Name, c.Kind)
	}
	tcol := tr.Col(e.Target)
	if tcol == nil {
		return rtErr(st.Line, ErrTargetMissing, "target %q not found", e.Target)
	}
	if !tcol.Kind.IsNumeric() {
		return rtErr(st.Line, ErrTypeMismatch, "target encoding needs a numeric target (regression)")
	}
	// Smoothed mean encoding fitted on train.
	sums := map[string]float64{}
	counts := map[string]float64{}
	var global float64
	var n float64
	for i := 0; i < c.Len(); i++ {
		if c.IsMissing(i) || tcol.IsMissing(i) {
			continue
		}
		v := c.Str(i)
		sums[v] += tcol.Num(i)
		counts[v]++
		global += tcol.Num(i)
		n++
	}
	if n == 0 {
		return rtErr(st.Line, ErrEmptyData, "no data to fit target encoding")
	}
	global /= n
	if err := smoothedMeanEncode(tr, c.Name, sums, counts, global); err != nil {
		return rtErr(st.Line, ErrBadOption, "%v", err)
	}
	return ctx.apply(FittedStep{Op: "target_encode", Col: c.Name,
		Sums: sums, Counts: counts, Global: global}, st.Line, ErrBadOption)
}

// binifyColumn maps numeric values to their bin ordinal over fitted
// quantile edges.
func binifyColumn(col *data.Column, edges []float64) {
	for i := 0; i < col.Len(); i++ {
		if col.IsMissing(i) {
			continue
		}
		b := 0
		for _, edge := range edges {
			if col.Num(i) > edge {
				b++
			}
		}
		col.SetNum(i, float64(b))
	}
	col.Kind = data.KindInt
}

// logTransformColumn applies the signed log1p transform in place:
// sign(x)·log(1+|x|) keeps negatives meaningful.
func logTransformColumn(col *data.Column) {
	for i := 0; i < col.Len(); i++ {
		if col.IsMissing(i) {
			continue
		}
		x := col.Num(i)
		s := 1.0
		if x < 0 {
			s, x = -1, -x
		}
		col.SetNum(i, s*math.Log1p(x))
	}
	col.Kind = data.KindFloat
}

// buildInteraction adds a product/ratio column of two numeric sources; a
// table lacking either source is left unchanged (the interaction column
// only exists where both sources do).
func buildInteraction(t *data.Table, aName, bName, op, name string) error {
	ca, cb := t.Col(aName), t.Col(bName)
	if ca == nil || cb == nil {
		return nil
	}
	vals := make([]float64, ca.Len())
	nc := data.NewNumeric(name, vals)
	for i := range vals {
		if ca.IsMissing(i) || cb.IsMissing(i) {
			nc.SetMissing(i)
			continue
		}
		switch op {
		case "ratio":
			den := cb.Num(i)
			if den == 0 {
				den = 1
			}
			vals[i] = ca.Num(i) / den
		default:
			vals[i] = ca.Num(i) * cb.Num(i)
		}
	}
	return t.AddColumn(nc)
}

// tencSmoothing is the smoothed-mean prior weight of target encoding.
const tencSmoothing = 10

// smoothedMeanEncode replaces a string column with its fitted smoothed
// mean encoding. The sums/counts maps (not precomputed encodings) feed
// the identical arithmetic at fit and serve time, so unseen and seen
// categories alike encode bit-identically on both paths.
func smoothedMeanEncode(t *data.Table, col string, sums, counts map[string]float64, global float64) error {
	c := t.Col(col)
	if c == nil {
		return nil
	}
	vals := make([]float64, c.Len())
	nc := data.NewNumeric(col+"__tenc", vals)
	for i := range vals {
		if c.IsMissing(i) {
			vals[i] = global
			continue
		}
		v := c.Str(i)
		vals[i] = (sums[v] + tencSmoothing*global) / (counts[v] + tencSmoothing)
	}
	t.DropColumn(col)
	return t.AddColumn(nc)
}
