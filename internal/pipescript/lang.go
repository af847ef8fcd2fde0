// Package pipescript defines PipeScript, the pipeline DSL that plays the
// role of the LLM-generated Python in this reproduction. A PipeScript
// program is a sequence of data-preparation, feature-engineering, and
// model-training statements executed against tabular data. Like the
// paper's Python pipelines it can be syntactically invalid (parser errors
// with line numbers, the analogue of Python's ast checks), reference
// unavailable packages (knowledge-base errors), or fail at runtime
// (semantic errors such as un-encoded string features or NaNs at training
// time — the same failure modes scikit-learn raises).
package pipescript

import (
	"fmt"
	"strings"
)

// Stmt is a single parsed statement.
type Stmt struct {
	Line int               // 1-based source line
	Op   string            // statement keyword
	Args []string          // positional arguments
	KV   map[string]string // key=value options
}

// Arg returns positional argument i or "".
func (s Stmt) Arg(i int) string {
	if i < len(s.Args) {
		return s.Args[i]
	}
	return ""
}

// Opt returns the option value or a default.
func (s Stmt) Opt(key, def string) string {
	if v, ok := s.KV[key]; ok {
		return v
	}
	return def
}

// Program is a parsed PipeScript pipeline.
type Program struct {
	Name   string
	Stmts  []Stmt
	Source string
}

// SyntaxError is a parse-time failure with a source location. It is the
// analogue of the Python ast errors of §4.2 (SE).
type SyntaxError struct {
	Line int
	Msg  string
}

// Error implements the error interface.
func (e *SyntaxError) Error() string {
	return fmt.Sprintf("pipescript: syntax error at line %d: %s", e.Line, e.Msg)
}

// knownOps maps statement keywords to their minimum positional arg
// counts. It is populated exclusively by registerOp (optable.go), the
// single source of op metadata shared by the parser, executor and static
// analyzer.
var knownOps = map[string]int{}

// AvailablePackages is the pre-installed environment of the pipeline
// runner (§4.2: "Pipelines run in a basic, pre-installed environment").
// require-ing anything else raises a knowledge-base error.
var AvailablePackages = map[string]bool{
	"tabular":    true,
	"mlcore":     true,
	"preprocess": true,
	"metrics":    true,
}

// Parse parses PipeScript source into a program; the error (if any) is a
// *SyntaxError carrying the offending line.
func Parse(src string) (*Program, error) {
	p := &Program{Source: src}
	lines := strings.Split(src, "\n")
	for ln, raw := range lines {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		toks, err := tokenize(line)
		if err != nil {
			return nil, &SyntaxError{Line: ln + 1, Msg: err.Error()}
		}
		if len(toks) == 0 {
			continue
		}
		op := toks[0]
		minArgs, ok := knownOps[op]
		if !ok {
			return nil, &SyntaxError{Line: ln + 1, Msg: fmt.Sprintf("unknown statement %q", op)}
		}
		st := Stmt{Line: ln + 1, Op: op, KV: map[string]string{}}
		for _, t := range toks[1:] {
			if i := strings.Index(t, "="); i > 0 && !strings.HasPrefix(t, `"`) {
				key := t[:i]
				val := strings.Trim(t[i+1:], `"`)
				if key == "" || val == "" {
					return nil, &SyntaxError{Line: ln + 1, Msg: fmt.Sprintf("malformed option %q", t)}
				}
				st.KV[key] = val
				continue
			}
			st.Args = append(st.Args, strings.Trim(t, `"`))
		}
		if len(st.Args) < minArgs {
			return nil, &SyntaxError{Line: ln + 1, Msg: fmt.Sprintf("%s needs %d argument(s), got %d", op, minArgs, len(st.Args))}
		}
		if op == "pipeline" && p.Name == "" {
			p.Name = st.Arg(0)
		}
		p.Stmts = append(p.Stmts, st)
	}
	if len(p.Stmts) == 0 {
		return nil, &SyntaxError{Line: 1, Msg: "empty program"}
	}
	if p.Stmts[0].Op != "pipeline" {
		return nil, &SyntaxError{Line: p.Stmts[0].Line, Msg: "program must start with a pipeline statement"}
	}
	return p, nil
}

// tokenize splits a statement line into tokens honouring double quotes.
func tokenize(line string) ([]string, error) {
	var toks []string
	var cur strings.Builder
	inQuote := false
	flush := func() {
		if cur.Len() > 0 {
			toks = append(toks, cur.String())
			cur.Reset()
		}
	}
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case c == '"':
			inQuote = !inQuote
			cur.WriteByte(c)
		case (c == ' ' || c == '\t') && !inQuote:
			flush()
		default:
			cur.WriteByte(c)
		}
	}
	if inQuote {
		return nil, fmt.Errorf("unterminated string literal")
	}
	flush()
	// Strip surrounding quotes but keep inner content (incl. spaces).
	for i, t := range toks {
		if strings.HasPrefix(t, `"`) && strings.HasSuffix(t, `"`) && len(t) >= 2 {
			toks[i] = t // trimming handled by caller per-field
		}
	}
	return toks, nil
}

// HasStmt reports whether the program contains at least one statement with
// the given op (used by verification and tests).
func (p *Program) HasStmt(op string) bool {
	for _, s := range p.Stmts {
		if s.Op == op {
			return true
		}
	}
	return false
}

// TrainStmt returns the first train statement, or nil.
func (p *Program) TrainStmt() *Stmt {
	for i := range p.Stmts {
		if p.Stmts[i].Op == "train" {
			return &p.Stmts[i]
		}
	}
	return nil
}
