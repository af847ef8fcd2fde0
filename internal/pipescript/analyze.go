package pipescript

import (
	"fmt"
	"strings"

	"catdb/internal/data"
)

// ColumnInfo is the static-analysis view of one input column.
type ColumnInfo struct {
	Name       string
	IsString   bool
	HasMissing bool
	IsTarget   bool
}

// IssueCode classifies a static-analysis finding.
type IssueCode string

// Static-analysis issue codes. These are *predictions* of the runtime
// errors the executor would raise, found without running the pipeline —
// the "code analysis to identify and refine any missing steps" of §4.
const (
	IssueMissingEncode IssueCode = "MISSING_ENCODE" // string feature reaches train un-encoded
	IssueMissingImpute IssueCode = "MISSING_IMPUTE" // missing values reach train un-imputed
	IssueUnknownColumn IssueCode = "UNKNOWN_COLUMN" // statement references a non-existent column
	IssueNoTrain       IssueCode = "NO_TRAIN"       // pipeline never trains
	IssueTargetDropped IssueCode = "TARGET_DROPPED" // target column dropped before train
	IssueTaskMismatch  IssueCode = "TASK_MISMATCH"  // rebalance/augment against the wrong task
	IssueUnknownModel  IssueCode = "UNKNOWN_MODEL"  // train references an unavailable model
	IssueBadPackage    IssueCode = "BAD_PACKAGE"    // require of an uninstalled package
	IssueDoubleEncode  IssueCode = "DOUBLE_ENCODE"  // column encoded twice
)

// Issue is one static-analysis finding.
type Issue struct {
	Code   IssueCode
	Line   int
	Column string // affected data column, if any
	Msg    string
}

// knownModels lists the model names the executor accepts.
var knownModels = map[string]bool{
	"random_forest": true, "decision_tree": true, "gbm": true,
	"gradient_boosting": true, "logistic_regression": true,
	"linear_regression": true, "ridge": true, "knn": true,
	"naive_bayes": true, "tabpfn": true, "extra_trees": true, "svm": true,
}

// Analyze statically checks a parsed pipeline against the input schema,
// simulating column lifecycle (encodes, drops, splits) to predict the
// runtime errors Execute would raise. It returns issues ordered by source
// line.
func Analyze(p *Program, cols []ColumnInfo, task data.Task) []Issue {
	var issues []Issue
	type state struct {
		isString   bool
		hasMissing bool
		isTarget   bool
		encoded    bool
		present    bool
	}
	st := map[string]*state{}
	var target string
	for _, c := range cols {
		st[c.Name] = &state{isString: c.IsString, hasMissing: c.HasMissing, isTarget: c.IsTarget, present: true}
		if c.IsTarget {
			target = c.Name
		}
	}
	imputeAll := false
	trained := false
	lookup := func(name string, line int) *state {
		s, ok := st[name]
		if !ok || !s.present {
			issues = append(issues, Issue{Code: IssueUnknownColumn, Line: line, Column: name,
				Msg: fmt.Sprintf("column %q does not exist at this point", name)})
			return nil
		}
		return s
	}
	for _, stmt := range p.Stmts {
		spec := opRegistry[stmt.Op]
		if spec == nil {
			continue // Parse rejects unknown statements
		}
		// Checks and transitions that go beyond the column footprint:
		// packages, task shape, whole-table imputation, the train gate.
		switch stmt.Op {
		case "require":
			if !AvailablePackages[stmt.Arg(0)] {
				issues = append(issues, Issue{Code: IssueBadPackage, Line: stmt.Line,
					Msg: fmt.Sprintf("package %q is not installed", stmt.Arg(0))})
			}
		case "impute_all":
			imputeAll = true
			for _, s := range st {
				s.hasMissing = false
			}
		case "rebalance":
			if task == data.Regression {
				issues = append(issues, Issue{Code: IssueTaskMismatch, Line: stmt.Line,
					Msg: "rebalance is only valid for classification"})
			}
		case "augment":
			if task != data.Regression {
				issues = append(issues, Issue{Code: IssueTaskMismatch, Line: stmt.Line,
					Msg: "augment is only valid for regression"})
			}
		case "train":
			trained = true
			model := stmt.Opt("model", "random_forest")
			if !knownModels[model] {
				issues = append(issues, Issue{Code: IssueUnknownModel, Line: stmt.Line,
					Msg: fmt.Sprintf("model %q is not available", model)})
			}
			tgt := stmt.Opt("target", target)
			if s, ok := st[tgt]; !ok || !s.present {
				issues = append(issues, Issue{Code: IssueTargetDropped, Line: stmt.Line, Column: tgt,
					Msg: fmt.Sprintf("train target %q does not exist", tgt)})
			}
			for name, s := range st {
				if !s.present || s.isTarget || name == tgt {
					continue
				}
				if s.isString && !s.encoded {
					issues = append(issues, Issue{Code: IssueMissingEncode, Line: stmt.Line, Column: name,
						Msg: fmt.Sprintf("string column %q reaches training un-encoded", name)})
				}
				if s.hasMissing && !imputeAll {
					issues = append(issues, Issue{Code: IssueMissingImpute, Line: stmt.Line, Column: name,
						Msg: fmt.Sprintf("column %q may carry missing values into training", name)})
				}
			}
		}
		if spec.refs == nil {
			continue
		}
		// Footprint checks driven by the op registry's refs. Target
		// existence is train's concern, checked above.
		r := spec.refs(stmt)
		need := make([]string, 0, len(r.reads)+len(r.removes))
		need = append(need, r.reads...)
		need = append(need, r.removes...)
		resolved := true
		checked := map[string]bool{}
		for _, name := range need {
			if checked[name] {
				continue
			}
			checked[name] = true
			if lookup(name, stmt.Line) == nil {
				resolved = false
			}
		}
		if !resolved {
			continue // unresolved reference: no state transition to simulate
		}
		if spec.encoder {
			// All encoders share one state machine, so re-encoding an
			// already-encoded column is a DOUBLE_ENCODE whichever pair
			// of encoders is involved. The source column stays tracked
			// under its own name; fixed-suffix derived columns
			// (__hash/__ord/__tenc) become present encoded columns.
			s := st[stmt.Arg(0)]
			if s.encoded {
				issues = append(issues, Issue{Code: IssueDoubleEncode, Line: stmt.Line, Column: stmt.Arg(0),
					Msg: fmt.Sprintf("column %q is encoded more than once", stmt.Arg(0))})
			}
			s.encoded = true
			s.isString = false
			s.hasMissing = false // encoders produce complete indicators
			for _, name := range r.adds {
				st[name] = &state{present: true, encoded: true}
			}
			continue
		}
		switch stmt.Op {
		case "impute":
			st[stmt.Arg(0)].hasMissing = false
		case "drop":
			if st[stmt.Arg(0)].isTarget {
				issues = append(issues, Issue{Code: IssueTargetDropped, Line: stmt.Line, Column: stmt.Arg(0),
					Msg: "pipeline drops the target column"})
			}
		}
		for _, name := range r.removes {
			if s := st[name]; s != nil {
				s.present = false
			}
		}
		for _, name := range r.adds {
			st[name] = &state{isString: spec.stringAdds, present: true}
		}
	}
	if !trained {
		issues = append(issues, Issue{Code: IssueNoTrain, Line: lastLine(p),
			Msg: "pipeline never trains a model"})
	}
	return issues
}

// Repair rewrites the pipeline source to fix the repairable issues found
// by Analyze: missing imputation and encodings are inserted before the
// train statement, unavailable models are replaced, bad requires are
// removed, and a train statement is appended if absent. Unrepairable
// issues (unknown columns) are left to the error-management loop.
func Repair(source string, issues []Issue, cols []ColumnInfo, target string) string {
	lines := strings.Split(strings.TrimRight(source, "\n"), "\n")
	needImpute := false
	encodeCols := map[string]bool{}
	appendTrain := false
	// Unknown-column references that are near-misses of a real column are
	// probably typos of it; the encode the typo'd statement intended will
	// exist once the error loop repairs the name, so skip inserting a
	// duplicate here.
	typoTargets := map[string]bool{}
	for _, is := range issues {
		if is.Code != IssueUnknownColumn {
			continue
		}
		for _, c := range cols {
			if nameDistance(is.Column, c.Name) <= 2 {
				typoTargets[c.Name] = true
			}
		}
	}
	for _, is := range issues {
		switch is.Code {
		case IssueMissingImpute:
			needImpute = true
		case IssueMissingEncode:
			if !typoTargets[is.Column] {
				encodeCols[is.Column] = true
			}
		case IssueUnknownModel:
			for i, l := range lines {
				if strings.HasPrefix(strings.TrimSpace(l), "train ") {
					lines[i] = rewriteModel(l, "random_forest")
				}
			}
		case IssueBadPackage:
			var kept []string
			for _, l := range lines {
				t := strings.TrimSpace(l)
				if strings.HasPrefix(t, "require ") && !AvailablePackages[strings.TrimPrefix(t, "require ")] {
					continue
				}
				kept = append(kept, l)
			}
			lines = kept
		case IssueNoTrain:
			appendTrain = true
		case IssueTaskMismatch:
			if is.Line-1 >= 0 && is.Line-1 < len(lines) {
				lines = append(lines[:is.Line-1], lines[is.Line:]...)
			}
		}
	}
	var inserts []string
	if needImpute {
		inserts = append(inserts, "impute_all strategy=auto")
	}
	for _, c := range cols {
		if encodeCols[c.Name] {
			inserts = append(inserts, fmt.Sprintf("onehot %q", c.Name))
		}
	}
	if len(inserts) > 0 {
		out := make([]string, 0, len(lines)+len(inserts))
		inserted := false
		for _, l := range lines {
			if !inserted && strings.HasPrefix(strings.TrimSpace(l), "train ") {
				out = append(out, inserts...)
				inserted = true
			}
			out = append(out, l)
		}
		if !inserted {
			out = append(out, inserts...)
		}
		lines = out
	}
	if appendTrain {
		lines = append(lines, fmt.Sprintf("train model=random_forest target=%q trees=50", target))
	}
	return strings.Join(lines, "\n") + "\n"
}

// nameDistance is a small Levenshtein distance for typo detection.
func nameDistance(a, b string) int {
	la, lb := len(a), len(b)
	prev := make([]int, lb+1)
	cur := make([]int, lb+1)
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		for j := 1; j <= lb; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			m := prev[j] + 1
			if cur[j-1]+1 < m {
				m = cur[j-1] + 1
			}
			if prev[j-1]+cost < m {
				m = prev[j-1] + cost
			}
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	return prev[lb]
}

func rewriteModel(trainLine, model string) string {
	fields := strings.Fields(trainLine)
	for i, f := range fields {
		if strings.HasPrefix(f, "model=") {
			fields[i] = "model=" + model
		}
	}
	return strings.Join(fields, " ")
}
