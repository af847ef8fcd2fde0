package prompt

import (
	"fmt"
	"strings"

	"catdb/internal/profile"
)

// Build is Algorithm 3 (PROMPT): it cleans the catalog projection, applies
// top-K selection, and constructs either one pipeline prompt (β=1, CatDB)
// or a chain of preprocessing/feature-engineering/model-selection prompts
// (β>1, CatDB Chain). Chain prompts after the first carry the pipeline
// built so far in a <CODE> section, which the driver fills in as results
// arrive (see core.ChainRunner); here the placeholder is empty.
func Build(in Input, m ModelSpec, cfg Config) []Prompt {
	in = CleanInput(in)
	in = SelectTopK(in, cfg.TopK)
	var rules Rules
	if cfg.IncludeRules {
		rules = BuildRules(in)
	}
	chains := cfg.Chains
	if chains <= 1 {
		p := Format(KindPipeline, in, in.Cols, rules.All(), "", m, cfg)
		return []Prompt{p}
	}
	// CatDB Chain: β column chunks (features only; the target rides along
	// in every chunk), preprocessing+fe prompts per chunk, one final
	// model-selection prompt.
	var feats []ColumnMeta
	var target []ColumnMeta
	for _, c := range in.Cols {
		if c.IsTarget {
			target = append(target, c)
		} else {
			feats = append(feats, c)
		}
	}
	k := (len(feats) + chains - 1) / chains
	if k < 1 {
		k = 1
	}
	var out []Prompt
	for i := 0; i < chains; i++ {
		lo, hi := i*k, (i+1)*k
		if lo >= len(feats) {
			break
		}
		if hi > len(feats) {
			hi = len(feats)
		}
		chunk := append(append([]ColumnMeta(nil), feats[lo:hi]...), target...)
		pre := filterRules(rules, "preprocessing", chunk)
		fe := filterRules(rules, "fe", chunk)
		out = append(out,
			Format(KindPreprocessing, in, chunk, pre, "", m, cfg),
			Format(KindFeatureEng, in, chunk, fe, "", m, cfg))
	}
	return append(out, Format(KindModelSelection, in, target, rules.Model, "", m, cfg))
}

// filterRules keeps rules of one stage that mention only columns in the
// chunk (stage-global rules such as rebalance always pass).
func filterRules(r Rules, stage string, chunk []ColumnMeta) []Rule {
	names := map[string]bool{}
	for _, c := range chunk {
		names[c.Name] = true
	}
	var src []Rule
	switch stage {
	case "preprocessing":
		src = r.Preprocessing
	case "fe":
		src = r.FeatureEng
	default:
		src = r.Model
	}
	var out []Rule
	for _, rule := range src {
		col := directiveColumn(rule.Directive)
		if col == "" || names[col] {
			out = append(out, rule)
		}
	}
	return out
}

// directiveColumn extracts the first quoted column name of a directive.
func directiveColumn(d string) string {
	i := strings.Index(d, `"`)
	if i < 0 {
		return ""
	}
	j := strings.Index(d[i+1:], `"`)
	if j < 0 {
		return ""
	}
	return d[i+1 : i+1+j]
}

// Format renders one prompt in the wire format (the T template of §2),
// enforcing the model's context budget: when the prompt would exceed it,
// rule lines are dropped from the end first, then schema lines from the
// end (keeping at least one) — reproducing the paper's observation that
// oversized prompts lead to ignored rules.
func Format(kind Kind, in Input, cols []ColumnMeta, rules []Rule, prevCode string, m ModelSpec, cfg Config) Prompt {
	schema := schemaLines(cols, cfg, in.Target)
	ruleLines := make([]string, len(rules))
	for i, r := range rules {
		ruleLines[i] = fmt.Sprintf("rule %s %s -- %s", r.Stage, r.Directive, r.Why)
	}
	render := func(schema, ruleLines []string) string {
		var b strings.Builder
		fmt.Fprintf(&b, "# CatDB %s prompt\n", kind)
		b.WriteString("<TASK>\n")
		fmt.Fprintf(&b, "dataset=%s task=%s target=%q rows=%d kind=%s\n",
			in.Dataset, taskName(in.Task), in.Target, in.Rows, kind)
		b.WriteString("</TASK>\n")
		if cfg.IncludeDescription && in.Description != "" {
			b.WriteString("<DESCRIPTION>\n")
			b.WriteString(in.Description)
			b.WriteString("\n</DESCRIPTION>\n")
		}
		b.WriteString("<SCHEMA>\n")
		for _, l := range schema {
			b.WriteString(l)
			b.WriteByte('\n')
		}
		b.WriteString("</SCHEMA>\n")
		if prevCode != "" {
			b.WriteString("<CODE>\n")
			b.WriteString(prevCode)
			if !strings.HasSuffix(prevCode, "\n") {
				b.WriteByte('\n')
			}
			b.WriteString("</CODE>\n")
		}
		if len(ruleLines) > 0 {
			b.WriteString("<RULES>\n")
			for _, l := range ruleLines {
				b.WriteString(l)
				b.WriteByte('\n')
			}
			b.WriteString("</RULES>\n")
		}
		b.WriteString("<OUTPUT>\nReturn only a PipeScript program, no prose.\n</OUTPUT>\n")
		return b.String()
	}
	text := render(schema, ruleLines)
	truncated := false
	if m.MaxPromptTokens > 0 {
		for CountTokens(text) > m.MaxPromptTokens && len(ruleLines) > 0 {
			ruleLines = ruleLines[:len(ruleLines)-1]
			truncated = true
			text = render(schema, ruleLines)
		}
		for CountTokens(text) > m.MaxPromptTokens && len(schema) > 1 {
			schema = schema[:len(schema)-1]
			truncated = true
			text = render(schema, ruleLines)
		}
	}
	return Prompt{Kind: kind, Text: text, Tokens: CountTokens(text), Truncated: truncated}
}

// schemaLines renders the S messages for the selected metadata combination.
func schemaLines(cols []ColumnMeta, cfg Config, target string) []string {
	it := cfg.Combo.items()
	adaptive := cfg.Combo == ComboAdaptive
	out := make([]string, 0, len(cols))
	for _, c := range cols {
		var b strings.Builder
		fmt.Fprintf(&b, "col name=%q type=%s feature=%s", c.Name, c.DataType, c.FeatureType)
		if c.IsTarget {
			b.WriteString(" target=true")
		}
		inclDistinct := it.distinct && (!adaptive || c.FeatureType != profile.FeatureNumerical)
		inclStats := it.stats && c.DataType.IsNumeric() && (!adaptive || c.FeatureType == profile.FeatureNumerical)
		inclValues := it.catValues && len(c.DistinctValues) > 0 &&
			(!adaptive || c.FeatureType == profile.FeatureCategorical || c.FeatureType == profile.FeatureBoolean)
		if inclDistinct {
			fmt.Fprintf(&b, " distinct=%d distinct_pct=%s", c.DistinctCount, fmtFloat(c.DistinctPct))
		}
		if it.missing && c.MissingPct > 0 {
			fmt.Fprintf(&b, " missing_pct=%s", fmtFloat(c.MissingPct))
		}
		if inclStats {
			fmt.Fprintf(&b, " min=%s max=%s mean=%s median=%s",
				fmtFloat(c.Stats.Min), fmtFloat(c.Stats.Max), fmtFloat(c.Stats.Mean), fmtFloat(c.Stats.Median))
		}
		if inclValues {
			vals := c.DistinctValues
			if len(vals) > 40 {
				vals = vals[:40]
			}
			fmt.Fprintf(&b, " values=%q", strings.Join(vals, "|"))
		}
		out = append(out, b.String())
	}
	return out
}

// WithCode returns a copy of the prompt with the given pipeline source
// inserted as (or replacing) the <CODE> section — the chain driver appends
// each step's result to the next prompt (Figure 6's ordering).
func WithCode(p Prompt, code string) Prompt {
	text := p.Text
	if i := strings.Index(text, "<CODE>\n"); i >= 0 {
		if j := strings.Index(text, "</CODE>\n"); j > i {
			text = text[:i] + text[j+len("</CODE>\n"):]
		}
	}
	if code != "" {
		block := "<CODE>\n" + code
		if !strings.HasSuffix(code, "\n") {
			block += "\n"
		}
		block += "</CODE>\n"
		if i := strings.Index(text, "<SCHEMA>"); i >= 0 {
			text = text[:i] + block + text[i:]
		} else {
			text += block
		}
	}
	out := p
	out.Text = text
	out.Tokens = CountTokens(text)
	return out
}
