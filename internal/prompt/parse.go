package prompt

import (
	"strconv"
	"strings"

	"catdb/internal/data"
)

// Parsed is the structured view of a prompt's wire format — what the
// (simulated) LLM "understands" when reading the prompt text.
type Parsed struct {
	Dataset     string
	Task        data.Task
	Target      string
	Rows        int
	Kind        Kind
	Description string
	Cols        []ParsedCol
	Rules       []ParsedRule
	PrevCode    string
	// Error-correction prompts:
	HasError  bool
	ErrorLine int
	ErrorCode string
	ErrorMsg  string
}

// ParsedCol is one schema line as seen by the LLM.
type ParsedCol struct {
	Name        string
	Type        string
	Feature     string
	IsTarget    bool
	Distinct    int
	DistinctPct float64
	MissingPct  float64
	Min, Max    float64
	Mean        float64
	Median      float64
	Values      []string
}

// ParsedRule is one rule line: the stage and the directly-followable
// directive (the why text is dropped — it is for humans).
type ParsedRule struct {
	Stage     string
	Directive string
}

// ParsePrompt decodes the wire format produced by Format/FormatErrorPrompt.
// Unknown lines are skipped — the format is designed so a sloppy reader
// still extracts the essentials, like an LLM would.
func ParsePrompt(text string) Parsed {
	var p Parsed
	section := ""
	var desc, code []string
	for _, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		switch line {
		case "<TASK>", "<SCHEMA>", "<RULES>", "<DESCRIPTION>", "<CODE>", "<ERROR>", "<OUTPUT>":
			section = strings.Trim(line, "<>")
			continue
		case "</TASK>", "</SCHEMA>", "</RULES>", "</DESCRIPTION>", "</CODE>", "</ERROR>", "</OUTPUT>":
			section = ""
			continue
		}
		switch section {
		case "TASK":
			kv := parseKV(line)
			p.Dataset = kv["dataset"]
			p.Target = kv["target"]
			p.Kind = Kind(kv["kind"])
			p.Rows, _ = strconv.Atoi(kv["rows"])
			switch kv["task"] {
			case "binary":
				p.Task = data.Binary
			case "multiclass":
				p.Task = data.Multiclass
			case "regression":
				p.Task = data.Regression
			}
		case "DESCRIPTION":
			desc = append(desc, raw)
		case "CODE":
			code = append(code, raw)
		case "SCHEMA":
			if !strings.HasPrefix(line, "col ") {
				continue
			}
			kv := parseKV(strings.TrimPrefix(line, "col "))
			c := ParsedCol{
				Name:     kv["name"],
				Type:     kv["type"],
				Feature:  kv["feature"],
				IsTarget: kv["target"] == "true",
			}
			c.Distinct, _ = strconv.Atoi(kv["distinct"])
			c.DistinctPct, _ = strconv.ParseFloat(kv["distinct_pct"], 64)
			c.MissingPct, _ = strconv.ParseFloat(kv["missing_pct"], 64)
			if _, ok := kv["mean"]; ok {
				c.Min, _ = strconv.ParseFloat(kv["min"], 64)
				c.Max, _ = strconv.ParseFloat(kv["max"], 64)
				c.Mean, _ = strconv.ParseFloat(kv["mean"], 64)
				c.Median, _ = strconv.ParseFloat(kv["median"], 64)
			}
			if v, ok := kv["values"]; ok && v != "" {
				c.Values = strings.Split(v, "|")
			}
			p.Cols = append(p.Cols, c)
		case "RULES":
			if !strings.HasPrefix(line, "rule ") {
				continue
			}
			rest := strings.TrimPrefix(line, "rule ")
			if i := strings.Index(rest, " -- "); i >= 0 {
				rest = rest[:i]
			}
			parts := strings.SplitN(rest, " ", 2)
			if len(parts) != 2 {
				continue
			}
			p.Rules = append(p.Rules, ParsedRule{Stage: parts[0], Directive: parts[1]})
		case "ERROR":
			kv := parseKV(line)
			if _, ok := kv["code"]; ok {
				p.HasError = true
				p.ErrorCode = kv["code"]
				p.ErrorMsg = kv["msg"]
				p.ErrorLine, _ = strconv.Atoi(kv["line"])
			}
		}
	}
	p.Description = strings.TrimSpace(strings.Join(desc, "\n"))
	p.PrevCode = strings.Join(code, "\n")
	return p
}

// parseKV splits `a=1 b="x y" c=z` into a map, honouring double quotes.
func parseKV(line string) map[string]string {
	out := map[string]string{}
	i := 0
	for i < len(line) {
		for i < len(line) && line[i] == ' ' {
			i++
		}
		start := i
		for i < len(line) && line[i] != '=' && line[i] != ' ' {
			i++
		}
		if i >= len(line) || line[i] != '=' {
			continue
		}
		key := line[start:i]
		i++ // skip '='
		var val string
		if i < len(line) && line[i] == '"' {
			// Scan honouring backslash escapes (FormatErrorPrompt quotes
			// messages with strconv.Quote).
			var sb strings.Builder
			j := i + 1
			for j < len(line) && line[j] != '"' {
				if line[j] == '\\' && j+1 < len(line) {
					j++
				}
				sb.WriteByte(line[j])
				j++
			}
			val = sb.String()
			i = j + 1
		} else {
			j := i
			for j < len(line) && line[j] != ' ' {
				j++
			}
			val = line[i:j]
			i = j
		}
		out[key] = val
	}
	return out
}

// FormatErrorPrompt renders the dedicated error-correction template of
// §4.2 (Figure 7): the erroneous source in <CODE>, the error with its line
// number in <ERROR>, and — for runtime errors — the metadata relevant to
// the error in <SCHEMA>.
func FormatErrorPrompt(in Input, source string, errLine int, errCode, errMsg string, relevantCols []ColumnMeta, cfg Config) Prompt {
	var b strings.Builder
	b.WriteString("# CatDB error-correction prompt\n")
	b.WriteString("<TASK>\n")
	b.WriteString("dataset=" + in.Dataset + " task=" + taskName(in.Task) +
		" target=" + strconv.Quote(in.Target) + " rows=" + strconv.Itoa(in.Rows) + " kind=error-fix\n")
	b.WriteString("</TASK>\n<CODE>\n")
	b.WriteString(source)
	if !strings.HasSuffix(source, "\n") {
		b.WriteByte('\n')
	}
	b.WriteString("</CODE>\n<ERROR>\n")
	b.WriteString("line=" + strconv.Itoa(errLine) + " code=" + errCode + " msg=" + strconv.Quote(errMsg) + "\n")
	b.WriteString("</ERROR>\n")
	if len(relevantCols) > 0 {
		b.WriteString("<SCHEMA>\n")
		for _, l := range schemaLines(relevantCols, cfg, in.Target) {
			b.WriteString(l)
			b.WriteByte('\n')
		}
		b.WriteString("</SCHEMA>\n")
	}
	b.WriteString("<OUTPUT>\nReturn the corrected PipeScript program only.\n</OUTPUT>\n")
	text := b.String()
	return Prompt{Kind: "error-fix", Text: text, Tokens: CountTokens(text)}
}
