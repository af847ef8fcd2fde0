package baselines

import (
	"strings"
	"time"

	"catdb/internal/data"
	"catdb/internal/llm"
	"catdb/internal/pipescript"
	"catdb/internal/profile"
	"catdb/internal/prompt"
)

// llmTrainFrac is the train share of the AIDE and AutoGen splits.
const llmTrainFrac = 0.7

// LLMBaselineOptions tunes the AIDE and AutoGen reproductions.
type LLMBaselineOptions struct {
	Seed int64
	// MaxRetries bounds resubmissions (AIDE retried up to 20 times in the
	// paper's runs, AutoGen up to 15).
	MaxRetries int
}

func (o LLMBaselineOptions) withDefaults(def int) LLMBaselineOptions {
	if o.MaxRetries <= 0 {
		o.MaxRetries = def
	}
	return o
}

// RunAIDE reproduces AIDE (Schmidt et al. 2024): an end-to-end LLM
// solution generator driven by a concise human-written task description
// rather than a data catalog. On errors it resubmits the whole prompt (no
// knowledge base, no targeted metadata), which makes it cheap when the
// LLM succeeds and unstable when it does not — the Figure 11/Table 8
// behaviour. It requires a human description and fails without one.
func RunAIDE(ds *data.Dataset, client llm.Client, opts LLMBaselineOptions) Outcome {
	opts = opts.withDefaults(20)
	o := Outcome{System: "AIDE", Dataset: ds.Name, Model: client.Name()}
	if ds.Description == "" {
		return failed("AIDE", ds.Name, "N/A (needs human-written description)")
	}
	return runDescriptionDriven(o, ds, client, opts, descriptionConfig(), false)
}

// RunAutoGen reproduces AutoGen (Wu et al. 2024) as used in the paper: a
// multi-agent conversation where a writer agent generates the pipeline
// and a critic agent feeds execution errors back (without catalog
// metadata). It carries slightly more metadata than AIDE (missing-value
// frequencies) but still performs no data cleaning; Llama-generated
// pipelines default to naive wide searches, inflating runtime (Table 8).
func RunAutoGen(ds *data.Dataset, client llm.Client, opts LLMBaselineOptions) Outcome {
	opts = opts.withDefaults(15)
	o := Outcome{System: "AutoGen", Dataset: ds.Name, Model: client.Name()}
	cfg := descriptionConfig()
	cfg.Combo = prompt.Combo6
	return runDescriptionDriven(o, ds, client, opts, cfg, true)
}

func descriptionConfig() prompt.Config {
	return prompt.Config{Combo: prompt.Combo1, Chains: 1, IncludeRules: false, IncludeDescription: true}
}

func runDescriptionDriven(o Outcome, ds *data.Dataset, client llm.Client, opts LLMBaselineOptions,
	cfg prompt.Config, errorFeedback bool) Outcome {

	start := time.Now()
	table, err := ds.Consolidate()
	if err != nil {
		return failed(o.System, ds.Name, err.Error())
	}
	var train, test *data.Table
	if ds.Task.IsClassification() {
		train, test = table.StratifiedSplit(ds.Target, llmTrainFrac, opts.Seed)
	} else {
		train, test = table.Split(llmTrainFrac, opts.Seed)
	}
	prof, err := profile.Table(train, ds.Target, ds.Task, profile.Options{Seed: opts.Seed})
	if err != nil {
		return failed(o.System, ds.Name, err.Error())
	}
	in := prompt.InputFromProfile(prof, 0, ds.Description)
	spec := prompt.ModelSpec{Name: client.Name(), MaxPromptTokens: client.MaxPromptTokens()}
	prompts := prompt.Build(in, spec, cfg)
	pr := prompts[0]

	ex := &pipescript.Executor{Target: ds.Target, Task: ds.Task, Seed: opts.Seed}
	var source string
	success := false
	var lastErr error
	for attempt := 0; attempt < opts.MaxRetries; attempt++ {
		text := pr.Text
		if errorFeedback && lastErr != nil && source != "" {
			// AutoGen's critic: the error (without catalog metadata) plus
			// the previous code travel back to the writer agent.
			ep := prompt.FormatErrorPrompt(in, source, errLine(lastErr), errCode(lastErr), lastErr.Error(), nil, cfg)
			text = ep.Text
		}
		resp, cerr := client.Complete(text)
		if cerr != nil {
			return failed(o.System, ds.Name, cerr.Error())
		}
		o.Tokens += resp.Usage.Total()
		source = resp.Text
		prog, perr := pipescript.Parse(source)
		if perr != nil {
			lastErr = perr
			continue
		}
		if o.Model == "llama3.1-70b" {
			// Llama's naive grid-search habit: quadruple the ensemble.
			source = inflateSearch(source)
			prog, perr = pipescript.Parse(source)
			if perr != nil {
				lastErr = perr
				continue
			}
		}
		res, xerr := ex.Execute(prog, train, test)
		if xerr != nil {
			lastErr = xerr
			continue
		}
		o.TrainAcc, o.TestAcc = res.TrainAcc, res.TestAcc
		o.TrainAUC, o.TestAUC = res.TrainAUC, res.TestAUC
		o.TrainR2, o.TestR2 = res.TrainR2, res.TestR2
		o.Metric = res.Metric
		success = true
		break
	}
	o.ExecTime = time.Since(start)
	if !success {
		reason := "retries exhausted"
		if lastErr != nil {
			reason = lastErr.Error()
		}
		f := failed(o.System, ds.Name, reason)
		f.Model = o.Model
		f.Tokens = o.Tokens
		f.ExecTime = o.ExecTime
		return f
	}
	return o
}

func errLine(err error) int {
	if re, ok := err.(*pipescript.RuntimeError); ok {
		return re.Line
	}
	if se, ok := err.(*pipescript.SyntaxError); ok {
		return se.Line
	}
	return 1
}

func errCode(err error) string {
	if re, ok := err.(*pipescript.RuntimeError); ok {
		return re.Code
	}
	if _, ok := err.(*pipescript.SyntaxError); ok {
		return "E_SYNTAX"
	}
	return "E_UNKNOWN"
}

// inflateSearch multiplies ensemble sizes in train statements (the
// Llama grid-search pathology).
func inflateSearch(source string) string {
	lines := strings.Split(source, "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, "train ") {
			l = strings.Replace(l, "trees=40", "trees=160", 1)
			l = strings.Replace(l, "trees=50", "trees=200", 1)
			l = strings.Replace(l, "rounds=40", "rounds=120", 1)
			lines[i] = l
		}
	}
	return strings.Join(lines, "\n")
}
