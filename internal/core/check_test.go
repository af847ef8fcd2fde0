package core

import (
	"math/rand"
	"testing"

	"catdb/internal/data"
	"catdb/internal/llm"
	"catdb/internal/pipescript"
	"catdb/internal/pool"
)

// recordingClient passes every call to the simulated LLM and keeps every
// completion: the programs it writes, first drafts and repairs alike.
type recordingClient struct {
	llm.Client
	texts []string
}

func (c *recordingClient) Complete(prompt string) (llm.Response, error) {
	resp, err := c.Client.Complete(prompt)
	if err == nil {
		c.texts = append(c.texts, resp.Text)
	}
	return resp, err
}

// TestCheckMatchesExecuteOnGeneratedPrograms runs every program the
// simulated LLMs write over the gen-repair grid (seven datasets, three
// personalities, CatDB and CatDB Chain) through Execute and Check on a
// validation-sized sample of the run's train split, and requires the
// same outcome: both nil or the same error text. The grid's fault
// injection must give every personality passing and failing programs.
func TestCheckMatchesExecuteOnGeneratedPrograms(t *testing.T) {
	const seed = 1
	datasets := []string{"Wifi", "Diabetes", "Tic-Tac-Toe", "CMC", "EU-IT", "Etailing", "Utility"}
	passed, failed := map[string]int{}, map[string]int{}
	cell := 0
	for _, name := range datasets {
		ds := loadDS(t, name, 0.2)
		for _, model := range llm.ModelNames() {
			for _, chains := range []int{1, 3} {
				// Each cell's LLM seed is derived as e2ebench derives it,
				// so the same faults are injected as in its gen-repair grid.
				sim, err := llm.New(model, pool.DeriveSeed(0, cell, name, model))
				if err != nil {
					t.Fatal(err)
				}
				cell++
				rec := &recordingClient{Client: sim}
				var train *data.Table // the run's train split, kept (not changed) by TrainMutator
				r := NewRunner(rec)
				opts := Options{Seed: seed, Chains: chains, TrainMutator: func(t *data.Table) { train = t }}
				if _, err := r.Run(ds, opts); err != nil {
					t.Fatalf("%s/%s/β=%d: %v", name, model, chains, err)
				}
				rng := rand.New(rand.NewSource(seed))
				vTrain, vTest := train.Sample(500, rng), train.Sample(250, rng)
				for _, src := range rec.texts {
					p, err := pipescript.Parse(src)
					if err != nil {
						continue // refinement replies and syntax faults never execute
					}
					// Chain steps before the last run without a train
					// statement, as the loop runs them.
					full, cheap := r.executor(ds, opts), r.executor(ds, opts)
					full.AllowNoTrain, cheap.AllowNoTrain = p.TrainStmt() == nil, p.TrainStmt() == nil
					_, want := full.Execute(p, vTrain, vTest)
					got := cheap.Check(p, vTrain, vTest)
					if outcome(want) != outcome(got) {
						t.Fatalf("%s/%s/β=%d: Check and Execute disagree on\n%s\nExecute: %v\nCheck:   %v",
							name, model, chains, src, want, got)
					}
					if want == nil {
						passed[model]++
					} else {
						failed[model]++
					}
				}
			}
		}
	}
	for _, model := range llm.ModelNames() {
		if passed[model] == 0 || failed[model] == 0 {
			t.Errorf("%s: %d passing and %d failing programs, want both", model, passed[model], failed[model])
		}
		t.Logf("%s: %d passing, %d failing programs", model, passed[model], failed[model])
	}
}

// outcome renders an error for comparison: its full text, or "" for
// success.
func outcome(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
