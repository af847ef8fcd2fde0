package baselines

import (
	"errors"
	"fmt"
	"time"

	"catdb/internal/data"
	"catdb/internal/ml"
)

// AutoMLTool names one of the simulated AutoML systems.
type AutoMLTool string

// The AutoML tools of §5.1. Auto-Sklearn covers both Auto-Sklearn (for
// regression) and Auto-Sklearn 2.0 (for classification), as in the paper.
const (
	AutoSklearn AutoMLTool = "Auto-Sklearn"
	H2O         AutoMLTool = "H2O"
	FLAML       AutoMLTool = "Flaml"
	AutoGluon   AutoMLTool = "Autogluon"
)

// AutoMLTools lists the simulated tools in the paper's column order.
func AutoMLTools() []AutoMLTool { return []AutoMLTool{AutoSklearn, H2O, FLAML, AutoGluon} }

// AutoMLOptions tunes an AutoML run.
type AutoMLOptions struct {
	// TimeBudget caps search time (the paper sets it to the measured
	// CatDB runtime). Default 30s.
	TimeBudget time.Duration
	Seed       int64
	// MaxCells caps rows×features before the tool reports out-of-memory
	// (Auto-Sklearn's Table 7 failures). 0 = tool default.
	MaxCells int
}

// candidate is one (model, hyper-parameter) configuration in a portfolio.
type candidate struct {
	name string
	clf  func(seed int64) ml.Classifier
	reg  func(seed int64) ml.Regressor
}

func portfolio(tool AutoMLTool) []candidate {
	rf := func(trees, depth int) candidate {
		return candidate{
			name: fmt.Sprintf("rf%d", trees),
			clf: func(seed int64) ml.Classifier {
				return ml.NewForest(ml.ForestConfig{Trees: trees, MaxDepth: depth, Seed: seed})
			},
			reg: func(seed int64) ml.Regressor {
				return ml.NewForest(ml.ForestConfig{Trees: trees, MaxDepth: depth, Seed: seed})
			},
		}
	}
	gbm := func(rounds int) candidate {
		return candidate{
			name: fmt.Sprintf("gbm%d", rounds),
			clf: func(seed int64) ml.Classifier {
				// One-vs-rest boosting costs rounds×classes tree fits;
				// budgeted tools cap the product.
				return ml.NewGBM(ml.GBMConfig{Rounds: rounds, Seed: seed, MaxDepth: 4})
			},
			reg: func(seed int64) ml.Regressor {
				return ml.NewGBM(ml.GBMConfig{Rounds: rounds, Seed: seed})
			},
		}
	}
	tree := candidate{
		name: "tree",
		clf: func(seed int64) ml.Classifier {
			return ml.NewTree(ml.TreeConfig{Seed: seed})
		},
		reg: func(seed int64) ml.Regressor {
			return ml.NewTree(ml.TreeConfig{Seed: seed})
		},
	}
	knn := candidate{
		name: "knn",
		clf: func(seed int64) ml.Classifier {
			return ml.NewKNN(ml.KNNConfig{K: 7, MaxTrain: 3000})
		},
		reg: func(seed int64) ml.Regressor {
			return ml.NewKNN(ml.KNNConfig{K: 7, MaxTrain: 3000})
		},
	}
	switch tool {
	case AutoSklearn:
		return []candidate{rf(40, 12), gbm(40), tree, knn}
	case H2O:
		return []candidate{gbm(60), rf(50, 14), tree}
	case FLAML:
		// FLAML's signature: cheap learners first, budget-aware.
		return []candidate{tree, gbm(30), rf(25, 10), gbm(80)}
	case AutoGluon:
		// AutoGluon stacks larger ensembles.
		return []candidate{rf(80, 16), gbm(100), rf(40, 10)}
	default:
		return []candidate{rf(40, 12)}
	}
}

// toolMaxCells is the capacity ceiling (rows × encoded features) per tool;
// Auto-Sklearn's is the lowest, reproducing its Table 7 OOM/timeout
// failures on the large multi-table datasets.
func toolMaxCells(tool AutoMLTool) int {
	switch tool {
	case AutoSklearn:
		return 1_500_000
	case H2O:
		return 12_000_000
	case AutoGluon:
		return 20_000_000
	default: // FLAML subsamples internally; effectively unbounded here.
		return 1 << 40
	}
}

// RunAutoML runs a simulated AutoML tool on a pre-split dataset. No data
// cleaning happens beyond imputation and one-hot encoding — the tools
// optimize models, not data.
func RunAutoML(tool AutoMLTool, train, test *data.Table, target string, task data.Task, opts AutoMLOptions) Outcome {
	start := time.Now()
	o := Outcome{System: string(tool), Dataset: train.Name, Metric: "auc"}
	if !task.IsClassification() {
		o.Metric = "r2"
	}
	budget := opts.TimeBudget
	if budget <= 0 {
		budget = 30 * time.Second
	}
	e, err := encodeBasic(train, test, target, task, 64)
	if err != nil {
		return failed(string(tool), train.Name, err.Error())
	}
	maxCells := opts.MaxCells
	if maxCells <= 0 {
		maxCells = toolMaxCells(tool)
	}
	if len(e.Xtr)*len(e.Xtr[0]) > maxCells {
		return failed(string(tool), train.Name, "OOM")
	}
	// Budget-aware subsampling: like the real tools under a time budget,
	// training operates on a capped working set when the encoded matrix is
	// large (FLAML subsamples aggressively; the others less so).
	capCells := 600_000
	if tool == AutoGluon {
		capCells = 1_200_000
	}
	if cells := len(e.Xtr) * len(e.Xtr[0]); cells > capCells {
		keep := capCells / len(e.Xtr[0])
		if keep < 200 {
			keep = 200
		}
		if keep < len(e.Xtr) {
			e.Xtr = e.Xtr[:keep]
			if e.ytrC != nil {
				e.ytrC = e.ytrC[:keep]
			}
			if e.ytrR != nil {
				e.ytrR = e.ytrR[:keep]
			}
			if e.trainStr != nil {
				e.trainStr = e.trainStr[:keep]
			}
		}
	}

	// Internal holdout for model selection.
	cut := len(e.Xtr) * 4 / 5
	if cut < 1 {
		cut = 1
	}
	bestScore := -1.0
	var bestOutcome *Outcome
	tried := 0
	for i, cand := range portfolio(tool) {
		if tried > 0 && time.Since(start) > budget {
			break // budget exhausted; keep the best so far
		}
		tried++
		co := Outcome{System: string(tool), Dataset: train.Name, Metric: o.Metric}
		var score float64
		if task.IsClassification() {
			clf := cand.clf(opts.Seed + int64(i))
			if err := clf.FitClass(e.Xtr[:cut], e.ytrC[:cut], e.classes); err != nil {
				if errors.Is(err, ml.ErrOutOfMemory) {
					continue
				}
				continue
			}
			score = ml.MacroAUC(clf.Proba(e.Xtr[cut:]), e.ytrC[cut:], e.classes)
			// Refit on the full training split for the final model.
			full := cand.clf(opts.Seed + int64(i))
			if err := full.FitClass(e.Xtr, e.ytrC, e.classes); err != nil {
				continue
			}
			scoreClassifier(&co, full, e)
		} else {
			reg := cand.reg(opts.Seed + int64(i))
			if err := reg.Fit(e.Xtr[:cut], e.ytrR[:cut]); err != nil {
				continue
			}
			score = ml.R2(reg.Predict(e.Xtr[cut:]), e.ytrR[cut:])
			full := cand.reg(opts.Seed + int64(i))
			if err := full.Fit(e.Xtr, e.ytrR); err != nil {
				continue
			}
			scoreRegressor(&co, full, e)
		}
		if score > bestScore {
			bestScore = score
			bestOutcome = &co
		}
	}
	if bestOutcome == nil {
		return failed(string(tool), train.Name, "No trained models")
	}
	out := *bestOutcome
	out.ExecTime = time.Since(start)
	return out
}
