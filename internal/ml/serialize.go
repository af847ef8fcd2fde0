package ml

import (
	"fmt"
	"math"
)

// This file implements fitted-model serialization for the pipeline
// artifact path: Export captures everything a trained model needs at
// inference time into a flat, JSON-friendly FittedModel, and
// FittedModel.Model reconstructs a live model whose predictions are
// bit-identical to the original (the dumped parameters are the exact
// float64 values the fit produced, and Go's JSON encoder round-trips
// float64 losslessly). Training-only state (RNG seeds, bagging rows,
// binned matrices) is deliberately not serialized.

// Model kind tags stored in FittedModel.Kind.
const (
	KindForest     = "forest"
	KindExtraTrees = "extra_trees"
	KindTree       = "tree"
	KindGBM        = "gbm"
	KindKNN        = "knn"
	KindLogistic   = "logistic"
	KindLinear     = "linear"
	KindNaiveBayes = "naive_bayes"
	KindSVM        = "svm"
	KindTabPFN     = "tabpfn"
)

// FlatNode is one node of a dumped decision tree. It is the dump form
// only: a fitted tree lives as a packed node array (see Tree), and
// Export and FittedModel.Model convert between the two. Nodes are in
// pre-order with children as indices into the node slice (-1 = absent).
// The loader requires a split's Left to be the next node (i+1) and its
// Right to lie after it, so every walk moves forward and ends on a leaf.
type FlatNode struct {
	Feature   int       `json:"f"`
	Threshold float64   `json:"t"`
	Left      int       `json:"l"`
	Right     int       `json:"r"`
	Leaf      bool      `json:"leaf,omitempty"`
	Value     []float64 `json:"v,omitempty"`
}

// ScalerDump holds fitted standardization parameters.
type ScalerDump struct {
	Mean []float64 `json:"mean"`
	Std  []float64 `json:"std"`
}

// FittedModel is the serializable form of any trained model in the zoo.
// Only the fields relevant to Kind are populated; the rest stay at their
// zero values and are omitted from the encoding.
type FittedModel struct {
	Kind    string `json:"kind"`
	Classes int    `json:"classes,omitempty"` // 0 for regression

	// Tree ensembles (forest, extra_trees, tree, gbm regression chain).
	Trees [][]FlatNode `json:"trees,omitempty"`
	// GBM classification: per class, per boosting round.
	OVR          [][][]FlatNode `json:"ovr,omitempty"`
	Base         float64        `json:"base,omitempty"`
	Bias         []float64      `json:"bias,omitempty"`
	LearningRate float64        `json:"learning_rate,omitempty"`

	// Instance stores (knn, tabpfn) hold already-standardized rows.
	X         [][]float64 `json:"x,omitempty"`
	Yr        []float64   `json:"yr,omitempty"`
	Yc        []int       `json:"yc,omitempty"`
	K         int         `json:"k,omitempty"`
	Bandwidth float64     `json:"bandwidth,omitempty"`

	// Linear family.
	W     []float64   `json:"w,omitempty"`  // linear regression weights
	WC    [][]float64 `json:"wc,omitempty"` // logistic / svm per-class weights
	B     float64     `json:"b,omitempty"`
	BC    []float64   `json:"bc,omitempty"`
	YMean float64     `json:"y_mean,omitempty"`
	YStd  float64     `json:"y_std,omitempty"`

	// Gaussian naive Bayes.
	Prior []float64   `json:"prior,omitempty"`
	Mean  [][]float64 `json:"mean,omitempty"`
	Vari  [][]float64 `json:"vari,omitempty"`

	Scaler *ScalerDump `json:"scaler,omitempty"`
}

// dumpTrees writes fitted trees out in dump form. A leaf's Value shares
// the tree's slab, capped at its own values so that appending to it
// cannot overwrite the next leaf.
func dumpTrees(trees []*Tree) [][]FlatNode {
	out := make([][]FlatNode, len(trees))
	for k, t := range trees {
		width := max(t.classes, 1)
		nodes := make([]FlatNode, len(t.nodes))
		for i, n := range t.nodes {
			if n.feat < 0 {
				o := int(n.right)
				nodes[i] = FlatNode{Left: -1, Right: -1, Leaf: true, Value: t.vals[o : o+width : o+width]}
			} else {
				nodes[i] = FlatNode{Feature: int(n.feat), Threshold: n.thr, Left: i + 1, Right: int(n.right)}
			}
		}
		out[k] = nodes
	}
	return out
}

// loadTree validates one dumped tree and packs it into the live form. A
// leaf must carry exactly one value per class, or one value for a
// regression tree (classes 0); a split must test a feature >= 0, with
// Left = i+1 and i+1 < Right < len(nodes). Export writes only such
// trees, and together the rules keep every walk in bounds.
func loadTree(nodes []FlatNode, classes int) (*Tree, error) {
	if len(nodes) == 0 || len(nodes) > math.MaxInt32 {
		return nil, fmt.Errorf("ml: malformed tree dump: %d nodes", len(nodes))
	}
	width := max(classes, 1)
	t := NewTree(TreeConfig{})
	t.classes = classes
	t.nodes = make([]node, len(nodes))
	for i, fn := range nodes {
		if fn.Leaf {
			if len(fn.Value) != width {
				return nil, fmt.Errorf("ml: malformed tree dump: leaf %d has %d values, want %d",
					i, len(fn.Value), width)
			}
			t.nodes[i] = node{feat: -1, right: int32(len(t.vals))}
			t.vals = append(t.vals, fn.Value...)
			continue
		}
		if fn.Feature < 0 || fn.Feature > math.MaxInt32 ||
			fn.Left != i+1 || fn.Right <= i+1 || fn.Right >= len(nodes) {
			return nil, fmt.Errorf("ml: malformed tree dump: node %d splits on feature %d with children %d, %d (of %d nodes)",
				i, fn.Feature, fn.Left, fn.Right, len(nodes))
		}
		t.nodes[i] = node{thr: fn.Threshold, feat: int32(fn.Feature), right: int32(fn.Right)}
	}
	return t, nil
}

// loadTrees loads a list of dumped trees (see loadTree).
func loadTrees(dumps [][]FlatNode, classes int) ([]*Tree, error) {
	trees := make([]*Tree, len(dumps))
	for i, nodes := range dumps {
		t, err := loadTree(nodes, classes)
		if err != nil {
			return nil, err
		}
		trees[i] = t
	}
	return trees, nil
}

func dumpScaler(s *scaler) *ScalerDump {
	if s == nil {
		return nil
	}
	return &ScalerDump{Mean: s.mean, Std: s.std}
}

func loadScaler(d *ScalerDump, kind string) (*scaler, error) {
	if d == nil {
		return nil, fmt.Errorf("ml: %s dump is missing its scaler", kind)
	}
	if len(d.Mean) != len(d.Std) {
		return nil, fmt.Errorf("ml: %s scaler has %d means for %d deviations", kind, len(d.Mean), len(d.Std))
	}
	return &scaler{mean: d.Mean, std: d.Std}, nil
}

// checkClassWeights requires a logistic or svm dump to carry a weight row
// and a bias for every class, as inference reads them.
func checkClassWeights(fm *FittedModel) error {
	if len(fm.WC) < fm.Classes || len(fm.BC) < fm.Classes {
		return fmt.Errorf("ml: %s dump has %d weight rows and %d biases for %d classes",
			fm.Kind, len(fm.WC), len(fm.BC), fm.Classes)
	}
	return nil
}

// checkStoredLabels requires an instance-store dump (knn, tabpfn) to carry
// a label for every stored row: a class in [0, classes), or a target for
// knn regression.
func checkStoredLabels(fm *FittedModel) error {
	if fm.Kind == KindKNN && fm.Classes == 0 {
		if len(fm.Yr) < len(fm.X) {
			return fmt.Errorf("ml: knn dump has %d targets for %d stored rows", len(fm.Yr), len(fm.X))
		}
		return nil
	}
	if len(fm.Yc) < len(fm.X) {
		return fmt.Errorf("ml: %s dump has %d labels for %d stored rows", fm.Kind, len(fm.Yc), len(fm.X))
	}
	for _, y := range fm.Yc[:len(fm.X)] {
		if y < 0 || y >= fm.Classes {
			return fmt.Errorf("ml: %s dump has class label %d outside [0, %d)", fm.Kind, y, fm.Classes)
		}
	}
	return nil
}

// Export captures a trained model's inference-time parameters. It errors
// on unknown model types and on models that have not been fitted.
func Export(m any) (*FittedModel, error) {
	switch v := m.(type) {
	case *Forest:
		if !v.Fitted() {
			return nil, fmt.Errorf("ml: cannot export unfitted forest")
		}
		return &FittedModel{Kind: KindForest, Classes: v.classes, Trees: dumpTrees(v.trees)}, nil
	case *ExtraTrees:
		if !v.Fitted() {
			return nil, fmt.Errorf("ml: cannot export unfitted extra-trees ensemble")
		}
		return &FittedModel{Kind: KindExtraTrees, Classes: v.classes, Trees: dumpTrees(v.trees)}, nil
	case *Tree:
		if len(v.nodes) == 0 {
			return nil, fmt.Errorf("ml: cannot export unfitted tree")
		}
		return &FittedModel{Kind: KindTree, Classes: v.classes, Trees: dumpTrees([]*Tree{v})}, nil
	case *GBM:
		if !v.Fitted() {
			return nil, fmt.Errorf("ml: cannot export unfitted gbm")
		}
		fm := &FittedModel{Kind: KindGBM, Classes: v.classes, Trees: dumpTrees(v.trees),
			Base: v.base, Bias: v.bias, LearningRate: v.Config.LearningRate}
		for _, chain := range v.ovr {
			fm.OVR = append(fm.OVR, dumpTrees(chain))
		}
		return fm, nil
	case *KNN:
		if len(v.x) == 0 {
			return nil, fmt.Errorf("ml: cannot export unfitted knn")
		}
		return &FittedModel{Kind: KindKNN, Classes: v.classes,
			X: v.x, Yr: v.yr, Yc: v.yc, K: v.Config.K, Scaler: dumpScaler(v.sc)}, nil
	case *Logistic:
		if len(v.w) == 0 {
			return nil, fmt.Errorf("ml: cannot export unfitted logistic model")
		}
		return &FittedModel{Kind: KindLogistic, Classes: v.classes,
			WC: v.w, BC: v.b, Scaler: dumpScaler(v.sc)}, nil
	case *Linear:
		if v.sc == nil {
			return nil, fmt.Errorf("ml: cannot export unfitted linear model")
		}
		return &FittedModel{Kind: KindLinear, W: v.w, B: v.b,
			YMean: v.yMean, YStd: v.yStd, Scaler: dumpScaler(v.sc)}, nil
	case *NaiveBayes:
		if v.classes == 0 {
			return nil, fmt.Errorf("ml: cannot export unfitted naive-bayes model")
		}
		return &FittedModel{Kind: KindNaiveBayes, Classes: v.classes,
			Prior: v.prior, Mean: v.mean, Vari: v.vari}, nil
	case *SVM:
		if len(v.w) == 0 {
			return nil, fmt.Errorf("ml: cannot export unfitted svm")
		}
		return &FittedModel{Kind: KindSVM, Classes: v.classes,
			WC: v.w, BC: v.b, Scaler: dumpScaler(v.sc)}, nil
	case *TabPFNSim:
		if len(v.x) == 0 {
			return nil, fmt.Errorf("ml: cannot export unfitted tabpfn model")
		}
		return &FittedModel{Kind: KindTabPFN, Classes: v.classes,
			X: v.x, Yc: v.y, Bandwidth: v.bandwidth, Scaler: dumpScaler(v.sc)}, nil
	default:
		return nil, fmt.Errorf("ml: cannot export model of type %T", m)
	}
}

// Model reconstructs a live model from the dump.
func (fm *FittedModel) Model() (any, error) {
	if fm.Classes < 0 {
		return nil, fmt.Errorf("ml: %s dump has %d classes", fm.Kind, fm.Classes)
	}
	switch fm.Kind {
	case KindForest, KindExtraTrees:
		trees, err := loadTrees(fm.Trees, fm.Classes)
		if err != nil {
			return nil, err
		}
		if len(trees) == 0 {
			return nil, fmt.Errorf("ml: %s dump has no trees", fm.Kind)
		}
		if fm.Kind == KindExtraTrees {
			e := NewExtraTrees(ForestConfig{})
			e.trees, e.classes = trees, fm.Classes
			return e, nil
		}
		f := NewForest(ForestConfig{})
		f.trees, f.classes = trees, fm.Classes
		return f, nil
	case KindTree:
		if len(fm.Trees) != 1 {
			return nil, fmt.Errorf("ml: tree dump needs exactly 1 tree, got %d", len(fm.Trees))
		}
		t, err := loadTree(fm.Trees[0], fm.Classes)
		if err != nil {
			return nil, err
		}
		return t, nil
	case KindGBM:
		// Boosted trees are regression trees at any class count.
		trees, err := loadTrees(fm.Trees, 0)
		if err != nil {
			return nil, err
		}
		g := NewGBM(GBMConfig{LearningRate: fm.LearningRate})
		g.classes, g.base, g.bias, g.trees = fm.Classes, fm.Base, fm.Bias, trees
		for _, chain := range fm.OVR {
			trees, err := loadTrees(chain, 0)
			if err != nil {
				return nil, err
			}
			g.ovr = append(g.ovr, trees)
		}
		if len(g.trees) == 0 && len(g.ovr) == 0 {
			return nil, fmt.Errorf("ml: gbm dump has no trees")
		}
		if fm.Classes > 0 && (len(g.ovr) != fm.Classes || len(g.bias) != fm.Classes) {
			return nil, fmt.Errorf("ml: gbm dump has %d OVR chains and %d biases for %d classes",
				len(g.ovr), len(g.bias), fm.Classes)
		}
		g.fitted = true
		return g, nil
	case KindKNN:
		sc, err := loadScaler(fm.Scaler, fm.Kind)
		if err != nil {
			return nil, err
		}
		k := NewKNN(KNNConfig{K: fm.K})
		k.classes = fm.Classes
		k.x, k.yr, k.yc, k.sc = fm.X, fm.Yr, fm.Yc, sc
		if len(k.x) == 0 {
			return nil, fmt.Errorf("ml: knn dump has no stored rows")
		}
		if err := checkStoredLabels(fm); err != nil {
			return nil, err
		}
		return k, nil
	case KindLogistic:
		sc, err := loadScaler(fm.Scaler, fm.Kind)
		if err != nil {
			return nil, err
		}
		if err := checkClassWeights(fm); err != nil {
			return nil, err
		}
		l := NewLogistic(LinearConfig{})
		l.classes = fm.Classes
		l.w, l.b, l.sc = fm.WC, fm.BC, sc
		return l, nil
	case KindLinear:
		sc, err := loadScaler(fm.Scaler, fm.Kind)
		if err != nil {
			return nil, err
		}
		l := NewLinear(LinearConfig{})
		l.w, l.b, l.sc, l.yMean, l.yStd = fm.W, fm.B, sc, fm.YMean, fm.YStd
		return l, nil
	case KindNaiveBayes:
		// Inference reads a prior, a mean row and a variance as long as
		// the mean row for every class, and at least one class.
		if fm.Classes == 0 || len(fm.Prior) != fm.Classes || len(fm.Mean) < fm.Classes || len(fm.Vari) < fm.Classes {
			return nil, fmt.Errorf("ml: naive-bayes dump has %d priors, %d mean rows and %d variance rows for %d classes",
				len(fm.Prior), len(fm.Mean), len(fm.Vari), fm.Classes)
		}
		for c, mean := range fm.Mean[:fm.Classes] {
			if len(fm.Vari[c]) < len(mean) {
				return nil, fmt.Errorf("ml: naive-bayes dump has %d variances for %d means in class %d", len(fm.Vari[c]), len(mean), c)
			}
		}
		nb := NewNaiveBayes()
		nb.classes = fm.Classes
		nb.prior, nb.mean, nb.vari = fm.Prior, fm.Mean, fm.Vari
		return nb, nil
	case KindSVM:
		sc, err := loadScaler(fm.Scaler, fm.Kind)
		if err != nil {
			return nil, err
		}
		if err := checkClassWeights(fm); err != nil {
			return nil, err
		}
		m := NewSVM(LinearConfig{})
		m.classes = fm.Classes
		m.w, m.b, m.sc = fm.WC, fm.BC, sc
		return m, nil
	case KindTabPFN:
		sc, err := loadScaler(fm.Scaler, fm.Kind)
		if err != nil {
			return nil, err
		}
		if err := checkStoredLabels(fm); err != nil {
			return nil, err
		}
		t := NewTabPFNSim()
		t.classes = fm.Classes
		t.x, t.y, t.sc, t.bandwidth = fm.X, fm.Yc, sc, fm.Bandwidth
		return t, nil
	default:
		return nil, fmt.Errorf("ml: unknown model kind %q", fm.Kind)
	}
}
