// Package ml is the from-scratch machine-learning substrate the generated
// pipelines train against: CART decision trees, random forests, gradient
// boosting, logistic/linear/ridge regression, k-nearest neighbours,
// Gaussian naive Bayes, and a TabPFN-like kernel model (with the real
// TabPFN's small-data restriction), plus the evaluation metrics the paper
// reports (accuracy, AUC, F1, R², RMSE, log-loss).
package ml

import (
	"errors"
	"fmt"

	"catdb/internal/pool"
)

// ErrOutOfMemory is returned by models whose working set would exceed their
// design limits (used to reproduce the paper's TabPFN out-of-memory
// failures on large datasets).
var ErrOutOfMemory = errors.New("ml: model working set exceeds memory budget")

// Regressor is a model fitted to, and predicting, a numeric value per
// row.
type Regressor interface {
	Fit(X [][]float64, y []float64) error
	Predict(X [][]float64) []float64
}

// Classifier is a model fitted to class indices in [0,classes) that
// predicts class probabilities.
type Classifier interface {
	FitClass(X [][]float64, y []int, classes int) error
	// Proba returns an n×classes matrix of class probabilities.
	Proba(X [][]float64) [][]float64
}

// checkXY validates shared fit preconditions.
func checkXY(X [][]float64, n int) error {
	if len(X) == 0 {
		return fmt.Errorf("ml: empty feature matrix")
	}
	if len(X) != n {
		return fmt.Errorf("ml: X has %d rows, y has %d", len(X), n)
	}
	w := len(X[0])
	for i, r := range X {
		if len(r) != w {
			return fmt.Errorf("ml: ragged feature matrix at row %d", i)
		}
	}
	return nil
}

// argmax returns the index of the largest value (first on ties).
func argmax(v []float64) int {
	best, bi := v[0], 0
	for i, x := range v[1:] {
		if x > best {
			best, bi = x, i+1
		}
	}
	return bi
}

// predictFromProba converts probability rows into class predictions.
func predictFromProba(p [][]float64) []int {
	out := make([]int, len(p))
	for i, row := range p {
		out[i] = argmax(row)
	}
	return out
}

// inferChunk is the row-chunk granularity for parallel batch inference:
// large enough to amortize dispatch, small enough to balance load.
const inferChunk = 512

// forChunks fans fn over contiguous row ranges of [0,n) on the worker
// pool. Each chunk writes only its own output indices, so results are
// identical at any worker count. A chunk that panics panics again on the
// caller's goroutine, with the pool's *PanicError as the value.
func forChunks(n int, fn func(lo, hi int)) {
	if n == 0 {
		return
	}
	chunks := (n + inferChunk - 1) / inferChunk
	err := pool.Each(chunks, func(c int) error {
		lo := c * inferChunk
		hi := lo + inferChunk
		if hi > n {
			hi = n
		}
		fn(lo, hi)
		return nil
	})
	if err != nil {
		panic(err)
	}
}
