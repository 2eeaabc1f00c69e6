// Package ml provides the downstream-model substrate for the model
// performance user-intent measure Δ_M: a from-scratch logistic-regression
// classifier and a majority baseline, scored by deterministic k-fold
// cross-validated accuracy. The paper used scikit-learn models for the same
// role; Δ_M only requires an accuracy metric that responds to data
// preparation changes.
package ml

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoData is returned when a dataset has no usable rows or features.
var ErrNoData = errors.New("ml: empty dataset")

// Dataset is a dense feature matrix with binary labels.
type Dataset struct {
	X [][]float64
	Y []int // 0 or 1
}

// NewDataset validates shapes and returns a dataset.
func NewDataset(x [][]float64, y []int) (*Dataset, error) {
	if len(x) == 0 || len(y) != len(x) {
		return nil, fmt.Errorf("%w: %d rows, %d labels", ErrNoData, len(x), len(y))
	}
	w := len(x[0])
	for i, row := range x {
		if len(row) != w {
			return nil, fmt.Errorf("ml: ragged row %d (%d vs %d)", i, len(row), w)
		}
	}
	return &Dataset{X: x, Y: y}, nil
}

// Len returns the number of rows.
func (d *Dataset) Len() int { return len(d.X) }

// NumFeatures returns the feature count.
func (d *Dataset) NumFeatures() int {
	if len(d.X) == 0 {
		return 0
	}
	return len(d.X[0])
}

// Folds partitions the dataset deterministically into k folds by position
// (round-robin), for cross-validated accuracy. Position-based assignment
// keeps fold membership nearly stable under small row additions/removals
// and exactly stable under column changes — important when accuracy deltas
// between two variants of the same prepared table must reflect the data
// change, not partition churn.
func (d *Dataset) Folds(k int) []*Dataset {
	if k < 2 {
		k = 2
	}
	folds := make([]*Dataset, k)
	for i := range folds {
		folds[i] = &Dataset{}
	}
	for i := range d.X {
		f := folds[i%k]
		f.X = append(f.X, d.X[i])
		f.Y = append(f.Y, d.Y[i])
	}
	return folds
}

// merge concatenates datasets.
func merge(parts []*Dataset) *Dataset {
	out := &Dataset{}
	for _, p := range parts {
		out.X = append(out.X, p.X...)
		out.Y = append(out.Y, p.Y...)
	}
	return out
}

// CrossValAccuracy returns the k-fold cross-validated accuracy of the
// classifiers fit produces: the share of rows whose held-out prediction
// from CrossValPredictions matches the label (each row is tested exactly
// once).
func CrossValAccuracy(d *Dataset, k int, fit func(*Dataset) (Classifier, error)) (float64, error) {
	preds, err := CrossValPredictions(d, k, fit)
	if err != nil {
		return 0, err
	}
	correct := 0
	for i, p := range preds {
		if p == d.Y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(preds)), nil
}

// Classifier is a trained binary classifier.
type Classifier interface {
	// Predict returns the predicted class (0 or 1) for a feature row.
	Predict(x []float64) int
}

// Accuracy returns the fraction of correct predictions on the dataset.
func Accuracy(c Classifier, d *Dataset) float64 {
	if d.Len() == 0 {
		return 0
	}
	correct := 0
	for i := range d.X {
		if c.Predict(d.X[i]) == d.Y[i] {
			correct++
		}
	}
	return float64(correct) / float64(d.Len())
}

// LogisticRegression is a binary logistic-regression classifier trained by
// full-batch gradient descent on standardized features.
type LogisticRegression struct {
	Weights []float64
	Bias    float64
	// means/stds standardize inputs at predict time.
	means, stds []float64
}

// LogisticConfig configures training.
type LogisticConfig struct {
	// Epochs is the number of full-batch gradient steps (default 200).
	Epochs int
	// LearningRate is the step size (default 0.5).
	LearningRate float64
	// L2 is the ridge penalty (default 1e-3).
	L2 float64
}

func (c *LogisticConfig) defaults() {
	if c.Epochs == 0 {
		c.Epochs = 200
	}
	if c.LearningRate == 0 {
		c.LearningRate = 0.5
	}
	if c.L2 == 0 {
		c.L2 = 1e-3
	}
}

// TrainLogistic fits a logistic-regression model on the dataset.
func TrainLogistic(d *Dataset, cfg LogisticConfig) (*LogisticRegression, error) {
	if d.Len() == 0 || d.NumFeatures() == 0 {
		return nil, ErrNoData
	}
	cfg.defaults()
	n, m := d.Len(), d.NumFeatures()
	means := make([]float64, m)
	stds := make([]float64, m)
	for j := 0; j < m; j++ {
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += d.X[i][j]
		}
		means[j] = sum / float64(n)
		acc := 0.0
		for i := 0; i < n; i++ {
			dv := d.X[i][j] - means[j]
			acc += dv * dv
		}
		stds[j] = math.Sqrt(acc / float64(n))
		if stds[j] == 0 {
			stds[j] = 1
		}
	}
	z := make([][]float64, n)
	for i := range z {
		row := make([]float64, m)
		for j := 0; j < m; j++ {
			row[j] = (d.X[i][j] - means[j]) / stds[j]
		}
		z[i] = row
	}
	w := make([]float64, m)
	b := 0.0
	grad := make([]float64, m)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for j := range grad {
			grad[j] = 0
		}
		gb := 0.0
		for i := 0; i < n; i++ {
			s := b
			for j := 0; j < m; j++ {
				s += w[j] * z[i][j]
			}
			p := sigmoid(s)
			err := p - float64(d.Y[i])
			for j := 0; j < m; j++ {
				grad[j] += err * z[i][j]
			}
			gb += err
		}
		inv := 1.0 / float64(n)
		for j := 0; j < m; j++ {
			w[j] -= cfg.LearningRate * (grad[j]*inv + cfg.L2*w[j])
		}
		b -= cfg.LearningRate * gb * inv
	}
	return &LogisticRegression{Weights: w, Bias: b, means: means, stds: stds}, nil
}

func sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// PredictProba returns the probability of class 1.
func (lr *LogisticRegression) PredictProba(x []float64) float64 {
	s := lr.Bias
	for j := range lr.Weights {
		v := 0.0
		if j < len(x) {
			v = x[j]
		}
		s += lr.Weights[j] * (v - lr.means[j]) / lr.stds[j]
	}
	return sigmoid(s)
}

// Predict returns the class with probability threshold 0.5.
func (lr *LogisticRegression) Predict(x []float64) int {
	if lr.PredictProba(x) >= 0.5 {
		return 1
	}
	return 0
}

// CrossValPredictions returns one held-out prediction per row using k-fold
// cross-validation over the round-robin Folds: predictions[i] is made by a
// model that never saw row i.
func CrossValPredictions(d *Dataset, k int, fit func(*Dataset) (Classifier, error)) ([]int, error) {
	if d.Len() == 0 {
		return nil, ErrNoData
	}
	if k < 2 {
		k = 2
	}
	folds := d.Folds(k)
	preds := make([]int, d.Len())
	for i := range folds {
		if folds[i].Len() == 0 {
			continue
		}
		var trainParts []*Dataset
		for j := range folds {
			if j != i {
				trainParts = append(trainParts, folds[j])
			}
		}
		train := merge(trainParts)
		if train.Len() == 0 {
			return nil, ErrNoData
		}
		clf, err := fit(train)
		if err != nil {
			return nil, err
		}
		for r := range folds[i].X {
			// Fold i holds original rows i, i+k, i+2k, … in order.
			preds[i+r*k] = clf.Predict(folds[i].X[r])
		}
	}
	return preds, nil
}

// MajorityClassifier predicts the constant majority class; it is the
// fallback when a prepared dataset has no numeric features left.
type MajorityClassifier struct {
	Class int
}

// Predict returns the constant class.
func (m MajorityClassifier) Predict([]float64) int { return m.Class }

// TrainMajority fits the majority baseline.
func TrainMajority(d *Dataset) MajorityClassifier {
	ones := 0
	for _, y := range d.Y {
		ones += y
	}
	if 2*ones >= len(d.Y) {
		return MajorityClassifier{Class: 1}
	}
	return MajorityClassifier{Class: 0}
}
