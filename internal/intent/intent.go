// Package intent implements the paper's user-intent measures (Section 2.1):
// the table Jaccard similarity Δ_J between the output datasets of the input
// and modified scripts, and the model-performance change Δ_M measured on a
// downstream classifier trained on each output dataset.
package intent

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"lucidscript/internal/frame"
	"lucidscript/internal/ml"
)

// ErrNoOutput is returned when a script produced no output dataset.
var ErrNoOutput = errors.New("intent: script produced no output dataset")

// TableJaccard returns |A ∩ B| / |A ∪ B| over the distinct cell values of
// the two frames, following the paper's Example 2.1 (the output datasets
// are compared as sets of values, e.g. {"benign", "Benign", "High Risk",
// "High risk", "high risk"} vs {"benign", "high risk"} → 2/5). Comparing
// value sets rather than rows means feature additions whose values already
// occur (one-hot 0/1 columns, dummies) barely move the measure, matching
// the paper's observation that τ_J = 0.9 still admits substantial
// standardization. Null cells contribute a distinct <null> token. Two empty
// frames are identical (1.0). The sets are frame.ValueSets.
func TableJaccard(a, b *frame.Frame) (float64, error) {
	if a == nil || b == nil {
		return 0, ErrNoOutput
	}
	return a.ValueSet().Jaccard(b.ValueSet()), nil
}

// RowJaccard returns |A ∩ B| / |A ∪ B| over the row multisets of the two
// frames — a stricter alternative measure the framework also supports.
// Rows compare by frame.RowKeys, cell by cell in column-name order, so
// column reordering does not reduce similarity; frames whose column names
// differ share no row.
func RowJaccard(a, b *frame.Frame) (float64, error) {
	if a == nil || b == nil {
		return 0, ErrNoOutput
	}
	inter := 0
	if slices.Equal(sortedNames(a), sortedNames(b)) {
		counts := make(map[string]int, a.NumRows())
		for _, k := range a.RowKeys() {
			counts[k]++
		}
		for _, k := range b.RowKeys() {
			if counts[k] > 0 {
				counts[k]--
				inter++
			}
		}
	}
	union := a.NumRows() + b.NumRows() - inter
	if union == 0 {
		return 1, nil
	}
	return float64(inter) / float64(union), nil
}

func sortedNames(f *frame.Frame) []string {
	names := f.ColumnNames()
	sort.Strings(names)
	return names
}

// ModelConfig configures the downstream model used by Δ_M.
type ModelConfig struct {
	// Target is the label column name in the output dataset.
	Target string
	// Protected names the protected-attribute column for MeasureFairness.
	Protected string
	// Epochs overrides logistic training epochs (default 120, enough for
	// the small corpus datasets while keeping constraint checks fast).
	Epochs int
}

func (c *ModelConfig) defaults() {
	if c.Epochs == 0 {
		c.Epochs = 120
	}
}

// ModelAccuracy trains the downstream classifier on the output dataset and
// returns 4-fold cross-validated accuracy (every row is tested exactly
// once, which keeps Δ_M dominated by genuine data changes rather than
// partition churn). The target column is binarized by comparing to its
// mean when it is not already 0/1. When the prepared dataset has no usable
// numeric features the majority baseline is used (a prepared table that
// destroys all features still has a defined accuracy).
func ModelAccuracy(out *frame.Frame, cfg ModelConfig) (float64, error) {
	if out == nil {
		return 0, ErrNoOutput
	}
	cfg.defaults()
	target, err := out.Column(cfg.Target)
	if err != nil {
		return 0, fmt.Errorf("intent: target column: %w", err)
	}
	x, _ := out.NumericMatrix(cfg.Target)
	y, err := binarize(target)
	if err != nil {
		return 0, err
	}
	if len(x) == 0 {
		return 0, fmt.Errorf("%w: no rows after preparation", ml.ErrNoData)
	}
	ds, err := ml.NewDataset(x, y)
	if err != nil {
		return 0, err
	}
	if ds.NumFeatures() == 0 {
		return ml.CrossValAccuracy(ds, 4, func(train *ml.Dataset) (ml.Classifier, error) {
			return ml.TrainMajority(train), nil
		})
	}
	return ml.CrossValAccuracy(ds, 4, func(train *ml.Dataset) (ml.Classifier, error) {
		return ml.TrainLogistic(train, ml.LogisticConfig{Epochs: cfg.Epochs})
	})
}

func binarize(target *frame.Series) ([]int, error) {
	n := target.Len()
	y := make([]int, n)
	if target.IsNumeric() || target.Kind() == frame.Bool {
		zeroOne := true
		for i := 0; i < n; i++ {
			v := target.Float(i)
			if math.IsNaN(v) {
				continue
			}
			if v != 0 && v != 1 {
				zeroOne = false
				break
			}
		}
		thr := 0.5
		if !zeroOne {
			thr = target.Mean()
		}
		for i := 0; i < n; i++ {
			v := target.Float(i)
			if !math.IsNaN(v) && v > thr {
				y[i] = 1
			}
		}
		return y, nil
	}
	// String target: most frequent value is class 0, everything else 1.
	mode, ok := target.Mode()
	if !ok {
		return nil, fmt.Errorf("intent: target column %q is all null", target.Name())
	}
	for i := 0; i < n; i++ {
		if target.IsValid(i) && target.StringAt(i) != mode {
			y[i] = 1
		}
	}
	return y, nil
}

// ModelDelta returns Δ_M: the absolute relative accuracy change in percent
// (Section 2.1), between the output datasets of the original and modified
// scripts.
func ModelDelta(origOut, newOut *frame.Frame, cfg ModelConfig) (float64, error) {
	accOrig, err := ModelAccuracy(origOut, cfg)
	if err != nil {
		return 0, err
	}
	accNew, err := ModelAccuracy(newOut, cfg)
	if err != nil {
		return 0, err
	}
	return AccuracyChange(accOrig, accNew), nil
}

// AccuracyChange is Δ_M's formula: the absolute change from accuracy orig
// to accuracy new, in percent of orig (100 when only orig is zero, 0 when
// both are).
func AccuracyChange(orig, new float64) float64 {
	if orig == 0 {
		if new == 0 {
			return 0
		}
		return 100
	}
	return math.Abs(orig-new) / orig * 100
}

// Measure identifies the user-intent measure in use.
type Measure int

// The supported user-intent measures.
const (
	// MeasureJaccard constrains Δ_J(D_OUT^s, D_OUT^ŝ) ≥ τ_J (value-set
	// Jaccard, the paper's Example 2.1 definition).
	MeasureJaccard Measure = iota
	// MeasureModel constrains Δ_M(D_OUT^s, D_OUT^ŝ) ≤ τ_M (percent).
	MeasureModel
	// MeasureRowJaccard constrains the stricter row-multiset Jaccard ≥ τ.
	MeasureRowJaccard
	// MeasureEMD constrains the normalized earth-mover distance ≤ τ
	// (the additional measure proposed in Section 8).
	MeasureEMD
	// MeasureFairness constrains the change in the downstream model's
	// demographic-parity gap to ≤ τ (Section 8's fairness direction);
	// requires Model.Target and Model.Protected.
	MeasureFairness
)

// String names the measure.
func (m Measure) String() string {
	switch m {
	case MeasureJaccard:
		return "table-jaccard"
	case MeasureModel:
		return "model-performance"
	case MeasureRowJaccard:
		return "row-jaccard"
	case MeasureEMD:
		return "earth-mover"
	case MeasureFairness:
		return "fairness"
	}
	return fmt.Sprintf("Measure(%d)", int(m))
}

// Constraint is a user-intent constraint: measure plus threshold.
type Constraint struct {
	Measure Measure
	// Tau is τ_J in [0,1] for MeasureJaccard (higher = stricter) or τ_M in
	// percent for MeasureModel (lower = stricter).
	Tau float64
	// Model configures the downstream model for MeasureModel.
	Model ModelConfig
}

// Satisfied reports whether the modified output preserves the user intent
// within the constraint threshold, along with the measured value.
func (c Constraint) Satisfied(origOut, newOut *frame.Frame) (bool, float64, error) {
	switch c.Measure {
	case MeasureJaccard:
		j, err := TableJaccard(origOut, newOut)
		if err != nil {
			return false, 0, err
		}
		return j >= c.Tau, j, nil
	case MeasureModel:
		d, err := ModelDelta(origOut, newOut, c.Model)
		if err != nil {
			return false, 0, err
		}
		return d <= c.Tau, d, nil
	case MeasureRowJaccard:
		j, err := RowJaccard(origOut, newOut)
		if err != nil {
			return false, 0, err
		}
		return j >= c.Tau, j, nil
	case MeasureEMD:
		d, err := EMD(origOut, newOut)
		if err != nil {
			return false, 0, err
		}
		return d <= c.Tau, d, nil
	case MeasureFairness:
		d, err := FairnessDelta(origOut, newOut, c.Model, c.Model.Protected)
		if err != nil {
			return false, 0, err
		}
		return d <= c.Tau, d, nil
	default:
		return false, 0, fmt.Errorf("intent: unknown measure %v", c.Measure)
	}
}
