package ml

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// synthLinear builds a linearly separable dataset with optional noise.
func synthLinear(n int, noise float64, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		a := rng.NormFloat64()
		b := rng.NormFloat64()
		x[i] = []float64{a, b}
		score := 2*a - b + noise*rng.NormFloat64()
		if score > 0 {
			y[i] = 1
		}
	}
	d, _ := NewDataset(x, y)
	return d
}

func TestNewDatasetValidation(t *testing.T) {
	if _, err := NewDataset(nil, nil); err == nil {
		t.Fatal("empty dataset should error")
	}
	if _, err := NewDataset([][]float64{{1}}, []int{0, 1}); err == nil {
		t.Fatal("label mismatch should error")
	}
	if _, err := NewDataset([][]float64{{1, 2}, {1}}, []int{0, 1}); err == nil {
		t.Fatal("ragged rows should error")
	}
	d, err := NewDataset([][]float64{{1, 2}}, []int{1})
	if err != nil || d.Len() != 1 || d.NumFeatures() != 2 {
		t.Fatal("valid dataset rejected")
	}
}

// holdOut splits d into the first of four round-robin folds (test) and
// the other three (train).
func holdOut(d *Dataset) (train, test *Dataset) {
	folds := d.Folds(4)
	return merge(folds[1:]), folds[0]
}

func TestLogisticLearnsSeparableData(t *testing.T) {
	d := synthLinear(400, 0.1, 1)
	train, test := holdOut(d)
	lr, err := TrainLogistic(train, LogisticConfig{})
	if err != nil {
		t.Fatal(err)
	}
	acc := Accuracy(lr, test)
	if acc < 0.9 {
		t.Fatalf("logistic accuracy = %v, want >= 0.9", acc)
	}
}

func TestLogisticBeatsGuessingOnNoisy(t *testing.T) {
	d := synthLinear(600, 1.5, 2)
	train, test := holdOut(d)
	lr, err := TrainLogistic(train, LogisticConfig{})
	if err != nil {
		t.Fatal(err)
	}
	maj := TrainMajority(train)
	if Accuracy(lr, test) <= Accuracy(maj, test) {
		t.Fatalf("logistic %v should beat majority %v", Accuracy(lr, test), Accuracy(maj, test))
	}
}

func TestTrainErrorsOnEmpty(t *testing.T) {
	if _, err := TrainLogistic(&Dataset{}, LogisticConfig{}); err == nil {
		t.Fatal("TrainLogistic on empty should error")
	}
}

func TestConstantFeatureNoNaN(t *testing.T) {
	x := [][]float64{{1, 5}, {1, 6}, {1, 7}, {1, 8}}
	y := []int{0, 0, 1, 1}
	d, _ := NewDataset(x, y)
	lr, err := TrainLogistic(d, LogisticConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range lr.Weights {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			t.Fatal("constant feature produced NaN weight")
		}
	}
}

func TestAccuracyEmptySet(t *testing.T) {
	if Accuracy(MajorityClassifier{}, &Dataset{}) != 0 {
		t.Fatal("empty accuracy should be 0")
	}
}

func TestMajorityClassifier(t *testing.T) {
	d, _ := NewDataset([][]float64{{1}, {2}, {3}}, []int{1, 1, 0})
	if TrainMajority(d).Class != 1 {
		t.Fatal("majority should be 1")
	}
}

func TestSigmoidStability(t *testing.T) {
	if s := sigmoid(1000); s != 1 {
		t.Fatalf("sigmoid(1000) = %v", s)
	}
	if s := sigmoid(-1000); s != 0 {
		t.Fatalf("sigmoid(-1000) = %v", s)
	}
	if math.Abs(sigmoid(0)-0.5) > 1e-12 {
		t.Fatal("sigmoid(0)")
	}
}

// Property: accuracy is always within [0, 1].
func TestAccuracyRangeProperty(t *testing.T) {
	f := func(seed int64, noise float64) bool {
		d := synthLinear(50, math.Abs(noise), seed)
		lr, err := TrainLogistic(d, LogisticConfig{Epochs: 10})
		if err != nil {
			return false
		}
		acc := Accuracy(lr, d)
		return acc >= 0 && acc <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestCrossValAccuracyAndPredictions(t *testing.T) {
	d := synthLinear(300, 0.1, 10)
	acc, err := CrossValAccuracy(d, 4, func(train *Dataset) (Classifier, error) {
		return TrainLogistic(train, LogisticConfig{})
	})
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.9 {
		t.Fatalf("CV accuracy = %v", acc)
	}
	preds, err := CrossValPredictions(d, 4, func(train *Dataset) (Classifier, error) {
		return TrainLogistic(train, LogisticConfig{})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != d.Len() {
		t.Fatalf("predictions = %d", len(preds))
	}
	// Prediction accuracy computed from the per-row predictions matches the
	// CV accuracy exactly (same folds).
	correct := 0
	for i, p := range preds {
		if p == d.Y[i] {
			correct++
		}
	}
	if got := float64(correct) / float64(d.Len()); math.Abs(got-acc) > 1e-12 {
		t.Fatalf("per-row accuracy %v != CV accuracy %v", got, acc)
	}
	if _, err := CrossValPredictions(&Dataset{}, 4, nil); err == nil {
		t.Fatal("empty dataset should error")
	}
	if _, err := CrossValAccuracy(&Dataset{}, 4, nil); !errors.Is(err, ErrNoData) {
		t.Fatalf("CrossValAccuracy on empty dataset: err = %v, want ErrNoData", err)
	}
}

func TestFoldsRoundRobin(t *testing.T) {
	d := synthLinear(10, 0.1, 1)
	folds := d.Folds(3)
	if len(folds) != 3 {
		t.Fatal("fold count")
	}
	if folds[0].Len() != 4 || folds[1].Len() != 3 || folds[2].Len() != 3 {
		t.Fatalf("fold sizes = %d %d %d", folds[0].Len(), folds[1].Len(), folds[2].Len())
	}
	// Row 3 lands in fold 0 at position 1.
	if folds[0].X[1][0] != d.X[3][0] {
		t.Fatal("round-robin assignment broken")
	}
}
