package intent

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"lucidscript/internal/corpusgen"
	"lucidscript/internal/frame"
)

func mustCSV(t *testing.T, s string) *frame.Frame {
	t.Helper()
	f, err := frame.ReadCSVString(s)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestTableJaccardIdentical(t *testing.T) {
	f := mustCSV(t, "a,b\n1,2\n3,4\n")
	j, err := TableJaccard(f, f.Clone())
	if err != nil || j != 1 {
		t.Fatalf("jaccard = %v err=%v", j, err)
	}
}

func TestTableJaccardPaperExample(t *testing.T) {
	// Example 2.1: 5 distinct rows vs 2 kept rows → 2/5.
	a := mustCSV(t, "label\nbenign\nBenign\nHigh Risk\nHigh risk\nhigh risk\n")
	b := mustCSV(t, "label\nbenign\nhigh risk\n")
	j, err := TableJaccard(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(j-0.4) > 1e-9 {
		t.Fatalf("jaccard = %v, want 0.4", j)
	}
}

func TestTableJaccardDisjoint(t *testing.T) {
	a := mustCSV(t, "a\n1\n2\n")
	b := mustCSV(t, "a\n3\n4\n")
	j, _ := TableJaccard(a, b)
	if j != 0 {
		t.Fatalf("jaccard = %v", j)
	}
}

func TestTableJaccardValueSetSemantics(t *testing.T) {
	// Duplicated rows do not change the value set (Example 2.1 semantics).
	a := mustCSV(t, "a\n1\n1\n1\n")
	b := mustCSV(t, "a\n1\n")
	j, _ := TableJaccard(a, b)
	if j != 1 {
		t.Fatalf("value-set jaccard = %v, want 1", j)
	}
	// Adding a 0/1 dummy column where 0 and 1 already occur barely moves it.
	c := mustCSV(t, "a,b\n0,1\n1,0\n")
	d := mustCSV(t, "a,b,dummy\n0,1,1\n1,0,0\n")
	j2, _ := TableJaccard(c, d)
	if j2 != 1 {
		t.Fatalf("dummy column jaccard = %v, want 1", j2)
	}
}

func TestRowJaccardMultiset(t *testing.T) {
	a := mustCSV(t, "a\n1\n1\n1\n")
	b := mustCSV(t, "a\n1\n")
	j, _ := RowJaccard(a, b)
	if math.Abs(j-1.0/3) > 1e-9 {
		t.Fatalf("row jaccard = %v, want 1/3", j)
	}
	if _, err := RowJaccard(nil, b); err == nil {
		t.Fatal("nil frame should error")
	}
	c := mustCSV(t, "a,b\n1,2\n")
	d := mustCSV(t, "b,a\n2,1\n")
	if j2, _ := RowJaccard(c, d); j2 != 1 {
		t.Fatalf("row jaccard column order = %v", j2)
	}
}

// TestRowJaccardSeparatorCollision compares a one-column row with a
// two-column row that renders to the same tab-joined name=value string:
// frames with different column names share no row.
func TestRowJaccardSeparatorCollision(t *testing.T) {
	a, err := frame.FromSeries(frame.NewStringSeries("a", []string{"1\tb=2"}))
	if err != nil {
		t.Fatal(err)
	}
	b := mustCSV(t, "a,b\n1,2\n")
	if j, _ := RowJaccard(a, b); j != 0 {
		t.Fatalf("row jaccard = %v, want 0", j)
	}
}

func TestTableJaccardColumnOrderInsensitive(t *testing.T) {
	a := mustCSV(t, "a,b\n1,2\n")
	b := mustCSV(t, "b,a\n2,1\n")
	j, _ := TableJaccard(a, b)
	if j != 1 {
		t.Fatalf("jaccard = %v", j)
	}
}

func TestTableJaccardNil(t *testing.T) {
	f := mustCSV(t, "a\n1\n")
	if _, err := TableJaccard(nil, f); err == nil {
		t.Fatal("nil frame should error")
	}
	if _, err := TableJaccard(f, nil); err == nil {
		t.Fatal("nil frame should error")
	}
}

func TestTableJaccardBothEmpty(t *testing.T) {
	a := mustCSV(t, "a\n1\n").Head(0)
	b := mustCSV(t, "a\n1\n").Head(0)
	j, err := TableJaccard(a, b)
	if err != nil || j != 1 {
		t.Fatalf("empty jaccard = %v", j)
	}
}

// synthFrame builds a labeled dataset where feat1 predicts the label.
func synthFrame(t *testing.T, n int, seed int64) *frame.Frame {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	b.WriteString("feat1,feat2,Outcome\n")
	for i := 0; i < n; i++ {
		a := rng.NormFloat64()
		c := rng.NormFloat64()
		label := 0
		if a > 0 {
			label = 1
		}
		b.WriteString(strconv.FormatFloat(a, 'f', 4, 64))
		b.WriteByte(',')
		b.WriteString(strconv.FormatFloat(c, 'f', 4, 64))
		b.WriteByte(',')
		b.WriteString(strconv.Itoa(label))
		b.WriteByte('\n')
	}
	return mustCSV(t, b.String())
}

func TestModelAccuracyOnPredictiveData(t *testing.T) {
	f := synthFrame(t, 400, 5)
	acc, err := ModelAccuracy(f, ModelConfig{Target: "Outcome"})
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.85 {
		t.Fatalf("accuracy = %v", acc)
	}
}

func TestModelAccuracyMissingTarget(t *testing.T) {
	f := synthFrame(t, 50, 5)
	if _, err := ModelAccuracy(f, ModelConfig{Target: "Nope"}); err == nil {
		t.Fatal("missing target should error")
	}
}

func TestModelDeltaIdenticalZero(t *testing.T) {
	f := synthFrame(t, 300, 6)
	d, err := ModelDelta(f, f.Clone(), ModelConfig{Target: "Outcome"})
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Fatalf("delta = %v, want 0", d)
	}
}

func TestModelDeltaDetectsDegradation(t *testing.T) {
	f := synthFrame(t, 400, 7)
	// Destroy the predictive feature. DeepClone: we mutate the column in
	// place, which plain Clone now shares.
	broken := f.DeepClone()
	feat, _ := broken.Column("feat1")
	for i := 0; i < feat.Len(); i++ {
		feat.SetFloat(i, 0)
	}
	d, err := ModelDelta(f, broken, ModelConfig{Target: "Outcome"})
	if err != nil {
		t.Fatal(err)
	}
	if d < 10 {
		t.Fatalf("delta = %v, want large degradation", d)
	}
}

func TestAccuracyChange(t *testing.T) {
	for _, c := range []struct{ orig, new, want float64 }{
		{0, 0, 0},
		{0, 0.4, 100},
		{0.8, 0.6, 25},
		{0.5, 0.75, 50},
		{0.9, 0.9, 0},
	} {
		if got := AccuracyChange(c.orig, c.new); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("AccuracyChange(%v, %v) = %v, want %v", c.orig, c.new, got, c.want)
		}
	}
}

func TestBinarizeStringTarget(t *testing.T) {
	f := mustCSV(t, "feat,label\n1,yes\n2,yes\n3,no\n4,no\n5,yes\n6,no\n7,yes\n8,no\n9,yes\n10,no\n")
	acc, err := ModelAccuracy(f, ModelConfig{Target: "label"})
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0 || acc > 1 {
		t.Fatalf("accuracy = %v", acc)
	}
}

func TestBinarizeNonBinaryNumeric(t *testing.T) {
	f := mustCSV(t, "feat,price\n1,100\n2,200\n3,300\n4,400\n5,500\n6,600\n7,700\n8,800\n9,900\n10,1000\n")
	acc, err := ModelAccuracy(f, ModelConfig{Target: "price"})
	if err != nil {
		t.Fatal(err)
	}
	// Mean-threshold binarization over a monotone feature is learnable.
	if acc < 0.5 {
		t.Fatalf("accuracy = %v", acc)
	}
}

func TestConstraintJaccard(t *testing.T) {
	a := mustCSV(t, "a\n1\n2\n3\n4\n5\n")
	b := mustCSV(t, "a\n1\n2\n3\n4\n")
	c := Constraint{Measure: MeasureJaccard, Tau: 0.9}
	ok, val, err := c.Satisfied(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatalf("4/5 = %v should violate τ=0.9", val)
	}
	c.Tau = 0.7
	ok, _, _ = c.Satisfied(a, b)
	if !ok {
		t.Fatal("4/5 should satisfy τ=0.7")
	}
}

func TestConstraintModel(t *testing.T) {
	f := synthFrame(t, 300, 8)
	c := Constraint{Measure: MeasureModel, Tau: 1, Model: ModelConfig{Target: "Outcome"}}
	ok, val, err := c.Satisfied(f, f.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if !ok || val != 0 {
		t.Fatalf("identical outputs should satisfy: ok=%v val=%v", ok, val)
	}
}

func TestConstraintUnknownMeasure(t *testing.T) {
	c := Constraint{Measure: Measure(99)}
	if _, _, err := c.Satisfied(nil, nil); err == nil {
		t.Fatal("unknown measure should error")
	}
}

func TestMeasureString(t *testing.T) {
	if MeasureJaccard.String() != "table-jaccard" || MeasureModel.String() != "model-performance" {
		t.Fatal("measure names")
	}
}

// Property: Jaccard is symmetric and within [0,1].
func TestJaccardSymmetryProperty(t *testing.T) {
	gen := func(vals []uint8) *frame.Frame {
		var b strings.Builder
		b.WriteString("a\n")
		for _, v := range vals {
			b.WriteString(strconv.Itoa(int(v % 8)))
			b.WriteByte('\n')
		}
		f, _ := frame.ReadCSVString(b.String())
		return f
	}
	f := func(x, y []uint8) bool {
		if len(x) == 0 || len(y) == 0 {
			return true
		}
		a, b := gen(x), gen(y)
		j1, err1 := TableJaccard(a, b)
		j2, err2 := TableJaccard(b, a)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(j1-j2) < 1e-12 && j1 >= 0 && j1 <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkTableJaccard compares a Sales-sized table (the row scale of the
// Sales workload in cmd/lsperf) with a filtered copy of itself, the shape
// of one Δ_J verification.
func BenchmarkTableJaccard(b *testing.B) {
	comp, err := corpusgen.Get("Sales")
	if err != nil {
		b.Fatal(err)
	}
	data, err := comp.Generate(corpusgen.GenOptions{Seed: 1, RowScale: 0.02})
	if err != nil {
		b.Fatal(err)
	}
	orig := data.Sources[comp.File]
	price, err := orig.Column("item_price")
	if err != nil {
		b.Fatal(err)
	}
	m, err := price.Compare(frame.Gt, 0.0)
	if err != nil {
		b.Fatal(err)
	}
	cand, err := orig.Filter(m)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TableJaccard(orig, cand); err != nil {
			b.Fatal(err)
		}
	}
}
