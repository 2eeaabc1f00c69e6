package frame

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Abs(a-b) < 1e-9
}

func TestFloatSeriesBasics(t *testing.T) {
	s := NewFloatSeries("x", []float64{1, 2, math.NaN(), 4})
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	if s.Kind() != Float {
		t.Fatalf("Kind = %v, want Float", s.Kind())
	}
	if s.NullCount() != 1 {
		t.Fatalf("NullCount = %d, want 1", s.NullCount())
	}
	if s.IsValid(2) {
		t.Fatal("row 2 should be null")
	}
	if !almostEq(s.Mean(), 7.0/3) {
		t.Fatalf("Mean = %v, want %v", s.Mean(), 7.0/3)
	}
	if !almostEq(s.Median(), 2) {
		t.Fatalf("Median = %v, want 2", s.Median())
	}
	if !almostEq(s.Min(), 1) || !almostEq(s.Max(), 4) {
		t.Fatalf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	if !almostEq(s.Sum(), 7) {
		t.Fatalf("Sum = %v, want 7", s.Sum())
	}
}

func TestMedianEvenCount(t *testing.T) {
	s := NewFloatSeries("x", []float64{4, 1, 3, 2})
	if !almostEq(s.Median(), 2.5) {
		t.Fatalf("Median = %v, want 2.5", s.Median())
	}
}

func TestEmptySeriesStats(t *testing.T) {
	s := NewEmptySeries("x", Float, 3)
	if !math.IsNaN(s.Mean()) || !math.IsNaN(s.Median()) || !math.IsNaN(s.Min()) {
		t.Fatal("stats of all-null series should be NaN")
	}
	if _, ok := s.Mode(); ok {
		t.Fatal("Mode of all-null series should report !ok")
	}
}

func TestModeTieBreak(t *testing.T) {
	s := NewStringSeries("c", []string{"b", "a", "b", "a", "c"})
	m, ok := s.Mode()
	if !ok || m != "a" {
		t.Fatalf("Mode = %q (ok=%v), want a (lexicographic tie-break)", m, ok)
	}
}

func TestFillNAFloat(t *testing.T) {
	s := NewFloatSeries("x", []float64{1, math.NaN(), 3})
	filled := s.FillNAFloat(s.Mean())
	if filled.NullCount() != 0 {
		t.Fatal("FillNAFloat left nulls")
	}
	if !almostEq(filled.Float(1), 2) {
		t.Fatalf("filled value = %v, want 2", filled.Float(1))
	}
	// Original unchanged.
	if s.NullCount() != 1 {
		t.Fatal("FillNAFloat mutated receiver")
	}
}

func TestFillNAString(t *testing.T) {
	s := NewEmptySeries("e", String, 3)
	s.SetString(0, "S")
	filled := s.FillNAString("Q")
	if filled.StringAt(1) != "Q" || filled.StringAt(2) != "Q" {
		t.Fatalf("FillNAString = %q,%q want Q,Q", filled.StringAt(1), filled.StringAt(2))
	}
}

func TestStringOps(t *testing.T) {
	s := NewStringSeries("c", []string{" High Risk ", "BENIGN"})
	if got := s.Lower().StringAt(1); got != "benign" {
		t.Fatalf("Lower = %q", got)
	}
	if got := s.Upper().StringAt(1); got != "BENIGN" {
		t.Fatalf("Upper = %q", got)
	}
	if got := s.Strip().StringAt(0); got != "High Risk" {
		t.Fatalf("Strip = %q", got)
	}
	if got := s.ReplaceString(" ", "_").StringAt(0); got != "_High_Risk_" {
		t.Fatalf("Replace = %q", got)
	}
}

func TestMapValues(t *testing.T) {
	s := NewStringSeries("sex", []string{"male", "female", "male"})
	m := s.MapValues(map[string]string{"male": "0", "female": "1"})
	if m.Kind() != Int {
		t.Fatalf("mapped kind = %v, want Int after inference", m.Kind())
	}
	if m.Float(0) != 0 || m.Float(1) != 1 {
		t.Fatalf("mapped values wrong: %v %v", m.Float(0), m.Float(1))
	}
}

func TestMapValuesPreservesNull(t *testing.T) {
	s := NewEmptySeries("c", String, 2)
	s.SetString(0, "x")
	m := s.MapValues(map[string]string{"x": "y"})
	if m.IsValid(1) {
		t.Fatal("null should stay null through MapValues")
	}
	if m.StringAt(0) != "y" {
		t.Fatalf("mapped = %q, want y", m.StringAt(0))
	}
}

func TestAsType(t *testing.T) {
	s := NewStringSeries("x", []string{"1.5", "oops", "3"})
	f := s.AsType(Float)
	if !almostEq(f.Float(0), 1.5) {
		t.Fatalf("AsType(Float)[0] = %v", f.Float(0))
	}
	if f.IsValid(1) {
		t.Fatal("non-numeric string should become null")
	}
	i := s.AsType(Int)
	if i.Kind() != Int || i.Float(2) != 3 {
		t.Fatalf("AsType(Int) = kind %v val %v", i.Kind(), i.Float(2))
	}
	str := NewIntSeries("n", []int64{7}).AsType(String)
	if str.StringAt(0) != "7" {
		t.Fatalf("AsType(String) = %q", str.StringAt(0))
	}
}

func TestCompare(t *testing.T) {
	s := NewFloatSeries("age", []float64{15, 20, math.NaN(), 30})
	m, err := s.Compare(Ge, 18.0)
	if err != nil {
		t.Fatal(err)
	}
	want := Mask{false, true, false, true}
	for i := range want {
		if m[i] != want[i] {
			t.Fatalf("Compare mask[%d] = %v, want %v", i, m[i], want[i])
		}
	}
}

func TestCompareStringEq(t *testing.T) {
	s := NewStringSeries("e", []string{"S", "C", "S"})
	m, err := s.Compare(Eq, "S")
	if err != nil {
		t.Fatal(err)
	}
	if m.Count() != 2 {
		t.Fatalf("Eq count = %d, want 2", m.Count())
	}
}

func TestCompareIntValue(t *testing.T) {
	s := NewIntSeries("n", []int64{1, 5, 10})
	m, err := s.Compare(Lt, 5)
	if err != nil {
		t.Fatal(err)
	}
	if m.Count() != 1 || !m[0] {
		t.Fatalf("Lt mask = %v", m)
	}
}

// TestCompareSeries pins the series-vs-series rules: a null on either side
// is false, two numeric series compare as floats (int against float
// included), and anything else compares by rendering — so "10" < "9".
func TestCompareSeries(t *testing.T) {
	ints := NewIntSeries("i", []int64{1, 5, 10, 3, 10})
	ints.SetNull(3)
	floats := NewFloatSeries("f", []float64{math.NaN(), 5, 10.5, 7, 9.5})
	strs := NewStringSeries("s", []string{"10", "9", "abc", "5", "10"})
	strs.SetNull(2)
	nums := NewIntSeries("n", []int64{9, 9, 1, 5, 10})
	for _, tc := range []struct {
		name string
		l, r *Series
		op   CmpOp
		want Mask
	}{
		{"int<float", ints, floats, Lt, Mask{false, false, true, false, false}},
		{"int==float", ints, floats, Eq, Mask{false, true, false, false, false}},
		{"float!=int", floats, ints, Ne, Mask{false, false, true, false, true}},
		{"string<int", strs, nums, Lt, Mask{true, false, false, false, false}},
		{"string==int", strs, nums, Eq, Mask{false, true, false, true, true}},
		{"int>=string", nums, strs, Ge, Mask{true, true, false, true, true}},
	} {
		got, err := tc.l.CompareSeries(tc.op, tc.r)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i := range tc.want {
			if got[i] != tc.want[i] {
				t.Errorf("%s: mask = %v, want %v", tc.name, got, tc.want)
				break
			}
		}
	}
	if _, err := ints.CompareSeries(Eq, NewIntSeries("short", []int64{1})); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestCompareUnsupportedType(t *testing.T) {
	s := NewIntSeries("n", []int64{1})
	if _, err := s.Compare(Lt, struct{}{}); err == nil {
		t.Fatal("expected error for unsupported comparison type")
	}
}

func TestBetween(t *testing.T) {
	s := NewFloatSeries("age", []float64{17, 18, 25, 26, math.NaN()})
	m := s.Between(18, 25)
	want := Mask{false, true, true, false, false}
	for i := range want {
		if m[i] != want[i] {
			t.Fatalf("Between[%d] = %v, want %v", i, m[i], want[i])
		}
	}
}

func TestIsInAndNulls(t *testing.T) {
	s := NewEmptySeries("c", String, 3)
	s.SetString(0, "a")
	s.SetString(2, "b")
	m := s.IsIn([]string{"a", "b"})
	if !m[0] || m[1] || !m[2] {
		t.Fatalf("IsIn mask = %v", m)
	}
	if s.IsNull().Count() != 1 || s.NotNull().Count() != 2 {
		t.Fatal("IsNull/NotNull counts wrong")
	}
}

func TestMaskCombinators(t *testing.T) {
	a := Mask{true, true, false}
	b := Mask{true, false, false}
	if and := a.And(b); and.Count() != 1 || !and[0] {
		t.Fatalf("And = %v", and)
	}
	if or := a.Or(b); or.Count() != 2 {
		t.Fatalf("Or = %v", or)
	}
	if not := a.Not(); not.Count() != 1 || !not[2] {
		t.Fatalf("Not = %v", not)
	}
}

func TestArith(t *testing.T) {
	a := NewFloatSeries("a", []float64{1, 2, 3})
	b := NewFloatSeries("b", []float64{10, 20, 30})
	sum, err := a.Arith(Add, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(sum.Float(2), 33) {
		t.Fatalf("Add = %v", sum.Float(2))
	}
	div, _ := a.Arith(Div, NewFloatSeries("z", []float64{0, 1, 1}))
	if div.IsValid(0) {
		t.Fatal("division by zero should be null")
	}
	if _, err := a.Arith(Add, NewFloatSeries("short", []float64{1})); err == nil {
		t.Fatal("length mismatch should error")
	}
}

func TestArithStringConcat(t *testing.T) {
	a := NewStringSeries("a", []string{"x", "y"})
	b := NewStringSeries("b", []string{"1", "2"})
	c, err := a.Arith(Add, b)
	if err != nil {
		t.Fatal(err)
	}
	if c.StringAt(0) != "x1" || c.StringAt(1) != "y2" {
		t.Fatalf("concat = %q,%q", c.StringAt(0), c.StringAt(1))
	}
}

func TestArithScalarAndUnary(t *testing.T) {
	a := NewFloatSeries("a", []float64{-1, 4})
	if got := a.ArithScalar(Mul, 2).Float(1); !almostEq(got, 8) {
		t.Fatalf("ArithScalar = %v", got)
	}
	if got := a.Abs().Float(0); !almostEq(got, 1) {
		t.Fatalf("Abs = %v", got)
	}
	if got := a.Clip(0, 3).Float(1); !almostEq(got, 3) {
		t.Fatalf("Clip = %v", got)
	}
	if got := NewFloatSeries("x", []float64{math.E - 1}).Log1p().Float(0); !almostEq(got, 1) {
		t.Fatalf("Log1p = %v", got)
	}
	if got := NewFloatSeries("x", []float64{2.5}).Round().Float(0); !almostEq(got, 3) {
		t.Fatalf("Round = %v", got)
	}
}

func TestGather(t *testing.T) {
	s := NewFloatSeries("x", []float64{10, math.NaN(), 30})
	g := s.Gather([]int{2, 1})
	if !almostEq(g.Float(0), 30) || g.IsValid(1) {
		t.Fatalf("Gather wrong: %v valid=%v", g.Float(0), g.IsValid(1))
	}
}

func TestUnique(t *testing.T) {
	s := NewStringSeries("c", []string{"b", "a", "b"})
	u := s.Unique()
	if len(u) != 2 || u[0] != "a" || u[1] != "b" {
		t.Fatalf("Unique = %v", u)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{Float: "float", Int: "int", String: "string", Bool: "bool"} {
		if k.String() != want {
			t.Fatalf("Kind(%d).String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

// Property: FillNAFloat never leaves nulls and never changes valid values.
func TestFillNAProperty(t *testing.T) {
	f := func(vals []float64, fill float64) bool {
		if math.IsNaN(fill) {
			fill = 0
		}
		s := NewFloatSeries("x", vals)
		filled := s.FillNAFloat(fill)
		if filled.NullCount() != 0 {
			return false
		}
		for i := 0; i < s.Len(); i++ {
			if s.IsValid(i) && filled.Float(i) != s.Float(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: mask combinators obey De Morgan's law.
func TestMaskDeMorganProperty(t *testing.T) {
	f := func(a, b []bool) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		x, y := Mask(a[:n]), Mask(b[:n])
		lhs := x.And(y).Not()
		rhs := x.Not().Or(y.Not())
		for i := 0; i < n; i++ {
			if lhs[i] != rhs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
