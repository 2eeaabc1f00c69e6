package frame

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func sampleFrame(t *testing.T) *Frame {
	t.Helper()
	f, err := ReadCSVString(`Age,Sex,Fare,Survived
22,male,7.25,0
38,female,71.28,1
,female,8.05,1
35,male,,0
`)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestReadCSVInference(t *testing.T) {
	f := sampleFrame(t)
	if f.NumRows() != 4 || f.NumCols() != 4 {
		t.Fatalf("shape = %dx%d", f.NumRows(), f.NumCols())
	}
	age, _ := f.Column("Age")
	if age.Kind() != Float {
		t.Fatalf("Age kind = %v, want Float (has nulls)", age.Kind())
	}
	if age.NullCount() != 1 {
		t.Fatalf("Age nulls = %d", age.NullCount())
	}
	sex, _ := f.Column("Sex")
	if sex.Kind() != String {
		t.Fatalf("Sex kind = %v", sex.Kind())
	}
	surv, _ := f.Column("Survived")
	if surv.Kind() != Int {
		t.Fatalf("Survived kind = %v, want Int (no nulls)", surv.Kind())
	}
}

func TestReadCSVBoolAndEmpty(t *testing.T) {
	f, err := ReadCSVString("flag,empty\ntrue,\nfalse,\n")
	if err != nil {
		t.Fatal(err)
	}
	fl, _ := f.Column("flag")
	if fl.Kind() != Bool || !fl.BoolAt(0) || fl.BoolAt(1) {
		t.Fatalf("bool column wrong: kind=%v", fl.Kind())
	}
	e, _ := f.Column("empty")
	if e.NullCount() != 2 {
		t.Fatal("all-empty column should be all null")
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSVString(""); err == nil {
		t.Fatal("empty csv should error")
	}
	if _, err := ReadCSVString("a,b\n1"); err == nil {
		t.Fatal("ragged csv should error")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	f := sampleFrame(t)
	out := f.CSVString()
	g, err := ReadCSVString(out)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumRows() != f.NumRows() || g.NumCols() != f.NumCols() {
		t.Fatalf("round trip shape mismatch: %dx%d", g.NumRows(), g.NumCols())
	}
	fk, gk := f.RowKeys(), g.RowKeys()
	for i := range fk {
		if fk[i] != gk[i] {
			t.Fatalf("row %d differs:\n%q\n%q", i, fk[i], gk[i])
		}
	}
}

func TestAddColumnErrors(t *testing.T) {
	f := sampleFrame(t)
	if err := f.AddColumn(NewIntSeries("Age", []int64{1, 2, 3, 4})); err == nil {
		t.Fatal("duplicate column should error")
	}
	if err := f.AddColumn(NewIntSeries("Short", []int64{1})); err == nil {
		t.Fatal("length mismatch should error")
	}
}

func TestSetColumnReplaces(t *testing.T) {
	f := sampleFrame(t)
	if err := f.SetColumn(NewIntSeries("Age", []int64{1, 2, 3, 4})); err != nil {
		t.Fatal(err)
	}
	age, _ := f.Column("Age")
	if age.Kind() != Int {
		t.Fatal("SetColumn did not replace")
	}
	if f.NumCols() != 4 {
		t.Fatal("SetColumn should not add a new column")
	}
}

func TestDropSelectRename(t *testing.T) {
	f := sampleFrame(t)
	d, err := f.Drop("Sex", "Fare")
	if err != nil {
		t.Fatal(err)
	}
	if d.NumCols() != 2 || d.HasColumn("Sex") {
		t.Fatalf("Drop left %v", d.ColumnNames())
	}
	if _, err := f.Drop("Nope"); err == nil {
		t.Fatal("dropping missing column should error")
	}
	s, err := f.Select("Fare", "Age")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.ColumnNames(); got[0] != "Fare" || got[1] != "Age" {
		t.Fatalf("Select order = %v", got)
	}
	r, err := f.RenameColumn("Sex", "Gender")
	if err != nil {
		t.Fatal(err)
	}
	if !r.HasColumn("Gender") || r.HasColumn("Sex") {
		t.Fatal("rename failed")
	}
	if _, err := f.RenameColumn("Nope", "X"); err == nil {
		t.Fatal("renaming missing column should error")
	}
}

func TestFilter(t *testing.T) {
	f := sampleFrame(t)
	age, _ := f.Column("Age")
	m, _ := age.Compare(Gt, 30.0)
	g, err := f.Filter(m)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumRows() != 2 {
		t.Fatalf("filtered rows = %d, want 2", g.NumRows())
	}
	if _, err := f.Filter(Mask{true}); err == nil {
		t.Fatal("mask length mismatch should error")
	}
}

func TestHeadAndSample(t *testing.T) {
	f := sampleFrame(t)
	if f.Head(2).NumRows() != 2 {
		t.Fatal("Head(2)")
	}
	if f.Head(100).NumRows() != 4 {
		t.Fatal("Head over-length should clamp")
	}
	s1 := f.Sample(2, 42)
	s2 := f.Sample(2, 42)
	if s1.NumRows() != 2 {
		t.Fatal("Sample size")
	}
	if s1.Digest() != s2.Digest() {
		t.Fatal("Sample with same seed should be deterministic")
	}
}

func TestFillNAFrame(t *testing.T) {
	f := sampleFrame(t)
	mean := f.FillNA(FillMean)
	age, _ := mean.Column("Age")
	if age.NullCount() != 0 {
		t.Fatal("FillMean left nulls in Age")
	}
	if !almostEq(age.Float(2), (22.0+38+35)/3) {
		t.Fatalf("mean fill = %v", age.Float(2))
	}
	med := f.FillNA(FillMedian)
	fare, _ := med.Column("Fare")
	if !almostEq(fare.Float(3), 8.05) {
		t.Fatalf("median fill = %v", fare.Float(3))
	}
	z := f.FillNA(FillZero)
	age2, _ := z.Column("Age")
	if !almostEq(age2.Float(2), 0) {
		t.Fatal("zero fill")
	}
}

func TestFillNAModeFillsStrings(t *testing.T) {
	f, _ := ReadCSVString("e,x\nS,1\nS,2\n,3\nC,4\n")
	g := f.FillNA(FillMode)
	e, _ := g.Column("e")
	if e.NullCount() != 0 || e.StringAt(2) != "S" {
		t.Fatalf("mode fill = %q nulls=%d", e.StringAt(2), e.NullCount())
	}
	// Mean fill must NOT touch string columns.
	h := f.FillNA(FillMean)
	e2, _ := h.Column("e")
	if e2.NullCount() != 1 {
		t.Fatal("mean fill should leave string nulls")
	}
}

func TestGetDummies(t *testing.T) {
	f := sampleFrame(t)
	g := f.GetDummies()
	if g.HasColumn("Sex") {
		t.Fatal("source column should be removed")
	}
	if !g.HasColumn("Sex_male") || !g.HasColumn("Sex_female") {
		t.Fatalf("dummies missing: %v", g.ColumnNames())
	}
	male, _ := g.Column("Sex_male")
	if male.Float(0) != 1 || male.Float(1) != 0 {
		t.Fatal("dummy values wrong")
	}
	// Numeric columns untouched.
	if !g.HasColumn("Age") {
		t.Fatal("numeric column dropped")
	}
}

func TestGroupBy(t *testing.T) {
	f := sampleFrame(t)
	g, err := f.GroupBy("Sex", "Fare", AggMean)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumRows() != 2 {
		t.Fatalf("groups = %d", g.NumRows())
	}
	sex, _ := g.Column("Sex")
	fare, _ := g.Column("Fare")
	for i := 0; i < 2; i++ {
		if sex.StringAt(i) == "female" && !almostEq(fare.Float(i), (71.28+8.05)/2) {
			t.Fatalf("female mean fare = %v", fare.Float(i))
		}
	}
	cnt, _ := f.GroupBy("Sex", "Fare", AggCount)
	cf, _ := cnt.Column("Fare")
	if !almostEq(cf.Float(0)+cf.Float(1), 4) {
		t.Fatal("counts should total rows")
	}
	if _, err := f.GroupBy("Nope", "Fare", AggSum); err == nil {
		t.Fatal("missing key should error")
	}
}

func TestRowKeysOrderInsensitive(t *testing.T) {
	a, _ := ReadCSVString("x,y\n1,2\n")
	b, _ := ReadCSVString("y,x\n2,1\n")
	if a.RowKeys()[0] != b.RowKeys()[0] {
		t.Fatalf("RowKeys should be column-order insensitive:\n%q\n%q", a.RowKeys()[0], b.RowKeys()[0])
	}
}

// TestDuplicatedSeparatorCollision keeps two different rows whose
// tab-joined name=value renderings are one string.
func TestDuplicatedSeparatorCollision(t *testing.T) {
	f, err := FromSeries(NewStringSeries("a", []string{"1\tb=2", "1", "1"}),
		NewStringSeries("b", []string{"3", "2\tb=3", "2\tb=3"}))
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Duplicated(); !reflect.DeepEqual(got, Mask{false, false, true}) {
		t.Fatalf("Duplicated() = %v, want [false false true]", got)
	}
}

func TestNumericMatrix(t *testing.T) {
	f := sampleFrame(t)
	m, names := f.NumericMatrix("Survived")
	if len(m) != 4 {
		t.Fatalf("rows = %d", len(m))
	}
	for _, n := range names {
		if n == "Survived" || n == "Sex" {
			t.Fatalf("matrix should exclude %q", n)
		}
	}
	// Null Age becomes 0.
	if m[2][0] != 0 {
		t.Fatalf("null should map to 0, got %v", m[2][0])
	}
}

func TestCloneIndependence(t *testing.T) {
	// Clone shares column storage but is structurally independent: swapping
	// a column in the clone must not affect the original.
	f := sampleFrame(t)
	g := f.Clone()
	age, _ := g.Column("Age")
	orig, _ := f.Column("Age")
	if age != orig {
		t.Fatal("Clone should share column storage")
	}
	repl := age.Clone()
	repl.SetFloat(0, 99)
	if err := g.SetColumn(repl); err != nil {
		t.Fatal(err)
	}
	if almostEq(orig.Float(0), 99) {
		t.Fatal("replacing a column in a clone should not touch the original")
	}
	// DeepClone preserves the old cell-level independence.
	h := f.DeepClone()
	hAge, _ := h.Column("Age")
	hAge.SetFloat(0, 99)
	if almostEq(orig.Float(0), 99) {
		t.Fatal("DeepClone should deep-copy")
	}
}

func TestFrameString(t *testing.T) {
	f := sampleFrame(t)
	s := f.String()
	if !strings.Contains(s, "4 rows x 4 cols") || !strings.Contains(s, "NaN") {
		t.Fatalf("String() = %q", s)
	}
}

func TestColumnErrors(t *testing.T) {
	f := sampleFrame(t)
	if _, err := f.Column("Nope"); err == nil {
		t.Fatal("missing column should error")
	}
	if _, err := f.Select("Nope"); err == nil {
		t.Fatal("Select missing should error")
	}
}

func TestFromSeriesError(t *testing.T) {
	if _, err := FromSeries(NewIntSeries("a", []int64{1}), NewIntSeries("b", []int64{1, 2})); err == nil {
		t.Fatal("length mismatch should error")
	}
}

func TestFloatConversions(t *testing.T) {
	b := NewBoolSeries("b", []bool{true, false})
	if b.Float(0) != 1 || b.Float(1) != 0 {
		t.Fatal("bool Float conversion")
	}
	s := NewStringSeries("s", []string{"2.5", "x"})
	if !almostEq(s.Float(0), 2.5) || !math.IsNaN(s.Float(1)) {
		t.Fatal("string Float conversion")
	}
	if !b.BoolAt(0) || b.BoolAt(1) {
		t.Fatal("BoolAt")
	}
}

func TestDescribe(t *testing.T) {
	f := sampleFrame(t)
	d := f.Describe()
	if !d.HasColumn("stat") || !d.HasColumn("Age") || d.HasColumn("Sex") {
		t.Fatalf("describe columns = %v", d.ColumnNames())
	}
	if d.NumRows() != 6 {
		t.Fatalf("describe rows = %d", d.NumRows())
	}
	age, _ := d.Column("Age")
	if !almostEq(age.Float(0), 3) { // count of non-null Ages
		t.Fatalf("count = %v", age.Float(0))
	}
}
