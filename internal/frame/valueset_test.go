package frame_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"testing/quick"

	"lucidscript/internal/frame"
	"lucidscript/internal/gen"
	"lucidscript/internal/interp"
)

// referenceValueSet is the value set Δ_J is defined on, built the direct
// way: every cell rendered through StringAt, nulls as "<null>".
// Frame.ValueSet must stand for exactly this set.
func referenceValueSet(f *frame.Frame) map[string]struct{} {
	set := map[string]struct{}{}
	for j := 0; j < f.NumCols(); j++ {
		col := f.ColumnAt(j)
		for i := 0; i < col.Len(); i++ {
			if col.IsValid(i) {
				set[col.StringAt(i)] = struct{}{}
			} else {
				set["<null>"] = struct{}{}
			}
		}
	}
	return set
}

func referenceJaccard(a, b *frame.Frame) float64 {
	sa, sb := referenceValueSet(a), referenceValueSet(b)
	inter, union := 0, len(sb)
	for v := range sa {
		if _, ok := sb[v]; ok {
			inter++
		} else {
			union++
		}
	}
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// checkValueSet fails unless f's typed set stands for the reference set:
// the same renderings, and no two keys for one rendering.
func checkValueSet(t *testing.T, name string, f *frame.Frame) {
	t.Helper()
	vs, want := f.ValueSet(), referenceValueSet(f)
	if got := vs.Renderings(); !reflect.DeepEqual(got, want) {
		t.Errorf("%s: value set %q, want %q", name, got, want)
	}
	if vs.Len() != len(want) {
		t.Errorf("%s: %d values, want %d", name, vs.Len(), len(want))
	}
}

func nullAt(s *frame.Series, i int) *frame.Series {
	s.SetNull(i)
	return s
}

// valueSetEdgeFrames covers the cells typed keys could get wrong.
func valueSetEdgeFrames(t *testing.T) map[string]*frame.Frame {
	t.Helper()
	mk := func(cols ...*frame.Series) *frame.Frame {
		f, err := frame.FromSeries(cols...)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	negZero := math.Copysign(0, -1)
	return map[string]*frame.Frame{
		"nan and inf": mk(frame.NewFloatSeries("f", []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Inf(1), 1.5}),
			frame.NewStringSeries("s", []string{"NaN", "+Inf", "Inf", "inf", "-Inf"})),
		"valid nan payloads": mk(frame.FloatBitsSeries("f", 0x7ff8000000000001, 0x7ff8000000000002, 0xfff8000000000000)),
		"signed zero": mk(frame.NewFloatSeries("f", []float64{negZero, 0, negZero}),
			frame.NewIntSeries("i", []int64{0, 0, 0}), frame.NewStringSeries("s", []string{"-0", "0", "0.0"})),
		"three kinds of 3": mk(frame.NewIntSeries("i", []int64{3, 3, 4}), frame.NewFloatSeries("f", []float64{3.0, 3, 4.5}),
			frame.NewStringSeries("s", []string{"3", "3", "03"})),
		"int float boundary": mk(frame.NewIntSeries("i", []int64{999999, -999999, 1000000, -1000000, math.MaxInt64, math.MinInt64}),
			frame.NewFloatSeries("f", []float64{999999, -999999, 1e6, -1e6, 1e21, 1e-5}),
			frame.NewStringSeries("s", []string{"1000000", "1e+06", "-1e+06", "9223372036854775807", "1e-05", "0.00001"})),
		"bool vs string": mk(frame.NewBoolSeries("b", []bool{true, true, false}),
			frame.NewStringSeries("s", []string{"true", "True", "false"})),
		"null per kind": mk(
			nullAt(frame.NewFloatSeries("f", []float64{1, 2, 3}), 0),
			nullAt(frame.NewIntSeries("i", []int64{1, 2, 3}), 1),
			nullAt(frame.NewStringSeries("s", []string{"a", "", "b"}), 0),
			nullAt(frame.NewBoolSeries("b", []bool{true, false, true}), 2)),
		"null token string": mk(frame.NewStringSeries("s", []string{"<null>", "x"})),
		"all null":          mk(frame.NewEmptySeries("f", frame.Float, 2), frame.NewEmptySeries("b", frame.Bool, 2)),
		"empty frame":       frame.New(),
		"no rows":           mk(frame.NewIntSeries("i", nil), frame.NewStringSeries("s", nil)),
	}
}

// addGenFrames adds the sources and pipeline outputs of gen seeds 1-6.
func addGenFrames(t *testing.T, frames map[string]*frame.Frame) {
	t.Helper()
	for seed := int64(1); seed <= 6; seed++ {
		g := gen.New(seed)
		sources := g.Sources(150)
		frames[fmt.Sprintf("gen seed %d source", seed)] = sources[gen.SourceFile]
		for i, sc := range g.Scripts(4) {
			res, err := interp.Run(sc, sources, interp.Options{Seed: seed})
			if err != nil {
				t.Fatalf("gen seed %d script %d: %v", seed, i, err)
			}
			frames[fmt.Sprintf("gen seed %d output %d", seed, i)] = res.Main
		}
	}
}

// TestValueSetMatchesStringAtReference pins the typed value set to the
// StringAt definition on edge cells and on generated pipeline outputs, and
// its Jaccard to the reference Jaccard over every pair of them.
func TestValueSetMatchesStringAtReference(t *testing.T) {
	frames := valueSetEdgeFrames(t)
	addGenFrames(t, frames)
	for name, f := range frames {
		checkValueSet(t, name, f)
	}
	for an, a := range frames {
		for bn, b := range frames {
			if got, want := a.ValueSet().Jaccard(b.ValueSet()), referenceJaccard(a, b); got != want {
				t.Errorf("Jaccard(%s, %s) = %v, want %v", an, bn, got, want)
			}
		}
	}
}

// TestValueSetRandomCellsProperty draws frames of every kind whose string
// cells are often the rendering of a drawn number or bool, so cross-kind
// collisions are frequent.
func TestValueSetRandomCellsProperty(t *testing.T) {
	draw := func(seed int64) *frame.Frame {
		rng := rand.New(rand.NewSource(seed))
		num := func() float64 {
			switch rng.Intn(5) {
			case 0:
				return float64(rng.Intn(21) - 10)
			case 1:
				return math.Copysign(0, -1)
			case 2:
				return math.Pow(10, float64(rng.Intn(12)-3)) * float64(rng.Intn(3)-1)
			case 3:
				return []float64{math.Inf(1), math.Inf(-1), math.NaN()}[rng.Intn(3)]
			}
			return rng.NormFloat64() * 1e6
		}
		n := rng.Intn(12)
		fs, is, ss, bs := make([]float64, n), make([]int64, n), make([]string, n), make([]bool, n)
		for i := 0; i < n; i++ {
			fs[i] = num()
			is[i] = int64(num())
			if rng.Intn(4) == 0 {
				is[i] = rng.Int63() - rng.Int63()
			}
			bs[i] = rng.Intn(2) == 0
			switch rng.Intn(4) {
			case 0:
				ss[i] = strconv.FormatFloat(num(), 'g', -1, 64)
			case 1:
				ss[i] = strconv.FormatInt(is[i], 10)
			case 2:
				ss[i] = strconv.FormatBool(rng.Intn(2) == 0)
			default:
				ss[i] = []string{"", "<null>", "x", "1.50", "+1", "-", "NaN", "nan"}[rng.Intn(8)]
			}
		}
		cols := []*frame.Series{frame.NewFloatSeries("f", fs), frame.NewIntSeries("i", is),
			frame.NewStringSeries("s", ss), frame.NewBoolSeries("b", bs)}
		for _, c := range cols {
			if n > 0 && rng.Intn(3) == 0 {
				c.SetNull(rng.Intn(n))
			}
		}
		f, err := frame.FromSeries(cols...)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	prop := func(a, b int64) bool {
		fa, fb := draw(a), draw(b)
		checkValueSet(t, fmt.Sprintf("seed %d", a), fa)
		return fa.ValueSet().Jaccard(fb.ValueSet()) == referenceJaccard(fa, fb)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
