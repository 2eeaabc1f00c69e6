package frame

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// benchFrame builds an n-row mixed-type frame for operator benchmarks.
func benchFrame(b *testing.B, n int) *Frame {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	var sb strings.Builder
	sb.WriteString("num,cat,flag,price\n")
	cats := []string{"alpha", "beta", "gamma", "delta"}
	for i := 0; i < n; i++ {
		numCell := strconv.FormatFloat(rng.NormFloat64()*10, 'f', 3, 64)
		if rng.Float64() < 0.05 {
			numCell = "" // nulls for fillna paths
		}
		sb.WriteString(numCell)
		sb.WriteByte(',')
		sb.WriteString(cats[rng.Intn(len(cats))])
		sb.WriteByte(',')
		sb.WriteString(strconv.Itoa(rng.Intn(2)))
		sb.WriteByte(',')
		sb.WriteString(strconv.FormatFloat(rng.Float64()*100, 'f', 2, 64))
		sb.WriteByte('\n')
	}
	f, err := ReadCSVString(sb.String())
	if err != nil {
		b.Fatal(err)
	}
	return f
}

func BenchmarkFillNAMean(b *testing.B) {
	f := benchFrame(b, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.FillNA(FillMean)
	}
}

func BenchmarkFilterMask(b *testing.B) {
	f := benchFrame(b, 10000)
	col, _ := f.Column("price")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := col.Compare(Gt, 50.0)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := f.Filter(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGetDummies(b *testing.B) {
	f := benchFrame(b, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.GetDummies()
	}
}

func BenchmarkGroupByMean(b *testing.B) {
	f := benchFrame(b, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.GroupBy("cat", "price", AggMean); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMergeInner(b *testing.B) {
	left := benchFrame(b, 10000)
	key := NewEmptySeries("k", Int, left.NumRows())
	for i := 0; i < key.Len(); i++ {
		key.SetInt(i, int64(i%500))
	}
	_ = left.AddColumn(key)
	rightKeys := make([]int64, 500)
	names := make([]string, 500)
	for i := range rightKeys {
		rightKeys[i] = int64(i)
		names[i] = "name" + strconv.Itoa(i)
	}
	right, err := FromSeries(NewIntSeries("k", rightKeys), NewStringSeries("name", names))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Merge(left, right, "k", InnerJoin); err != nil {
			b.Fatal(err)
		}
	}
}

var benchMask Mask

func BenchmarkDuplicated(b *testing.B) {
	f := benchFrame(b, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchMask = f.Duplicated()
	}
}

func BenchmarkGather(b *testing.B) {
	f := benchFrame(b, 10000)
	// Half contiguous runs, half scattered: exercises both the bulk-copy
	// fast path and the fallback in gatherSlice.
	rng := rand.New(rand.NewSource(11))
	idx := make([]int, 0, f.NumRows())
	for i := 0; i < f.NumRows(); {
		if rng.Intn(2) == 0 {
			run := 1 + rng.Intn(64)
			for j := 0; j < run && i < f.NumRows(); j++ {
				idx = append(idx, i)
				i++
			}
		} else {
			idx = append(idx, rng.Intn(f.NumRows()))
			i++
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Take(idx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFilterChain(b *testing.B) {
	// The chained-combinator shape interp produces for
	// df[(a > x) & (b < y) | ~(c > z)], exercising the in-place mask ops.
	f := benchFrame(b, 10000)
	price, _ := f.Column("price")
	num, _ := f.Column("num")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m1, _ := price.Compare(Gt, 25.0)
		m2, _ := num.Compare(Lt, 5.0)
		m3, _ := price.Compare(Gt, 90.0)
		m := m1.AndInPlace(m2).OrInPlace(m3.NotInPlace())
		if _, err := f.Filter(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWithColumn(b *testing.B) {
	f := benchFrame(b, 10000)
	col := NewEmptySeries("derived", Float, f.NumRows())
	for i := 0; i < col.Len(); i++ {
		col.SetFloat(i, float64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.WithColumn(col); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteCSV(b *testing.B) {
	f := benchFrame(b, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sb strings.Builder
		if err := f.WriteCSV(&sb); err != nil {
			b.Fatal(err)
		}
	}
}
