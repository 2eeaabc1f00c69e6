package interp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"lucidscript/internal/frame"
	"lucidscript/internal/script"
)

// insertionSortPositions is the reference for sortPositions: a stable
// insertion sort whose less puts nulls and NaN last in either direction.
func insertionSortPositions(s *frame.Series, asc bool) []int {
	pos := make([]int, s.Len())
	for i := range pos {
		pos[i] = i
	}
	numeric := s.IsNumeric() || s.Kind() == frame.Bool
	absent := func(i int) bool {
		return !s.IsValid(i) || (numeric && math.IsNaN(s.Float(i)))
	}
	less := func(a, b int) bool {
		if absent(a) || absent(b) {
			return !absent(a) && absent(b)
		}
		if numeric {
			if asc {
				return s.Float(a) < s.Float(b)
			}
			return s.Float(b) < s.Float(a)
		}
		if asc {
			return s.StringAt(a) < s.StringAt(b)
		}
		return s.StringAt(b) < s.StringAt(a)
	}
	for i := 1; i < len(pos); i++ {
		for j := i; j > 0 && less(pos[j], pos[j-1]); j-- {
			pos[j], pos[j-1] = pos[j-1], pos[j]
		}
	}
	return pos
}

// sortColumns builds one column of each kind with n rows, few distinct
// values (heavy ties) and, where the kind has them, nulls and NaN. A Float
// column stores NaN as a null, so its NaN rows are nulls.
func sortColumns(n int, seed int64) []*frame.Series {
	rng := rand.New(rand.NewSource(seed))
	fs := make([]float64, n)
	is := make([]int64, n)
	ss := make([]string, n)
	bs := make([]bool, n)
	for i := 0; i < n; i++ {
		fs[i] = float64(rng.Intn(40)) / 4
		switch rng.Intn(10) {
		case 0:
			fs[i] = math.NaN()
		case 1:
			fs[i] = math.Inf(1 - 2*rng.Intn(2))
		}
		is[i] = int64(rng.Intn(25) - 12)
		ss[i] = fmt.Sprintf("v%02d", rng.Intn(30))
		bs[i] = rng.Intn(2) == 0
	}
	f := frame.NewFloatSeries("f", fs)
	ints := frame.NewIntSeries("i", is)
	strs := frame.NewStringSeries("s", ss)
	bools := frame.NewBoolSeries("b", bs)
	for i := 0; i < n; i++ {
		if rng.Intn(12) == 0 {
			ints.SetNull(i)
		}
		if rng.Intn(12) == 0 {
			strs.SetNull(i)
		}
		if rng.Intn(12) == 0 {
			bools.SetNull(i)
		}
	}
	return []*frame.Series{f, ints, strs, bools}
}

func TestSortPositionsMatchesInsertionSort(t *testing.T) {
	n := 5000
	if testing.Short() {
		n = 600
	}
	for _, s := range sortColumns(n, 3) {
		for _, asc := range []bool{true, false} {
			got, want := sortPositions(s, asc), insertionSortPositions(s, asc)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("column %s (%s), ascending=%v: row %d is %d, want %d",
						s.Name(), s.Kind(), asc, i, got[i], want[i])
				}
			}
		}
	}
}

func TestQcutMatchesInsertionSort(t *testing.T) {
	n := 5000
	if testing.Short() {
		n = 600
	}
	for _, s := range sortColumns(n, 4)[:2] {
		var ps []rankPair
		for i := 0; i < s.Len(); i++ {
			if v := s.Float(i); !math.IsNaN(v) {
				ps = append(ps, rankPair{i, v})
			}
		}
		for i := 1; i < len(ps); i++ {
			for j := i; j > 0 && ps[j].v < ps[j-1].v; j-- {
				ps[j], ps[j-1] = ps[j-1], ps[j]
			}
		}
		const bins = 4
		per := (len(ps) + bins - 1) / bins
		want := make([]string, s.Len())
		for rank, p := range ps {
			want[p.pos] = fmt.Sprintf("q%d", min(rank/per, bins-1))
		}
		got := binEqualFreq(s, bins)
		for i := range want {
			if got.StringAt(i) != want[i] {
				t.Fatalf("column %s row %d: bin %q, want %q", s.Name(), i, got.StringAt(i), want[i])
			}
		}
	}
}

// BenchmarkSortValues runs sort_values over a 16k-row frame with a float
// and a string key column, each with ties and nulls.
func BenchmarkSortValues(b *testing.B) {
	f := frame.New()
	for _, s := range sortColumns(16000, 5)[:3] {
		if err := f.AddColumn(s); err != nil {
			b.Fatal(err)
		}
	}
	sources := map[string]*frame.Frame{"d.csv": f}
	for _, col := range []string{"f", "s"} {
		s := script.MustParse(fmt.Sprintf("import pandas as pd\ndf = pd.read_csv(\"d.csv\")\ndf = df.sort_values(%q)\n", col))
		b.Run(col, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(s, sources, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
