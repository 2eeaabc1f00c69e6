package e2e

import (
	"math"
	"strings"
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(n - i) // descending, so the sort is exercised
	}
	return out
}

func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		p       float64
		n       int
		want    float64
		refused bool
	}{
		{p: 99, n: 999, refused: true},
		{p: 99, n: 1000, want: 990},
		{p: 90, n: 99, refused: true},
		{p: 90, n: 100, want: 90},
		{p: 90, n: 150, want: 135},
		{p: 50, n: 19, refused: true},
		{p: 50, n: 20, want: 10},
		{p: 50, n: 21, want: 11},
	} {
		got, err := Percentile(seq(tc.n), tc.p)
		if tc.refused {
			if err == nil || !strings.Contains(err.Error(), "samples beyond") {
				t.Errorf("p%g of %d samples: got %v, %v; want a refusal", tc.p, tc.n, got, err)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("p%g of %d samples = %v, %v; want %v", tc.p, tc.n, got, err, tc.want)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false}, {20, 50, true}, {199, 90, true}, {200, 95, true},
		{999, 95, true}, {1000, 99, true}, {10000, 99.9, true},
	} {
		got, ok := TailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("TailPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
		if ok {
			if _, err := Percentile(seq(tc.n), got); err != nil {
				t.Errorf("TailPercentile(%d) = p%v, which Percentile refuses: %v", tc.n, got, err)
			}
		}
	}
}

// The expected values come from Python's statistics.quantiles(xs, n=4)
// and statistics.median(xs), which the benchmark's spread is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
		median     float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25, 1.5},
		{[]float64{3, 1, 2}, 1, 2, 3, 2},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75, 2.5},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 27.5, 55, 82.5, 55},
		{[]float64{5.5, 1, 9, 2.25, 7, 3}, 1.9375, 4.25, 7.5, 4.25},
	} {
		q1, q2, q3 := Quartiles(tc.xs)
		if !near(q1, tc.q1) || !near(q2, tc.q2) || !near(q3, tc.q3) {
			t.Errorf("Quartiles(%v) = %v, %v, %v; want %v, %v, %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
		if m := Median(tc.xs); !near(m, tc.median) {
			t.Errorf("Median(%v) = %v, want %v", tc.xs, m, tc.median)
		}
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestLittleWaitMS(t *testing.T) {
	// Two jobs waiting on average, fifty jobs a second: each waits 40 ms.
	if got := LittleWaitMS(2, 50); !near(got, 40) {
		t.Errorf("LittleWaitMS(2, 50) = %v, want 40", got)
	}
	if got := LittleWaitMS(0.5, 15); !near(got, 1000.0/30) {
		t.Errorf("LittleWaitMS(0.5, 15) = %v, want %v", got, 1000.0/30)
	}
	if got := LittleWaitMS(3, 0); got != 0 {
		t.Errorf("LittleWaitMS with no throughput = %v, want 0", got)
	}
}
