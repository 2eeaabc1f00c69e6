package e2e

import "testing"

// runFiles makes one result file per value, each holding a serve-small
// result with the named metric.
func runFiles(metric string, values ...float64) []*RunFile {
	var out []*RunFile
	for _, v := range values {
		out = append(out, &RunFile{Results: []*Result{{
			Workload: "serve-small", Correct: true, Attempted: 100,
			Metrics: map[string]Value{metric: {Value: v, Unit: "ms"}},
		}}})
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	bench := &Benchmark{EndToEnd: []BoundedMetric{{Metric: Metric{"latency_p50_ms", "ms", "lower"}, Bound: 0.1}}}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, tc := range []struct {
		name string
		a, b []float64
		want string
	}{
		{"same", steady, []float64{101, 100, 100, 99, 101, 99, 100, 102, 98, 100}, "same"},
		{"worse beyond the bound", steady, []float64{115, 116, 114, 115, 117, 113, 115, 116, 114, 115}, "worse"},
		{"worse within the bound", steady, []float64{105, 106, 104, 105, 107, 103, 105, 106, 104, 105}, "same"},
		{"better", steady, []float64{90, 91, 89, 90, 92, 88, 90, 91, 89, 90}, "better"},
		// A's quartiles span far more than the 10% bound: no verdict.
		{"unresolved", []float64{70, 130, 80, 120, 90, 110, 100, 75, 125, 100}, []float64{101, 100, 100, 99, 101, 99, 100, 102, 98, 100}, "unresolved"},
		// ... unless every B run beats every A run; a gain of 40 is still
		// inside A's spread of 42.5, so it is no claim either.
		{"noisy but all better", []float64{70, 130, 80, 120, 90, 110, 100, 75, 125, 100}, []float64{60, 61, 59, 60, 62, 58, 60, 61, 59, 69}, "same"},
	} {
		rows, err := Compare(runFiles("latency_p50_ms", tc.a...), runFiles("latency_p50_ms", tc.b...), bench)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(rows) != 1 {
			t.Fatalf("%s: %d rows, want 1", tc.name, len(rows))
		}
		if rows[0].Verdict != tc.want {
			t.Errorf("%s: verdict %s (change %+.3f, B wins %.0f%%), want %s",
				tc.name, rows[0].Verdict, rows[0].Change, 100*rows[0].Wins, tc.want)
		}
	}
}

func TestCompareUnboundedMetric(t *testing.T) {
	bench := &Benchmark{}
	a := []float64{10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10}
	rows, err := Compare(runFiles("core.search_ms_p50", a...), runFiles("core.search_ms_p50", 12, 12.1, 11.9, 12, 12.2, 11.8, 12, 12.1, 11.9, 12), bench)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Verdict != "worse" || rows[0].Bound != 0 {
		t.Fatalf("got %+v, want one unbounded row judged worse", rows)
	}
}

// A run that lost jobs, failed its check or broke a validity rule could
// read faster than a sound one; Compare must refuse it on either side.
func TestCompareRefusesRunsThatDoNotCount(t *testing.T) {
	bench := &Benchmark{EndToEnd: []BoundedMetric{{Metric: Metric{"jobs_per_s", "1/s", "higher"}, Bound: 0.1}}}
	for name, spoil := range map[string]func(*Result){
		"failed jobs": func(r *Result) { r.Failed = 3 },
		"incorrect":   func(r *Result) { r.Correct = false },
		"invalid":     func(r *Result) { r.Invalid = "the generator ran late" },
	} {
		for _, side := range []string{"a", "b"} {
			a, b := runFiles("jobs_per_s", 10, 10, 10), runFiles("jobs_per_s", 20, 20, 20)
			spoiled := a
			if side == "b" {
				spoiled = b
			}
			spoil(spoiled[1].Results[0])
			if rows, err := Compare(a, b, bench); err == nil {
				t.Errorf("%s on side %s: compared %d rows, want an error", name, side, len(rows))
			}
		}
	}
}

func TestTraceOverhead(t *testing.T) {
	untraced := runFiles("latency_p50_ms", 100, 110, 90)
	for _, f := range untraced {
		r := f.Results[0]
		r.Detail, r.Metrics = r.Metrics, nil
	}
	traced := runFiles("latency_p50_ms", 104, 116, 94)
	for _, f := range traced {
		f.Results[0].Trace = true
	}
	got := TraceOverhead(untraced, traced)
	if len(got) != 1 || got["serve-small"] < 3.999 || got["serve-small"] > 4.001 {
		t.Errorf("overhead %v, want serve-small 4%%", got)
	}
	// Traced runs on side a, or untraced ones on side b, give no overhead.
	if got := TraceOverhead(traced, untraced); len(got) != 0 {
		t.Errorf("sides swapped: overhead %v, want none", got)
	}
	if got := TraceOverhead(untraced, untraced); len(got) != 0 {
		t.Errorf("both untraced: overhead %v, want none", got)
	}
}
