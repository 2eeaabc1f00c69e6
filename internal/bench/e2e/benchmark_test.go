package e2e

import (
	"reflect"
	"sort"
	"testing"
)

// benchmarkPath is the repository's BENCHMARK.json, seen from this
// package's directory.
const benchmarkPath = "../../../BENCHMARK.json"

// TestBenchmarkJSONMatchesHarness fails when BENCHMARK.json and the
// harness disagree: a workload or metric listed there that the harness
// does not produce, or one the harness produces that is not listed.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	bench, err := LoadBenchmark(benchmarkPath)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"cmd/lsperf", "internal/bench/e2e"}; !reflect.DeepEqual(bench.Paths, want) {
		t.Errorf("BENCHMARK.json paths %v, want %v", bench.Paths, want)
	}
	if bench.RunSeconds < 1 || len(bench.Command) == 0 {
		t.Errorf("BENCHMARK.json needs a command and run_seconds, got %v and %d", bench.Command, bench.RunSeconds)
	}
	var workloads []string
	for _, w := range bench.Workloads {
		workloads = append(workloads, w.Name)
		if w.Why == "" {
			t.Errorf("workload %s has no reason", w.Name)
		}
	}
	if !reflect.DeepEqual(workloads, Workloads) {
		t.Errorf("BENCHMARK.json workloads %v, harness %v", workloads, Workloads)
	}
	var e2e []Metric
	for _, m := range bench.EndToEnd {
		e2e = append(e2e, m.Metric)
	}
	if !reflect.DeepEqual(e2e, EndToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, harness %v", e2e, EndToEnd)
	}
	if !reflect.DeepEqual(bench.PerLayer, Layers) {
		t.Errorf("BENCHMARK.json per_layer %v, harness %v", bench.PerLayer, Layers)
	}
	var detailKeys []string
	for w := range Details {
		detailKeys = append(detailKeys, w)
	}
	sort.Strings(detailKeys)
	sorted := append([]string(nil), Workloads...)
	sort.Strings(sorted)
	if !reflect.DeepEqual(detailKeys, sorted) {
		t.Errorf("detail metrics are listed for %v, want every workload %v", detailKeys, sorted)
	}

	// The regression bounds: each at most a quarter, set-up time's the
	// largest, since work moved into set-up must show.
	var setup float64
	for _, m := range bench.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Bound
		}
	}
	for _, m := range bench.EndToEnd {
		if m.Bound > setup {
			t.Errorf("%s: bound %v exceeds setup_s's %v", m.Name, m.Bound, setup)
		}
	}
}
