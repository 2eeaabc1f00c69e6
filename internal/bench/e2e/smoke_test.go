package e2e

import (
	"context"
	"sort"
	"testing"
	"time"
)

// TestWorkloadsSmoke builds the servers and runs every workload briefly,
// untraced and traced: the correctness check must pass, no job may fail,
// and the result must carry exactly the metrics BENCHMARK.json lists.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds lsserved and lsrouter and runs every workload")
	}
	bench, err := LoadBenchmark(benchmarkPath)
	if err != nil {
		t.Fatal(err)
	}
	root, err := FindRepoRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	bin := t.TempDir()
	if err := BuildServers(ctx, root, bin); err != nil {
		t.Fatal(err)
	}
	var e2eNames, layerNames []string
	for _, m := range bench.EndToEnd {
		e2eNames = append(e2eNames, m.Name)
	}
	for _, m := range bench.PerLayer {
		layerNames = append(layerNames, m.Name)
	}
	for _, w := range bench.Workloads {
		for _, trace := range []bool{false, true} {
			res, err := Run(ctx, Config{
				Workload: w.Name, Seed: 1, Seconds: MinSeconds, Trace: trace,
				BinDir: bin, WorkDir: t.TempDir(),
			})
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.Name, trace, err)
			}
			if !res.Correct || res.Invalid != "" || res.Failed != 0 {
				t.Errorf("%s (trace %v): correct %v, %d of %d failed, invalid %q",
					w.Name, trace, res.Correct, res.Failed, res.Attempted, res.Invalid)
			}
			want, details := e2eNames, Latencies
			if trace {
				want, details = layerNames, Details[w.Name]
			}
			var detail []string
			for _, m := range details {
				detail = append(detail, m.Name)
			}
			sameNames(t, w.Name+" detail", res.Detail, detail)
			sameNames(t, w.Name, res.Metrics, want)
		}
	}
}

func sameNames(t *testing.T, what string, got map[string]Value, want []string) {
	t.Helper()
	var names []string
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	want = append([]string(nil), want...)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Errorf("%s: metrics %v, want %v", what, names, want)
		return
	}
	for i := range names {
		if names[i] != want[i] {
			t.Errorf("%s: metrics %v, want %v", what, names, want)
			return
		}
	}
}
