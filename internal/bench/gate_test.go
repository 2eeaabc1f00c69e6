package bench

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func rec(exp, key string, metrics map[string]float64) Record {
	return Record{Experiment: exp, Key: key, Metrics: metrics, Identical: true}
}

func gateFixture() (report, baseline []Record) {
	report = []Record{
		rec("batch", "a", map[string]float64{"sequential_ms": 100, "batch_ms": 50}),
		rec("batch", "b", map[string]float64{"sequential_ms": 300, "batch_ms": 160}),
		rec("serve", "a", map[string]float64{"direct_ms": 80, "served_ms": 90}),
	}
	baseline = []Record{
		rec("batch", "a", map[string]float64{"sequential_ms": 100, "batch_ms": 50}),
		rec("batch", "b", map[string]float64{"sequential_ms": 100, "batch_ms": 100}),
		rec("serve", "a", map[string]float64{"direct_ms": 80, "served_ms": 85}),
	}
	return report, baseline
}

func findingFor(t *testing.T, fs []GateFinding, exp, key, metric string) GateFinding {
	t.Helper()
	for _, f := range fs {
		if f.Experiment == exp && f.Key == key && f.Metric == metric {
			return f
		}
	}
	t.Fatalf("no finding for %s/%s %s", exp, key, metric)
	return GateFinding{}
}

func TestGateLevels(t *testing.T) {
	report, baseline := gateFixture()
	fs := Gate(report, baseline, GateConfig{})

	// a: unchanged → ok.
	if f := findingFor(t, fs, "batch", "a", "batch_ms"); f.Level != GateOK {
		t.Fatalf("batch/a should be ok, got %+v", f)
	}
	// b sequential: 300 vs 100 = 3x → fail; b batch: 160 vs 100 = 1.6x → warn.
	if f := findingFor(t, fs, "batch", "b", "sequential_ms"); f.Level != GateFail {
		t.Fatalf("batch/b sequential should fail, got %+v", f)
	}
	if f := findingFor(t, fs, "batch", "b", "batch_ms"); f.Level != GateWarn {
		t.Fatalf("batch/b batch should warn, got %+v", f)
	}
	// serve a: 90 vs 85 → ok.
	if f := findingFor(t, fs, "serve", "a", "served_ms"); f.Level != GateOK {
		t.Fatalf("serve/a should be ok, got %+v", f)
	}

	fails, warns, line := GateSummary(fs)
	if fails != 1 || warns != 1 {
		t.Fatalf("summary fails=%d warns=%d", fails, warns)
	}
	if !strings.Contains(line, "REGRESSION") {
		t.Fatalf("summary line should flag regression: %q", line)
	}
	if tbl := GateTable(fs); len(tbl.Rows) != len(fs) {
		t.Fatalf("table rows = %d, want %d", len(tbl.Rows), len(fs))
	}
}

func TestGateNonIdenticalFails(t *testing.T) {
	report, baseline := gateFixture()
	report[0].Identical = false
	fs := Gate(report, baseline, GateConfig{})
	if f := findingFor(t, fs, "batch", "a", "identical"); f.Level != GateFail {
		t.Fatalf("non-identical output should fail, got %+v", f)
	}
}

func TestGateMissingBaselineWarns(t *testing.T) {
	report, baseline := gateFixture()
	report = append(report, rec("serve", "new", map[string]float64{"served_ms": 10}))
	fs := Gate(report, baseline, GateConfig{})
	f := findingFor(t, fs, "serve", "new", "served_ms")
	if f.Level != GateWarn || f.Note == "" {
		t.Fatalf("missing baseline should warn with a note, got %+v", f)
	}
}

func TestGateConfigThresholds(t *testing.T) {
	report, baseline := gateFixture()
	// With a sky-high fail ratio nothing fails.
	fs := Gate(report, baseline, GateConfig{WarnRatio: 10, FailRatio: 20})
	if fails, _, _ := GateSummary(fs); fails != 0 {
		t.Fatalf("generous thresholds should not fail, got %d", fails)
	}
}

func TestGateCurateContract(t *testing.T) {
	cur := Record{
		Experiment: "curate", Key: "gen-10k",
		Metrics:   map[string]float64{"cold_curate_ms": 1000, "warm_load_ms": 10, "full_load_ms": 200, "apply_ms": 20},
		Floors:    map[string]float64{"warm_speedup": WarmSpeedupFloor, "apply_speedup": ApplySpeedupFloor},
		Details:   map[string]float64{"scripts": 10000, "rebuild_ms": 1000, "warm_speedup": 100, "apply_speedup": 50},
		Identical: true,
	}
	base := []Record{rec("curate", "gen-10k",
		map[string]float64{"cold_curate_ms": 1000, "warm_load_ms": 10, "full_load_ms": 200, "apply_ms": 20})}

	fs := Gate([]Record{cur}, base, GateConfig{})
	if fails, _, _ := GateSummary(fs); fails != 0 {
		t.Fatalf("healthy curate record should pass, got %d fails: %+v", fails, fs)
	}
	if f := findingFor(t, fs, "curate", "gen-10k", "warm_load_ms"); f.Level != GateOK {
		t.Fatalf("warm_load_ms should be ok, got %+v", f)
	}

	// Collapsed speedups and a divergent apply fail regardless of wall clock.
	broken := cur
	broken.Details = map[string]float64{"warm_speedup": 2, "apply_speedup": 3}
	broken.Identical = false
	fs = Gate([]Record{broken}, base, GateConfig{})
	for _, metric := range []string{"warm_speedup", "apply_speedup", "identical"} {
		if f := findingFor(t, fs, "curate", "gen-10k", metric); f.Level != GateFail {
			t.Fatalf("%s should fail, got %+v", metric, f)
		}
	}

	// A corpus with no baseline record warns instead of comparing, and
	// its floors still gate.
	fs = Gate([]Record{broken}, nil, GateConfig{})
	if f := findingFor(t, fs, "curate", "gen-10k", "warm_load_ms"); f.Level != GateWarn || f.Note == "" {
		t.Fatalf("missing curate baseline should warn with a note, got %+v", f)
	}
	if f := findingFor(t, fs, "curate", "gen-10k", "apply_speedup"); f.Level != GateFail {
		t.Fatalf("floor should gate without a baseline, got %+v", f)
	}
}

// TestGateNewMetricIsData shows that gating a new number needs no gate
// code: a metric name the gate has never seen is ratio-gated once it is in
// Metrics, and a floor is enforced once it is in Floors.
func TestGateNewMetricIsData(t *testing.T) {
	cur := Record{
		Experiment: "ledger", Key: "Sales",
		Metrics:   map[string]float64{"hash_ms": 40},
		Floors:    map[string]float64{"hash_hit_ratio": 0.9},
		Details:   map[string]float64{"hash_hit_ratio": 0.5, "signed_delta_ms": -3},
		Identical: true,
	}
	base := []Record{rec("ledger", "Sales", map[string]float64{"hash_ms": 10})}
	fs := Gate([]Record{cur}, base, GateConfig{WarnRatio: 1.5, FailRatio: 3})
	if f := findingFor(t, fs, "ledger", "Sales", "hash_ms"); f.Level != GateFail || f.Ratio != 4 {
		t.Fatalf("new metric should be ratio-gated at 4x, got %+v", f)
	}
	if f := findingFor(t, fs, "ledger", "Sales", "hash_hit_ratio"); f.Level != GateFail {
		t.Fatalf("new floor should fail, got %+v", f)
	}
	if len(fs) != 2 {
		t.Fatalf("details must never be ratio-gated, got %d findings: %+v", len(fs), fs)
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	dir := t.TempDir()
	report, baseline := gateFixture()
	report[0].Floors = map[string]float64{"speedup": 1}
	report[0].Details = map[string]float64{"speedup": 2, "per_job_overhead_ms": -0.5}

	for name, recs := range map[string][]Record{"baseline.json": baseline, "report.json": report} {
		path := filepath.Join(dir, name)
		if err := (Options{JSONPath: path}).WriteRecords(recs); err != nil {
			t.Fatal(err)
		}
		got, err := LoadRecords(path)
		if err != nil || !reflect.DeepEqual(got, recs) {
			t.Fatalf("%s round trip: %v\n got %+v\nwant %+v", name, err, got, recs)
		}
	}
	if _, err := LoadRecords(filepath.Join(dir, "nope.json")); err == nil {
		t.Fatal("missing file should error")
	}
}
