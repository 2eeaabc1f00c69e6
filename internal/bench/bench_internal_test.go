package bench

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// fastOpts keeps experiment tests quick: two datasets, one input script.
func fastOpts() Options {
	return Options{
		Seed:              1,
		RowScale:          0.01,
		MinRows:           240,
		ScriptsPerDataset: 1,
		SeqLength:         6,
		Datasets:          []string{"Medical", "NLP"},
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		Title:  "Demo",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"xxx", "y"}},
	}
	out := tab.Render()
	if !strings.Contains(out, "Demo") || !strings.Contains(out, "xxx") {
		t.Fatalf("render = %q", out)
	}
	lines := strings.Split(out, "\n")
	if len(lines) < 4 {
		t.Fatal("render too short")
	}
}

func TestStatsHelpers(t *testing.T) {
	vals := []float64{3, 1, 2}
	if mean(vals) != 2 || median(vals) != 2 {
		t.Fatal("mean/median")
	}
	lo, hi := minMax(vals)
	if lo != 1 || hi != 3 {
		t.Fatal("minMax")
	}
	if mean(nil) != 0 || median(nil) != 0 {
		t.Fatal("empty stats")
	}
	if stddev([]float64{1}) != 0 {
		t.Fatal("stddev single")
	}
	if s := stddev([]float64{1, 3}); math.Abs(s-math.Sqrt2) > 1e-9 {
		t.Fatalf("stddev = %v", s)
	}
	if median([]float64{1, 2, 3, 4}) != 2.5 {
		t.Fatal("even median")
	}
}

func TestWelchT(t *testing.T) {
	a := []float64{5, 5.1, 4.9, 5.2, 4.8, 5, 5.1, 4.9}
	b := []float64{3, 3.1, 2.9, 3.2, 2.8, 3, 3.1, 2.9}
	tt, p := welchT(a, b)
	if tt <= 0 || p > 0.001 {
		t.Fatalf("t=%v p=%v for clearly different means", tt, p)
	}
	_, pSame := welchT(a, a)
	if pSame < 0.9 {
		t.Fatalf("identical samples p = %v", pSame)
	}
	if _, p := welchT([]float64{1}, a); p != 1 {
		t.Fatal("degenerate input should give p=1")
	}
}

func TestHistogramAndSparkline(t *testing.T) {
	h := histogram([]float64{-150, -50, 0, 50, 150}, -100, 100, 4)
	if len(h) != 4 {
		t.Fatal("bins")
	}
	if h[0] != 1 || h[3] != 2 { // -150 clamps to bin 0; 150 clamps to bin 3
		t.Fatalf("clamped bins = %v", h)
	}
	total := 0
	for _, c := range h {
		total += c
	}
	if total != 5 {
		t.Fatalf("histogram loses values: %v", h)
	}
	if sparkline(h) == "" {
		t.Fatal("sparkline empty")
	}
	if sparkline([]int{0, 0}) != "" {
		t.Fatal("all-zero sparkline should be empty")
	}
}

func TestRegistryLookup(t *testing.T) {
	exps := Experiments()
	// 16 with serveexp's serve, route, and regress, which lsbench appends.
	if len(exps) != 13 {
		t.Fatalf("experiments = %d", len(exps))
	}
	for _, e := range exps {
		if _, err := Lookup(exps, e.ID); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Lookup(exps, "nope"); err == nil {
		t.Fatal("unknown id should error")
	}
}

func TestTable2Defaults(t *testing.T) {
	tab, err := Table2(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if tab.Rows[0][2] != "16" || tab.Rows[0][3] != "3" {
		t.Fatalf("large/diverse row = %v", tab.Rows[0])
	}
	if tab.Rows[3][2] != "8" || tab.Rows[3][3] != "1" {
		t.Fatalf("small/narrow row = %v", tab.Rows[3])
	}
}

func TestTable3Shape(t *testing.T) {
	tab, err := Table3(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if tab.Rows[0][0] != "Scripts" || tab.Rows[0][1] != "62" {
		t.Fatalf("scripts row = %v", tab.Rows[0])
	}
}

func TestTable4Monotone(t *testing.T) {
	tab, err := Table4(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	var re [3]float64
	for i, row := range tab.Rows {
		if _, err := fmtScan(row[1], &re[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !(re[0] > re[1] && re[1] > re[2]) {
		t.Fatalf("RE not decreasing: %v", re)
	}
}

func TestTable5FastShape(t *testing.T) {
	tab, err := Table5(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	byMethod := map[string][]string{}
	for _, row := range tab.Rows {
		if row[0] == "Full-size corpus" {
			byMethod[row[1]] = row
		}
	}
	for _, m := range []string{"Sourcery", "Auto-Suggest", "Auto-Tables"} {
		row := byMethod[m]
		if row == nil {
			t.Fatalf("missing row for %s", m)
		}
		for _, cell := range row[2:] {
			if cell != "0.0" {
				t.Fatalf("%s should be all zeros: %v", m, row)
			}
		}
	}
	var lsMean float64
	if _, err := fmtScan(byMethod["LS (τJ)"][5], &lsMean); err != nil {
		t.Fatal(err)
	}
	if lsMean < 0 {
		t.Fatalf("LS mean = %v", lsMean)
	}
}

func TestFig5MonotoneInTauJ(t *testing.T) {
	opts := fastOpts()
	opts.Datasets = []string{"Medical"}
	tab, err := Fig5(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Improvement must be non-increasing as τJ tightens from 0.5 to 1.0.
	var prev = math.Inf(1)
	for _, row := range tab.Rows {
		if row[1] != "τJ" {
			continue
		}
		var v float64
		if _, err := fmtScan(row[3], &v); err != nil {
			t.Fatal(err)
		}
		if v > prev+1e-9 {
			t.Fatalf("improvement increased as τJ tightened: %v", tab.Rows)
		}
		prev = v
	}
}

func TestFig6SeqMonotone(t *testing.T) {
	opts := fastOpts()
	opts.Datasets = []string{"Medical"}
	tab, err := Fig6(opts)
	if err != nil {
		t.Fatal(err)
	}
	var prev = math.Inf(-1)
	for _, row := range tab.Rows {
		if row[1] != "seq" {
			continue
		}
		var v float64
		if _, err := fmtScan(row[3], &v); err != nil {
			t.Fatal(err)
		}
		if v < prev-1e-9 {
			t.Fatalf("improvement decreased with longer seq: %v", tab.Rows)
		}
		prev = v
	}
}

func TestFig7HasTimings(t *testing.T) {
	opts := fastOpts()
	opts.Datasets = []string{"Medical"}
	tab, err := Fig7(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 1 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	var total float64
	if _, err := fmtScan(tab.Rows[0][6], &total); err != nil {
		t.Fatal(err)
	}
	if total <= 0 {
		t.Fatalf("total time = %v", total)
	}
}

func TestFig9AccuracyInRange(t *testing.T) {
	opts := fastOpts()
	opts.Datasets = []string{"Medical"}
	opts.ScriptsPerDataset = 2
	tab, err := Fig9(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		for _, cell := range row[1:5] {
			var v float64
			if _, err := fmtScan(strings.TrimSuffix(cell, "%"), &v); err != nil {
				t.Fatal(err)
			}
			if v < 0 || v > 100 {
				t.Fatalf("accuracy out of range: %v", row)
			}
		}
	}
}

func TestFig3PanelsAndTTest(t *testing.T) {
	opts := fastOpts()
	tab, err := Fig3(opts)
	if err != nil {
		t.Fatal(err)
	}
	// 2 cases × 5 methods + t-test row.
	if len(tab.Rows) != 11 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	last := tab.Rows[len(tab.Rows)-1]
	if !strings.HasPrefix(last[0], "t-test") {
		t.Fatalf("missing t-test row: %v", last)
	}
}

func TestFig4HistogramsComplete(t *testing.T) {
	opts := fastOpts()
	opts.Datasets = []string{"Medical"}
	tab, err := Fig4(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d (want LS + 2 GPT)", len(tab.Rows))
	}
}

// fmtScan parses a single float from a string cell.
func fmtScan(s string, v *float64) (int, error) {
	return sscan(s, v)
}

// sscan wraps fmt.Sscanf for the test helpers.
func sscan(s string, v *float64) (int, error) {
	return fmt.Sscanf(s, "%f", v)
}
