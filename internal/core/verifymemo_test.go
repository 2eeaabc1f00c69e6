package core

import (
	"testing"

	"lucidscript/internal/frame"
	"lucidscript/internal/intent"
	"lucidscript/internal/obs"
)

// TestJaccardCheckOrder walks verifyCache.jaccardAtLeast through each way
// a Δ_J check is settled: exact on first sight, then from the memo; by the
// size bound after building the candidate's set; by the bound alone once
// both sizes are known, in a later call; and that a rejection by the bound
// memoizes nothing, so a lower τ still gets the exact index.
func TestJaccardCheckOrder(t *testing.T) {
	ints := func(vals ...int64) *frame.Frame {
		f, err := frame.FromSeries(frame.NewIntSeries("a", vals))
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	orig := ints(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	near := ints(1, 2, 3, 4, 5, 6, 7, 8, 9, 11) // J = 9/11
	small := ints(1, 2)                         // J = 2/10, bound 2/10
	tiny := ints(1)                             // J = 1/10, bound 1/10
	check := func(vc *verifyCache, tau float64, out *frame.Frame, wantOK bool, wantJ float64, want jaccardStats) {
		t.Helper()
		ok, j := vc.jaccardAtLeast(tau, out)
		if ok != wantOK || j != wantJ || vc.jaccard != want {
			t.Fatalf("τ=%v: got %v, %v with %+v; want %v, %v with %+v", tau, ok, j, vc.jaccard, wantOK, wantJ, want)
		}
	}
	vc := newVerifyCache(orig)
	check(vc, 0.5, near, true, 9.0/11, jaccardStats{setsBuilt: 2})
	check(vc, 0.9, near, false, 9.0/11, jaccardStats{memoHits: 1, setsBuilt: 2})
	check(vc, 0.5, small, false, 0.2, jaccardStats{memoHits: 1, boundRejects: 1, setsBuilt: 3})
	check(vc, 0.1, small, true, 0.2, jaccardStats{memoHits: 1, boundRejects: 1, setsBuilt: 4})
	check(vc, 0.5, tiny, false, 0.1, jaccardStats{memoHits: 1, boundRejects: 2, setsBuilt: 5})

	vc = newVerifyCache(orig)
	check(vc, 0.5, near, true, 9.0/11, jaccardStats{memoHits: 1})
	check(vc, 0.5, tiny, false, 0.1, jaccardStats{memoHits: 1, boundRejects: 1})
}

// TestJaccardGridMatchesSingleTau checks that a τ_J sweep, whose cells
// settle Δ_J from the memos and size bounds earlier cells left, equals
// one single-τ search per threshold.
func TestJaccardGridMatchesSingleTau(t *testing.T) {
	// Both orders: a cell may reuse what a stricter cell before it left.
	sweeps := [][]float64{{0.5, 0.7, 0.9, 0.95}, {0.95, 0.9, 0.7, 0.5}}
	m := obs.NewMetrics()
	for _, j := range hashJobs(t, 0) {
		for _, taus := range sweeps {
			checkSweep(t, j, taus, m)
		}
	}
	for _, name := range []string{obs.MJaccardMemoHits, obs.MJaccardBoundRejects, obs.MValueSetsBuilt} {
		if m.Value(name) == 0 {
			t.Errorf("%s = 0: the sweep never took that path", name)
		}
	}
}

// checkSweep runs one job's τ_J grid and compares each cell with a
// single-τ search.
func checkSweep(t *testing.T, j hashJob, taus []float64, m *obs.Metrics) {
	t.Helper()
	var cs []intent.Constraint
	for _, tau := range taus {
		c := j.st.Config.Constraint
		c.Tau = tau
		cs = append(cs, c)
	}
	gcfg := j.st.Config
	gcfg.Metrics = m
	grid, err := FromCorpus(j.st.Corpus, gcfg).StandardizeGrid(j.su, []int{gcfg.SeqLength}, cs)
	if err != nil {
		t.Fatalf("%s: %v", j.name, err)
	}
	for i, c := range cs {
		cfg := j.st.Config
		cfg.Constraint = c
		want, err := FromCorpus(j.st.Corpus, cfg).Standardize(j.su)
		if err != nil {
			t.Fatalf("%s τ=%v: %v", j.name, c.Tau, err)
		}
		got := grid[0][i]
		if got.Script.Source() != want.Script.Source() || got.REAfter != want.REAfter ||
			got.IntentValue != want.IntentValue || got.OutputHash != want.OutputHash {
			t.Fatalf("%s τ=%v: grid cell (RE %v, intent %v):\n%s\nsingle run (RE %v, intent %v):\n%s",
				j.name, c.Tau, got.REAfter, got.IntentValue, got.Script.Source(),
				want.REAfter, want.IntentValue, want.Script.Source())
		}
	}
}
