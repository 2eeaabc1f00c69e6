package bench

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"time"

	"lucidscript/internal/corpusgen"
	"lucidscript/internal/registry"
)

// The registry's pinned performance contract (see DESIGN.md §10): a warm
// boot must beat cold curation by at least WarmSpeedupFloor, and a ~1%
// churn applied incrementally must beat a from-scratch rebuild by at least
// ApplySpeedupFloor, neither side counting its publish. The gate fails
// either collapsing regardless of the wall-clock ratios, because the
// speedups are machine-independent.
const (
	WarmSpeedupFloor  = 5.0
	ApplySpeedupFloor = 10.0
)

// curateSizes are the corpus sizes the standalone experiment sweeps; the
// regress replay runs only the first (smallest) to keep CI wall-clock sane.
var curateSizes = []int{10_000, 100_000}

// curateReps is how many times each curate leg runs, each rep on a fresh
// registry; the best rep is recorded. A single rep let one slow fsync or a
// collection of an earlier experiment's garbage decide a leg.
const curateReps = 3

// Curate measures the corpus-registry lifecycle — cold curation, warm
// snapshot load, and incremental re-curation under ~1% churn — over
// seeded synthetic corpora of 10^4..10^5 scripts. Cold curation (parse +
// lemmatize + fold + publish) is the price the registry exists to
// amortize; warm load re-opens the published snapshot without touching the
// per-script section; full load is the one-time lazy load of that section
// before a first mutation; apply re-curates the churn incrementally and
// publish writes the result, against a from-scratch rebuild of the same
// membership. The two speedups are the registry's performance contract,
// carried as floors.
func Curate(opts Options) (*Table, error) {
	records, table, err := CurateRecords(opts, curateSizes)
	if err != nil {
		return nil, err
	}
	return table, opts.WriteRecords(records)
}

// CurateRecords runs the curate experiment over the given corpus sizes and
// returns the records alongside the rendered table, without touching
// Options.JSONPath. The regress experiment reuses it with the smallest
// size only.
func CurateRecords(opts Options, sizes []int) ([]Record, *Table, error) {
	opts = opts.withDefaults()
	var records []Record
	for _, n := range sizes {
		rec, err := curateOne(opts, n)
		if err != nil {
			return nil, nil, fmt.Errorf("bench: curate %d scripts: %w", n, err)
		}
		records = append(records, rec)
	}
	return records, curateTable(records), nil
}

func curateOne(opts Options, n int) (Record, error) {
	churn := n / 200 // 0.5% removed + 0.5% added = 1% total churn
	if churn == 0 {
		churn = 1
	}
	comp, err := corpusgen.Get("Titanic")
	if err != nil {
		return Record{}, err
	}
	opts.Logf("curate: generating %d scripts (seed %d)", n+churn, opts.Seed)
	// Generate churn extra scripts past the corpus: the per-script streams
	// make the first n a stable prefix, so the tail is the add set.
	generated, err := comp.GenerateScaled(corpusgen.ScaleConfig{Seed: opts.Seed, NumScripts: n + churn})
	if err != nil {
		return Record{}, err
	}
	members := make([]registry.Script, n)
	for i, g := range generated[:n] {
		members[i] = registry.Script{ID: comp.ScaledID(i), Source: g.Script.Source()}
	}
	adds := make([]registry.Script, churn)
	for i, g := range generated[n:] {
		adds[i] = registry.Script{ID: comp.ScaledID(n + i), Source: g.Script.Source()}
	}
	// Remove churn members evenly spread across the corpus.
	removes := make([]registry.Script, churn)
	removed := make(map[string]bool, churn)
	for i := range removes {
		removes[i] = members[(i*n)/churn]
		removed[removes[i].ID] = true
	}
	// The post-churn membership in the registry's canonical order:
	// survivors in insertion order, then the adds.
	mutated := make([]registry.Script, 0, n)
	for _, m := range members {
		if !removed[m.ID] {
			mutated = append(mutated, m)
		}
	}
	mutated = append(mutated, adds...)

	best := map[string]float64{}
	identical := true
	rep := func(r int) error {
		coldDir, err := os.MkdirTemp("", "lsbench-curate-cold-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(coldDir)
		rebuildDir, err := os.MkdirTemp("", "lsbench-curate-rebuild-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(rebuildDir)

		var warm, rebuilt *registry.Registry
		legs := []struct {
			name string
			run  func() error
		}{
			{"cold_curate_ms", func() error { _, err := registry.Create(coldDir, members); return err }},
			{"warm_load_ms", func() (err error) {
				if warm, err = registry.Open(coldDir); err == nil {
					_ = warm.Vocab() // the load a standardization needs is now complete
				}
				return err
			}},
			{"full_load_ms", func() error { _, err := warm.Members(); return err }},
			{"apply_ms", func() error { return warm.Apply(adds, removes) }},
			{"publish_ms", func() error { _, err := warm.Publish(); return err }},
			{"rebuild_ms", func() (err error) { rebuilt, err = registry.Create(rebuildDir, mutated); return err }},
		}
		opts.Logf("curate: rep %d/%d: cold curate, warm load, full load, %d-script churn apply, rebuild",
			r+1, curateReps, 2*churn)
		for _, leg := range legs {
			// Collect first, as the batch experiment does, so garbage
			// from earlier legs cannot charge its GC pause to this one.
			runtime.GC()
			start := time.Now()
			if err := leg.run(); err != nil {
				return err
			}
			if d := ms(time.Since(start)); r == 0 || d < best[leg.name] {
				best[leg.name] = d
			}
		}
		appliedState, err := warm.StateBytes()
		if err != nil {
			return err
		}
		rebuiltState, err := rebuilt.StateBytes()
		if err != nil {
			return err
		}
		identical = identical && bytes.Equal(appliedState, rebuiltState)
		return nil
	}
	for r := 0; r < curateReps; r++ {
		if err := rep(r); err != nil {
			return Record{}, err
		}
	}

	rec := Record{
		Experiment: "curate",
		Key:        fmt.Sprintf("gen-%dk", n/1000),
		Metrics:    map[string]float64{},
		Floors:     map[string]float64{"warm_speedup": WarmSpeedupFloor, "apply_speedup": ApplySpeedupFloor},
		Details: map[string]float64{
			"scripts": float64(n), "churn": float64(2 * churn), "reps": curateReps,
			"rebuild_ms": best["rebuild_ms"], "publish_ms": best["publish_ms"],
		},
		Identical: identical,
	}
	for _, m := range []string{"cold_curate_ms", "warm_load_ms", "full_load_ms", "apply_ms"} {
		rec.Metrics[m] = best[m]
	}
	if best["warm_load_ms"] > 0 {
		rec.Details["warm_speedup"] = best["cold_curate_ms"] / best["warm_load_ms"]
	}
	if best["apply_ms"] > 0 {
		// A rebuild (Create) publishes too: take the publish off it, so
		// the ratio compares re-curation against re-curation.
		rec.Details["apply_speedup"] = (best["rebuild_ms"] - best["publish_ms"]) / best["apply_ms"]
	}
	opts.Logf("curate: %s cold %.0fms, warm %.0fms (%.1fx), full load %.0fms, apply %.0fms + publish %.0fms vs rebuild %.0fms (%.1fx), identical=%v",
		rec.Key, best["cold_curate_ms"], best["warm_load_ms"], rec.Details["warm_speedup"],
		best["full_load_ms"], best["apply_ms"], best["publish_ms"], best["rebuild_ms"], rec.Details["apply_speedup"], identical)
	return rec, nil
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }

func curateTable(records []Record) *Table {
	t := &Table{
		Title: "Corpus-registry lifecycle at scale (cold curate vs warm load vs incremental apply)",
		Header: []string{"corpus", "scripts", "cold curate", "warm load", "warm speedup",
			"full load", "apply (1% churn)", "publish", "rebuild", "apply speedup", "identical"},
	}
	for _, r := range records {
		m, d := r.Metrics, r.Details
		t.Rows = append(t.Rows, []string{
			r.Key, fmt.Sprintf("%.0f", d["scripts"]),
			fmt.Sprintf("%.0fms", m["cold_curate_ms"]),
			fmt.Sprintf("%.1fms", m["warm_load_ms"]),
			fmt.Sprintf("%.1fx", d["warm_speedup"]),
			fmt.Sprintf("%.0fms", m["full_load_ms"]),
			fmt.Sprintf("%.0fms", m["apply_ms"]),
			fmt.Sprintf("%.0fms", d["publish_ms"]),
			fmt.Sprintf("%.0fms", d["rebuild_ms"]),
			fmt.Sprintf("%.1fx", d["apply_speedup"]),
			fmt.Sprintf("%v", r.Identical),
		})
	}
	return t
}
