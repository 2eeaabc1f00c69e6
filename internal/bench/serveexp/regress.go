package serveexp

import (
	"fmt"

	"lucidscript/internal/bench"
)

// Regress replays the batch, serve, route, and curate (10k corpus only)
// experiments back to back on the current build and writes the combined
// []bench.Record report to Options.JSONPath. cmd/benchgate gates that
// report against the committed BENCH_*.json baselines.
func Regress(opts bench.Options) (*bench.Table, error) {
	legs := []struct {
		name string
		run  func(bench.Options) ([]bench.Record, *bench.Table, error)
	}{
		{"batch", bench.BatchRecords},
		{"serve", serveRecords},
		{"route", routeRecords},
		{"curate (10k corpus only)", func(o bench.Options) ([]bench.Record, *bench.Table, error) {
			return bench.CurateRecords(o, []int{10_000})
		}},
	}
	var report []bench.Record
	for _, leg := range legs {
		opts.Logf("regress: replaying %s experiment", leg.name)
		recs, _, err := leg.run(opts)
		if err != nil {
			return nil, fmt.Errorf("bench: regress %s leg: %w", leg.name, err)
		}
		report = append(report, recs...)
	}
	if err := opts.WriteRecords(report); err != nil {
		return nil, err
	}

	t := &bench.Table{
		Title:  "Regress replay (wall-clock per dataset; gate with benchgate)",
		Header: []string{"experiment", "dataset", "metric", "ms"},
	}
	for _, r := range report {
		for _, m := range r.MetricNames() {
			t.Rows = append(t.Rows, []string{r.Experiment, r.Key, m, fmt.Sprintf("%.0f", r.Metrics[m])})
		}
	}
	return t, nil
}
