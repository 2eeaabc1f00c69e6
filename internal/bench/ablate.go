package bench

import (
	"lucidscript/internal/core"
	"lucidscript/internal/intent"
)

// Ablate evaluates the design choices DESIGN.md calls out, beyond the
// paper's own seq/K ablations (Figure 6): K-means transformation diversity
// (Algorithm 3) vs plain beam extension, early vs late execution checking,
// the chained-delete lookahead, and the ranked-step limit. Each variant
// reports the mean % improvement and mean execution-check count over the
// same leave-one-out inputs.
func Ablate(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	cache := newGenCache(opts)
	t := &Table{
		Title:  "Ablation: framework components (mean % improvement / mean exec checks)",
		Header: []string{"Dataset", "Variant", "mean %impr", "exec checks"},
	}
	variants := []struct {
		name  string
		tweak func(*core.Config)
	}{
		{"default (all on)", func(*core.Config) {}},
		{"no diversity", func(c *core.Config) { c.Diversity = false }},
		{"late checking", func(c *core.Config) { c.EarlyCheck = false }},
		{"no delete lookahead", func(c *core.Config) { c.DisableLookahead = true }},
		{"step limit 16", func(c *core.Config) { c.StepLimit = 16 }},
		{"beam K=1, no diversity", func(c *core.Config) { c.BeamSize = 1; c.Diversity = false }},
	}
	for _, name := range opts.Datasets {
		gen, err := cache.get(name)
		if err != nil {
			return nil, err
		}
		opts.logf("ablate: %s", name)
		for _, v := range variants {
			cfg := lsConfig(opts, intent.MeasureJaccard, 0.9, "")
			v.tweak(&cfg)
			runs := leaveOneOut(gen, cfg, opts.ScriptsPerDataset, func(string, ...interface{}) {})
			var imps, checks []float64
			for _, r := range runs {
				imps = append(imps, r.improvement)
				checks = append(checks, float64(r.execChecks))
			}
			t.Rows = append(t.Rows, []string{name, v.name, fmtF(mean(imps)), fmtF(mean(checks))})
		}
	}
	return t, nil
}
