package bench

import (
	"fmt"
	"sort"
)

// Experiment is a runnable table/figure reproduction.
type Experiment struct {
	// ID is the command-line name (e.g. "table5", "fig9").
	ID string
	// Paper is the table/figure reference in the paper.
	Paper string
	// Description summarizes what it reproduces.
	Description string
	// Run produces the result table.
	Run func(Options) (*Table, error)
}

// Experiments returns this package's reproductions, in paper order. The
// serve, route, and regress experiments need the facade, which this package
// cannot import (the root package's tests import bench), so they live in
// internal/bench/serveexp; commands list both registries.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "table2", Paper: "Table 2", Description: "parameter defaults by corpus properties", Run: Table2},
		{ID: "table3", Paper: "Table 3", Description: "dataset and DAG statistics", Run: Table3},
		{ID: "table4", Paper: "Table 4", Description: "metric-evaluation case study", Run: Table4},
		{ID: "table5", Paper: "Table 5", Description: "% improvement across corpus setups and methods", Run: Table5},
		{ID: "fig3", Paper: "Figure 3", Description: "simulated user study", Run: Fig3},
		{ID: "fig4", Paper: "Figure 4", Description: "% improvement distributions", Run: Fig4},
		{ID: "fig5", Paper: "Figure 5", Description: "intent-threshold sweeps", Run: Fig5},
		{ID: "fig6", Paper: "Figure 6", Description: "seq and beam-size ablations", Run: Fig6},
		{ID: "fig7", Paper: "Figure 7", Description: "runtime breakdown", Run: Fig7},
		{ID: "fig9", Paper: "Figure 9", Description: "target-leakage detection", Run: Fig9},
		{ID: "ablate", Paper: "(extra)", Description: "framework-component ablation (DESIGN.md)", Run: Ablate},
		{ID: "batch", Paper: "(extra)", Description: "concurrent batch engine vs sequential standardization", Run: Batch},
		{ID: "curate", Paper: "(extra)", Description: "corpus-registry lifecycle: cold curation vs warm load vs incremental apply", Run: Curate},
	}
}

// Lookup finds an experiment by ID in exps.
func Lookup(exps []Experiment, id string) (Experiment, error) {
	var ids []string
	for _, e := range exps {
		if e.ID == id {
			return e, nil
		}
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (have %v)", id, ids)
}
