// Package bench regenerates every table and figure of the paper's
// evaluation (Section 6) against the synthetic competitions in
// internal/corpusgen. Each experiment returns one or more text Tables whose
// rows mirror what the paper reports; EXPERIMENTS.md records the measured
// values next to the published ones.
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"lucidscript/internal/core"
	"lucidscript/internal/corpusgen"
	"lucidscript/internal/dag"
	"lucidscript/internal/entropy"
	"lucidscript/internal/frame"
	"lucidscript/internal/intent"
	"lucidscript/internal/interp"
	"lucidscript/internal/obs"
	"lucidscript/internal/script"
)

// Options scales the experiments. The zero value gives the fast profile
// used by `lsbench` (small data, capped leave-one-out); raise RowScale and
// ScriptsPerDataset to approach the paper's full runs.
type Options struct {
	// Seed drives all generation and search determinism (default 1).
	Seed int64
	// RowScale scales each competition's tuple count (default 0.02).
	RowScale float64
	// MinRows floors the scaled row count (default 240).
	MinRows int
	// ScriptsPerDataset caps the leave-one-out loop (default 6; 0 = all).
	ScriptsPerDataset int
	// SeqLength and BeamSize override the LS defaults when positive.
	SeqLength, BeamSize int
	// Datasets restricts the competitions (default: all six).
	Datasets []string
	// DisableExecCache turns off the execution-prefix cache (the zero
	// value keeps it on, matching core.DefaultConfig).
	DisableExecCache bool
	// Limits, when non-nil, installs the per-execution resource governor
	// on every standardization the experiments run.
	Limits *interp.Limits
	// BatchWorkers bounds the worker pool of the "batch" experiment
	// (default GOMAXPROCS).
	BatchWorkers int
	// JSONPath, when set, makes experiments with machine-readable output
	// (batch, serve, route, curate, and regress) also write their []Record
	// there (see WriteRecords).
	JSONPath string
	// Progress receives one line per unit of work when non-nil.
	Progress io.Writer
	// Tracer, when non-nil, receives structured search events from every
	// standardization the experiments run.
	Tracer obs.Tracer
	// Metrics, when non-nil, accumulates search counters across every
	// standardization the experiments run.
	Metrics *obs.Metrics
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.RowScale == 0 {
		o.RowScale = 0.02
	}
	if o.MinRows == 0 {
		o.MinRows = 240
	}
	if o.ScriptsPerDataset == 0 {
		o.ScriptsPerDataset = 6
	}
	if len(o.Datasets) == 0 {
		o.Datasets = corpusgen.Names()
	}
	return o
}

func (o Options) logf(format string, args ...interface{}) {
	if o.Progress != nil {
		fmt.Fprintf(o.Progress, format+"\n", args...)
	}
}

// WithDefaults returns the options with the fast-profile defaults filled
// in, for experiment implementations living outside this package (see
// serveexp).
func (o Options) WithDefaults() Options { return o.withDefaults() }

// Logf writes one progress line to Progress when it is set.
func (o Options) Logf(format string, args ...interface{}) { o.logf(format, args...) }

// GenerateDataset materializes one named competition corpus at the scale
// these options describe.
func (o Options) GenerateDataset(name string) (*corpusgen.Generated, error) {
	c, err := corpusgen.Get(name)
	if err != nil {
		return nil, err
	}
	return c.Generate(corpusgen.GenOptions{
		Seed:     o.Seed,
		RowScale: o.RowScale,
		MinRows:  o.MinRows,
	})
}

// Table is a rendered experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Render returns the table as aligned text.
func (t *Table) Render() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	b.WriteString(t.Title)
	b.WriteByte('\n')
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for p := len(c); p < widths[i]; p++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// generated caches corpora per dataset within one experiment run.
type genCache struct {
	opts Options
	m    map[string]*corpusgen.Generated
}

func newGenCache(opts Options) *genCache {
	return &genCache{opts: opts, m: map[string]*corpusgen.Generated{}}
}

func (g *genCache) get(name string) (*corpusgen.Generated, error) {
	if v, ok := g.m[name]; ok {
		return v, nil
	}
	gen, err := g.opts.GenerateDataset(name)
	if err != nil {
		return nil, err
	}
	g.m[name] = gen
	return gen, nil
}

// lsConfig builds the LS configuration for a run.
func lsConfig(opts Options, measure intent.Measure, tau float64, target string) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = opts.Seed
	cfg.ExecCache = !opts.DisableExecCache
	cfg.Limits = opts.Limits
	cfg.Tracer = opts.Tracer
	cfg.Metrics = opts.Metrics
	if opts.SeqLength > 0 {
		cfg.SeqLength = opts.SeqLength
	}
	if opts.BeamSize > 0 {
		cfg.BeamSize = opts.BeamSize
	}
	switch measure {
	case intent.MeasureJaccard:
		cfg.Constraint = intent.Constraint{Measure: intent.MeasureJaccard, Tau: tau}
	case intent.MeasureModel:
		cfg.Constraint = intent.Constraint{
			Measure: intent.MeasureModel,
			Tau:     tau,
			Model:   intent.ModelConfig{Target: target},
		}
	}
	return cfg
}

// lsRun holds one standardization outcome.
type lsRun struct {
	improvement float64
	intentValue float64
	timings     core.Timings
	output      *script.Script
	execChecks  int
}

// leaveOneOut standardizes up to cap corpus scripts, each against the rest,
// using the supplied corpus override (nil = the generated corpus) and data
// sources override (nil = the generated sources).
func leaveOneOut(gen *corpusgen.Generated, corpus []*script.Script, sources map[string]*frame.Frame, cfg core.Config, cap int, logf func(string, ...interface{})) []lsRun {
	inputs := gen.ScriptsOnly()
	if cap > 0 && len(inputs) > cap {
		inputs = inputs[:cap]
	}
	if sources == nil {
		sources = gen.Sources
	}
	var runs []lsRun
	for i, su := range inputs {
		var rest []*script.Script
		if corpus == nil {
			for j, other := range gen.ScriptsOnly() {
				if j != i {
					rest = append(rest, other)
				}
			}
		} else {
			rest = corpus
		}
		std := core.New(rest, sources, cfg)
		start := time.Now()
		res, err := std.Standardize(su)
		if err != nil {
			logf("  script %d: input failed to execute (%v), skipped", i, err)
			continue
		}
		logf("  script %d: improvement %.1f%% in %s", i, res.ImprovementPct, time.Since(start).Round(time.Millisecond))
		runs = append(runs, lsRun{
			improvement: res.ImprovementPct,
			intentValue: res.IntentValue,
			timings:     res.Timings,
			output:      res.Output,
			execChecks:  res.ExecChecks,
		})
	}
	return runs
}

// corpusVocab builds the vocabulary of a script list.
func corpusVocab(scripts []*script.Script) *entropy.Vocab {
	graphs := make([]*dag.Graph, len(scripts))
	for i, s := range scripts {
		graphs[i] = dag.Build(s)
	}
	return entropy.BuildVocab(graphs)
}

// fmtF renders a float with one decimal.
func fmtF(v float64) string { return fmt.Sprintf("%.1f", v) }

// sortedCopy returns a sorted copy of the values.
func sortedCopy(vals []float64) []float64 {
	out := append([]float64(nil), vals...)
	sort.Float64s(out)
	return out
}
