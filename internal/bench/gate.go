package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// Record is one row of machine-readable benchmark output: one key (a
// dataset or corpus) of one experiment. Every experiment's -json output,
// the regress report, and the committed BENCH_*.json baselines are all
// []Record, so the gate is one loop and a new metric is new data, not new
// gate code.
type Record struct {
	Experiment string `json:"experiment"`
	Key        string `json:"key"`
	// Metrics are wall-clock values the gate compares against the
	// baseline as current/baseline ratios (see GateConfig).
	Metrics map[string]float64 `json:"metrics"`
	// Floors maps a Details name to its minimum. Floors are checked on the
	// current record alone, so they gate even without a baseline.
	Floors map[string]float64 `json:"floors,omitempty"`
	// Details are recorded for reading and for Floors, never ratio-gated:
	// counts, speedups, and values too small or signed to ratio.
	Details map[string]float64 `json:"details,omitempty"`
	// Identical reports that the experiment's two arms produced
	// byte-identical outputs (the gate fails otherwise).
	Identical bool `json:"identical"`
}

// GateConfig tunes the regression gate. Wall-clock comparisons across
// machines are noisy, so the gate has two tiers: findings above the warn
// ratio are reported but tolerated, findings above the fail ratio (or any
// non-identical output or broken floor) flunk the gate.
type GateConfig struct {
	// WarnRatio flags current/baseline wall-clock ratios above it (default 1.5).
	WarnRatio float64
	// FailRatio flunks ratios above it (default 2.0).
	FailRatio float64
}

func (c GateConfig) withDefaults() GateConfig {
	if c.WarnRatio == 0 {
		c.WarnRatio = 1.5
	}
	if c.FailRatio == 0 {
		c.FailRatio = 2.0
	}
	return c
}

// Gate severity levels, ordered.
const (
	GateOK   = "ok"
	GateWarn = "warn"
	GateFail = "fail"
)

// GateFinding is one gate check on one record: a metric ratio against the
// baseline, a floor, or the identical-output check.
type GateFinding struct {
	Experiment string  `json:"experiment"`
	Key        string  `json:"key"`
	Metric     string  `json:"metric"`
	BaselineMS float64 `json:"baseline_ms"`
	CurrentMS  float64 `json:"current_ms"`
	Ratio      float64 `json:"ratio"`
	Level      string  `json:"level"`
	Note       string  `json:"note,omitempty"`
}

// Gate compares a fresh report against the committed baselines, joined
// on (experiment, key). Every metric of a report record yields one ratio
// finding; a metric with no baseline value warns instead. A non-identical
// record and a detail below its floor each add a fail. Baseline records
// absent from the report are ignored.
func Gate(report, baseline []Record, cfg GateConfig) []GateFinding {
	cfg = cfg.withDefaults()
	base := make(map[[2]string]Record, len(baseline))
	for _, b := range baseline {
		base[[2]string{b.Experiment, b.Key}] = b
	}
	var findings []GateFinding
	for _, cur := range report {
		finding := func(metric string) GateFinding {
			return GateFinding{Experiment: cur.Experiment, Key: cur.Key, Metric: metric}
		}
		if !cur.Identical {
			f := finding("identical")
			f.Level, f.Note = GateFail, "output diverged from the reference arm"
			findings = append(findings, f)
		}
		for _, name := range sortedKeys(cur.Floors) {
			if v, floor := cur.Details[name], cur.Floors[name]; v < floor {
				f := finding(name)
				f.BaselineMS, f.CurrentMS, f.Level = floor, v, GateFail
				f.Note = fmt.Sprintf("%.1f is below its floor %g", v, floor)
				findings = append(findings, f)
			}
		}
		b := base[[2]string{cur.Experiment, cur.Key}]
		for _, name := range cur.MetricNames() {
			f := finding(name)
			f.CurrentMS = cur.Metrics[name]
			baseMS, ok := b.Metrics[name]
			if !ok {
				f.Level, f.Note = GateWarn, "no baseline"
				findings = append(findings, f)
				continue
			}
			f.BaselineMS = baseMS
			if baseMS > 0 {
				f.Ratio = f.CurrentMS / baseMS
			}
			switch {
			case f.Ratio > cfg.FailRatio:
				f.Level = GateFail
			case f.Ratio > cfg.WarnRatio:
				f.Level = GateWarn
			default:
				f.Level = GateOK
			}
			findings = append(findings, f)
		}
	}
	return findings
}

// MetricNames returns the names of r's gated metrics, sorted.
func (r Record) MetricNames() []string { return sortedKeys(r.Metrics) }

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// GateTable renders the findings as a result table.
func GateTable(findings []GateFinding) *Table {
	t := &Table{
		Title:  "Perf-regression gate (current run vs committed baselines)",
		Header: []string{"experiment", "dataset", "metric", "baseline", "current", "ratio", "level"},
	}
	for _, f := range findings {
		ratio := "-"
		if f.Ratio > 0 {
			ratio = fmt.Sprintf("%.2fx", f.Ratio)
		}
		level := f.Level
		if f.Note != "" {
			level += " (" + f.Note + ")"
		}
		t.Rows = append(t.Rows, []string{
			f.Experiment, f.Key, f.Metric,
			fmt.Sprintf("%.0fms", f.BaselineMS),
			fmt.Sprintf("%.0fms", f.CurrentMS),
			ratio, level,
		})
	}
	return t
}

// GateSummary counts findings by level and renders a one-line verdict.
func GateSummary(findings []GateFinding) (fails, warns int, line string) {
	for _, f := range findings {
		switch f.Level {
		case GateFail:
			fails++
		case GateWarn:
			warns++
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "gate: %d comparisons, %d warn, %d fail", len(findings), warns, fails)
	if fails > 0 {
		b.WriteString(" — REGRESSION")
	} else {
		b.WriteString(" — pass")
	}
	return fails, warns, b.String()
}

// LoadRecords reads a record file: an experiment's -json output, a
// regress report, or a committed BENCH_*.json baseline.
func LoadRecords(path string) ([]Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []Record
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	return out, nil
}

// WriteRecords writes records to JSONPath, indented and newline-terminated
// like the committed baselines so a refresh is a plain copy with a minimal
// diff. It does nothing when JSONPath is unset.
func (o Options) WriteRecords(records []Record) error {
	if o.JSONPath == "" {
		return nil
	}
	data, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(o.JSONPath, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("bench: writing %s: %w", o.JSONPath, err)
	}
	o.logf("%d records written to %s", len(records), o.JSONPath)
	return nil
}
