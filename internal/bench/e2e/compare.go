package e2e

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// Benchmark is the repository's BENCHMARK.json: the workloads and the
// metrics the benchmark reports, with each end-to-end metric's regression
// bound.
type Benchmark struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []BoundedMetric `json:"end_to_end"`
	PerLayer []Metric        `json:"per_layer"`
}

// BoundedMetric is an end-to-end metric with its bound: the share of the
// parent's median by which it may get worse before a change is rejected.
type BoundedMetric struct {
	Metric
	Bound float64 `json:"bound"`
}

// LoadBenchmark reads BENCHMARK.json.
func LoadBenchmark(path string) (*Benchmark, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bench Benchmark
	if err := json.Unmarshal(b, &bench); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bench, nil
}

// RunFile is what lsperf -json writes: the results of one invocation, one
// per workload run.
type RunFile struct {
	Results []*Result `json:"results"`
}

// LoadRunFile reads one lsperf -json output.
func LoadRunFile(path string) (*RunFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf RunFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// Summary is one side's distribution of a metric over its runs.
type Summary struct {
	N              int
	Median, Q1, Q3 float64
	// Values are the runs' values in file order, for pairing.
	Values []float64
	// spreadFrac is (Q3 − Q1) / |Median|.
	spreadFrac float64
}

func summarize(xs []float64) Summary {
	q1, _, q3 := Quartiles(xs)
	s := Summary{N: len(xs), Median: Median(xs), Q1: q1, Q3: q3, Values: xs}
	if s.Median != 0 {
		s.spreadFrac = (q3 - q1) / math.Abs(s.Median)
	}
	return s
}

// Comparison is one (workload, metric) row of lsperf -compare.
type Comparison struct {
	Workload string
	Metric   Metric
	// Bound is the metric's regression bound, 0 for unbounded metrics.
	Bound float64
	A, B  Summary
	// Change is (B − A)/A on the medians.
	Change float64
	// Wins is the share of the runs paired by position in which B reads
	// better than A; ties count for neither side.
	Wins float64
	// Verdict is better, same, worse, or unresolved.
	Verdict string
}

// Compare sets side B's runs against side A's. For each metric in a
// workload both sides ran, it judges B by the rule for claiming a gain
// and the rule for showing no regression:
//
//   - better: B wins at least nine tenths of the pairs and its median is
//     better than A's by more than A's spread (the distance between A's
//     quartiles);
//   - unresolved: otherwise, when A's spread as a share of its median is
//     wider than the bound, unless every B run reads better than every A
//     run;
//   - worse: otherwise, when B's median is worse than A's by more than the
//     bound;
//   - same: otherwise.
//
// Metrics without a bound (per-layer ones) are judged only by the gain
// rule, in both directions. A run that is invalid, failed its correctness
// check or lost a job does not count, so Compare refuses files holding
// one.
func Compare(a, b []*RunFile, bench *Benchmark) ([]Comparison, error) {
	if err := errors.Join(checkRuns(a), checkRuns(b)); err != nil {
		return nil, err
	}
	bounds := map[string]float64{}
	for _, m := range bench.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	known := map[string]Metric{}
	for _, list := range [][]Metric{EndToEnd, Layers} {
		for _, m := range list {
			known[m.Name] = m
		}
	}
	for _, list := range Details {
		for _, m := range list {
			known[m.Name] = m
		}
	}
	type key struct{ workload, metric string }
	sideValues := func(files []*RunFile) map[key][]float64 {
		out := map[key][]float64{}
		for _, f := range files {
			for _, r := range f.Results {
				for _, vals := range []map[string]Value{r.Metrics, r.Detail} {
					for name, v := range vals {
						k := key{r.Workload, name}
						out[k] = append(out[k], v.Value)
					}
				}
			}
		}
		return out
	}
	av, bv := sideValues(a), sideValues(b)
	var keys []key
	for k := range av {
		if _, ok := bv[k]; ok {
			keys = append(keys, k)
		}
	}
	order := map[string]int{}
	for i, w := range Workloads {
		order[w] = i
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return order[keys[i].workload] < order[keys[j].workload]
		}
		return keys[i].metric < keys[j].metric
	})
	var out []Comparison
	for _, k := range keys {
		m, ok := known[k.metric]
		if !ok {
			continue
		}
		c := Comparison{Workload: k.workload, Metric: m, Bound: bounds[k.metric], A: summarize(av[k]), B: summarize(bv[k])}
		if c.A.Median != 0 {
			c.Change = (c.B.Median - c.A.Median) / math.Abs(c.A.Median)
		}
		c.Wins, c.Verdict = judge(m, c.Bound, c.A, c.B)
		out = append(out, c)
	}
	return out, nil
}

// checkRuns rejects every result that does not count.
func checkRuns(files []*RunFile) error {
	var errs []error
	for _, f := range files {
		for _, r := range f.Results {
			switch {
			case r.Invalid != "":
				errs = append(errs, fmt.Errorf("%s seed %d: invalid run: %s", r.Workload, r.Seed, r.Invalid))
			case !r.Correct:
				errs = append(errs, fmt.Errorf("%s seed %d: correctness check failed", r.Workload, r.Seed))
			case r.Failed > 0:
				errs = append(errs, fmt.Errorf("%s seed %d: %d of %d jobs failed", r.Workload, r.Seed, r.Failed, r.Attempted))
			}
		}
	}
	return errors.Join(errs...)
}

// TraceOverhead is what tracing costs each workload that side a ran only
// untraced and side b only traced: the change of the median
// latency_p50_ms, in percent of a's. It covers everything a traced run
// does differently, the cluster's timing proxies included.
func TraceOverhead(a, b []*RunFile) map[string]float64 {
	p50 := func(files []*RunFile, traced bool) map[string][]float64 {
		out := map[string][]float64{}
		mixed := map[string]bool{}
		for _, f := range files {
			for _, r := range f.Results {
				if r.Trace != traced {
					mixed[r.Workload] = true
				}
				v, ok := r.Metrics["latency_p50_ms"]
				if !ok {
					v, ok = r.Detail["latency_p50_ms"]
				}
				if ok {
					out[r.Workload] = append(out[r.Workload], v.Value)
				}
			}
		}
		for w := range mixed {
			delete(out, w)
		}
		return out
	}
	untraced, traced := p50(a, false), p50(b, true)
	out := map[string]float64{}
	for w, xs := range untraced {
		if ys, ok := traced[w]; ok {
			if base := Median(xs); base > 0 {
				out[w] = 100 * (Median(ys) - base) / base
			}
		}
	}
	return out
}

// judge applies Compare's rules to one metric.
func judge(m Metric, bound float64, a, b Summary) (wins float64, verdict string) {
	better := func(x, y float64) bool { // does x read better than y?
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	pairs := min(len(a.Values), len(b.Values))
	won, lost := 0, 0
	for i := 0; i < pairs; i++ {
		switch {
		case better(b.Values[i], a.Values[i]):
			won++
		case better(a.Values[i], b.Values[i]):
			lost++
		}
	}
	if pairs > 0 {
		wins = float64(won) / float64(pairs)
	}
	spread := a.Q3 - a.Q1
	gain := a.Median - b.Median
	if m.Better == "higher" {
		gain = -gain
	}
	switch {
	case pairs > 0 && 10*won >= 9*pairs && gain > spread:
		return wins, "better"
	case bound == 0:
		if pairs > 0 && 10*lost >= 9*pairs && -gain > spread {
			return wins, "worse"
		}
		return wins, "same"
	case a.spreadFrac > bound && !allBetter(b.Values, a.Values, better):
		return wins, "unresolved"
	case a.Median != 0 && -gain/math.Abs(a.Median) > bound:
		return wins, "worse"
	}
	return wins, "same"
}

// allBetter reports whether every value in xs reads better than every
// value in ys.
func allBetter(xs, ys []float64, better func(x, y float64) bool) bool {
	for _, x := range xs {
		for _, y := range ys {
			if !better(x, y) {
				return false
			}
		}
	}
	return len(xs) > 0 && len(ys) > 0
}

// RenderComparisons formats Compare's rows as an aligned table.
func RenderComparisons(rows []Comparison) string {
	header := []string{"workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "change", "B wins", "bound", "verdict"}
	table := [][]string{header}
	for _, c := range rows {
		bound := "-"
		if c.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", 100*c.Bound)
		}
		table = append(table, []string{
			c.Workload, c.Metric.Name, c.Metric.Unit,
			fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", c.A.Median, c.A.Q1, c.A.Q3, c.A.N),
			fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", c.B.Median, c.B.Q1, c.B.Q3, c.B.N),
			fmt.Sprintf("%+.1f%%", 100*c.Change),
			fmt.Sprintf("%.0f%%", 100*c.Wins),
			bound, c.Verdict,
		})
	}
	widths := make([]int, len(header))
	for _, row := range table {
		for i, cell := range row {
			widths[i] = max(widths[i], len(cell))
		}
	}
	var sb strings.Builder
	for _, row := range table {
		for i, cell := range row {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			if i < len(row)-1 {
				sb.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
