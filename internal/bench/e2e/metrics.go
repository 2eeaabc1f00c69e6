package e2e

import (
	"fmt"
	"math"
	"sort"
)

// Metric names one reported number, its unit, and which direction is an
// improvement ("lower" or "higher").
type Metric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// EndToEnd lists the metrics a user of the system sees. Every workload
// reports every one of them from an untraced run.
var EndToEnd = []Metric{
	{"setup_s", "s", "lower"},
	{"jobs_per_s", "1/s", "higher"},
	{"slo_ok_ratio", "ratio", "higher"},
	{"peak_rss_mb", "MB", "lower"},
	{"re_improvement_pct", "%", "higher"},
}

// Latencies are the job latency percentiles, whose spread between runs is
// too wide for a regression bound. A traced run reports them first among
// Layers; an untraced run writes them to its result file as details, so
// that untraced runs compared against traced ones show what tracing costs
// (TraceOverhead).
var Latencies = []Metric{
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p90_ms", "ms", "lower"},
}

// Layers lists the per-layer metrics every workload reports from a traced
// run: the Latencies and the layers all four workloads pass through.
var Layers = concat(Latencies, []Metric{
	{"core.search_ms_p50", "ms", "lower"},
	{"core.search_ms_p90", "ms", "lower"},
	{"core.get_steps_ms_mean", "ms", "lower"},
	{"core.top_k_beams_ms_mean", "ms", "lower"},
	{"core.check_executes_ms_mean", "ms", "lower"},
	{"core.verify_constraints_ms_mean", "ms", "lower"},
	{"core.curate_ms", "ms", "lower"},
	{"core.exec_checks_per_job", "count", "lower"},
	{"core.verifications_per_job", "count", "lower"},
	{"core.admit_ratio", "ratio", "higher"},
	{"interp.stmts_executed_per_job", "count", "lower"},
	{"interp.stmts_skipped_per_job", "count", "higher"},
	{"interp.cache_hit_ratio", "ratio", "higher"},
	{"frame.csv_read_ms", "ms", "lower"},
	{"hash.ms_p50", "ms", "lower"},
	{"hash.exec_ms_p50", "ms", "lower"},
	{"hash.csv_ms_p50", "ms", "lower"},
	{"hash.bytes_per_job", "bytes", "lower"},
	{"proc.cpu_ms_per_job", "ms", "lower"},
})

// serviceDetail are the layer metrics of the HTTP service, its durable
// store and its job queues: every workload that runs lsserved reports
// them from a traced run, batch (which bypasses all three) does not.
var serviceDetail = []Metric{
	{"serve.submit_ms_p50", "ms", "lower"},
	{"serve.poll_ms_p50", "ms", "lower"},
	{"serve.polls_per_job", "count", "lower"},
	{"serve.nonsearch_ms_p50", "ms", "lower"},
	{"serve.nonsearch_ms_p90", "ms", "lower"},
	{"store.append_ms_p50", "ms", "lower"},
	{"store.append_ms_p90", "ms", "lower"},
	{"store.compact_ms", "ms", "lower"},
	{"store.compactions", "count", "lower"},
	{"store.snapshot_bytes", "bytes", "lower"},
	{"store.wal_bytes_per_job", "bytes", "lower"},
	{"queue.depth_mean", "count", "lower"},
	{"queue.wait_ms_mean", "ms", "lower"},
	{"queue.utilization", "ratio", "lower"},
	{"queue.rejected", "count", "lower"},
}

// openLoopDetail are the load generator's own numbers; only open-loop
// workloads have a schedule to fall behind.
var openLoopDetail = []Metric{
	{"loadgen.late_p50_ms", "ms", "lower"},
	{"loadgen.late_p90_ms", "ms", "lower"},
	{"loadgen.retries", "count", "lower"},
}

// Details lists, per workload, the layer metrics only that workload's
// topology has. A traced run prints them after the Layers metrics; they
// are not in BENCHMARK.json because the benchmark's result line carries
// only metrics every workload reports.
var Details = map[string][]Metric{
	"batch": {
		{"error_ratio", "ratio", "lower"},
		{"runtime.alloc_mb_per_job", "MB", "lower"},
		{"runtime.mallocs_per_job", "count", "lower"},
		{"runtime.gc_cycles", "count", "lower"},
		{"runtime.gc_pause_ms", "ms", "lower"},
	},
	"serve-small": concat([]Metric{{"error_ratio", "ratio", "lower"}}, serviceDetail, openLoopDetail),
	"serve-sales": concat([]Metric{{"error_ratio", "ratio", "lower"}}, serviceDetail),
	"cluster-reload": concat([]Metric{{"error_ratio", "ratio", "lower"}}, serviceDetail, openLoopDetail, []Metric{
		{"router.submit_self_ms_p50", "ms", "lower"},
		{"router.poll_self_ms_p50", "ms", "lower"},
		{"proc.router_cpu_ms_per_job", "ms", "lower"},
		{"registry.create_ms", "ms", "lower"},
		{"registry.open_ms", "ms", "lower"},
		{"registry.apply_ms_mean", "ms", "lower"},
		{"registry.reload_rpc_ms_mean", "ms", "lower"},
		{"registry.reload_ms_mean", "ms", "lower"},
		{"registry.reloads", "count", "higher"},
	}),
}

func concat(lists ...[]Metric) []Metric {
	var out []Metric
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}

// Value is one measured number with its unit, the shape of the result
// line's metrics object.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// Percentile returns the p-th percentile of samples by nearest rank. It
// refuses a percentile with fewer than ten samples beyond it, so p50
// needs 20 samples, p90 100 and p99 1000.
func Percentile(samples []float64, p float64) (float64, error) {
	n := len(samples)
	rank := int(math.Ceil(p/100*float64(n) - 1e-9))
	if rank < 1 || n-rank < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d samples", p, minBeyond, n)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// TailPercentile is the highest of the usual reporting percentiles that a
// sample of n supports under Percentile's rule; false when not even the
// median is supported.
func TailPercentile(n int) (float64, bool) {
	for _, p := range []float64{99.9, 99, 95, 90, 50} {
		rank := int(math.Ceil(p/100*float64(n) - 1e-9))
		if rank >= 1 && n-rank >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// Mean returns the arithmetic mean, 0 for no samples.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Median returns the median the way Python's statistics.median does: the
// mean of the two middle values for an even count.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) returns (the default exclusive method),
// which is how the benchmark's spread is judged.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return xs[0], xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// LittleWaitMS applies Little's law: the mean time a job waits in a queue
// whose mean length is depth, when jobs pass through at rate per second.
func LittleWaitMS(depth, rate float64) float64 {
	if rate <= 0 {
		return 0
	}
	return depth / rate * 1000
}
