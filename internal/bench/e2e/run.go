package e2e

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// Workloads names the benchmark's workloads in the order -workload all
// runs them.
var Workloads = []string{"batch", "serve-small", "serve-sales", "cluster-reload"}

// Config selects and sizes one workload run.
type Config struct {
	// Workload is one of Workloads.
	Workload string
	// Seed drives the data values, served job order, arrival times and
	// churn.
	Seed int64
	// Seconds sizes the measured window.
	Seconds int
	// Trace makes the run report per-layer metrics instead of end-to-end
	// ones; TracePath, when set, also receives the spans and the per-job
	// timeline as JSON lines.
	Trace     bool
	TracePath string
	// BinDir holds the lsserved and lsrouter binaries.
	BinDir string
	// WorkDir is where the run's inputs and server state live; the run
	// makes its own directory inside it and removes it at the end.
	WorkDir string
	// Log receives progress lines; nil discards them.
	Log io.Writer
}

// Result is one workload run's report.
type Result struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	// Correct is the correctness check's verdict.
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	// Metrics holds every EndToEnd metric (untraced) or every Layers
	// metric (traced); Detail the Latencies (untraced) or the workload's
	// Details (traced).
	Metrics map[string]Value `json:"metrics"`
	Detail  map[string]Value `json:"detail,omitempty"`
	// LayerMS is the traced run's per-layer table: milliseconds per job
	// spent in each layer (self time of the harness's spans, plus the
	// server-reported search and non-search time).
	LayerMS map[string]float64 `json:"layer_ms_per_job,omitempty"`
	// OutputDigest hashes every finished job's output hash in job order.
	OutputDigest string `json:"output_digest"`
	// Invalid says why the run does not count ("" when it does).
	Invalid string `json:"invalid,omitempty"`
}

// MinSeconds is the shortest run length whose job counts support every
// reported percentile on every workload (p90 needs 100 jobs).
const MinSeconds = 7

// maxLateP50 is the generator lateness above which an open-loop run is
// invalid: the schedule, not the system, would be setting the latency.
const maxLateP50 = 5 * time.Millisecond

// slo is the latency limit of slo_ok_ratio on every workload. It lies in
// the upper tail of each workload's latencies, where jobs sit on both
// sides of it, so the ratio follows the tail rather than counting only
// the few jobs that take seconds.
const slo = 250 * time.Millisecond

// A run sets its workload up several times and setup_s is the median. A
// cheap set-up repeats more often, because its time is short and noisy.
// batch and the single lsserved set up half their times before the
// measured window, the last of those serving it, and half after: the
// host's speed drifts over seconds, and samples taken at two moments
// keep one slow stretch from setting the median. The cluster sets up
// before the window only, since its set-up is long enough to span such a
// stretch and the window churns its corpora.
const (
	batchSetupReps   = 20
	servedSetupReps  = 16
	clusterSetupReps = 5
)

// settle collects lsperf's garbage and returns the freed memory to the
// operating system before a set-up or a window is timed, so that every
// repetition starts from the same heap and neither a collection of
// earlier garbage nor the runtime's background release of it runs beside
// the timed work.
func settle() { debug.FreeOSMemory() }

// runner carries one run's state across its phases.
type runner struct {
	cfg   Config
	work  string
	rng   *rand.Rand
	tr    *Tracer
	nproc int
}

func (r *runner) logf(format string, args ...any) {
	if r.cfg.Log != nil {
		fmt.Fprintf(r.cfg.Log, "lsperf: %s: "+format+"\n", append([]any{r.cfg.Workload}, args...)...)
	}
}

// Run executes one workload and reports it. An error means the run could
// not complete; a completed run that fails its validity rules comes back
// with Result.Invalid set.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Seconds < MinSeconds {
		return nil, fmt.Errorf("seconds must be at least %d", MinSeconds)
	}
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(cfg.WorkDir, "run-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	r := &runner{cfg: cfg, work: work, rng: rand.New(rand.NewSource(cfg.Seed)), nproc: runtime.GOMAXPROCS(0)}
	if cfg.Trace {
		r.tr = &Tracer{}
	}
	var m *measurement
	switch cfg.Workload {
	case "batch":
		m, err = r.batch(ctx)
	case "serve-small":
		m, err = r.serveSmall(ctx)
	case "serve-sales":
		m, err = r.serveSales(ctx)
	case "cluster-reload":
		m, err = r.clusterReload(ctx)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.Workload, Workloads)
	}
	if err != nil {
		return nil, err
	}
	return r.report(m)
}

// measurement is what a workload hands back for reporting.
type measurement struct {
	setups   []time.Duration
	peakRSS  float64
	window   time.Duration
	outcomes []outcome
	// counters are the search's obs counters accumulated over the window.
	counters map[string]float64
	// cpu is the CPU time the working processes used over the window.
	cpu   time.Duration
	check checkResult
	// csvReadMS is the time lsperf's own reads of the workload's CSV
	// files took.
	csvReadMS float64
	// late holds the open-loop generator's lateness per job.
	late   []float64
	detail map[string]float64
}

// setup is the median set-up time.
func (m *measurement) setup() time.Duration {
	secs := make([]float64, len(m.setups))
	for i, d := range m.setups {
		secs[i] = d.Seconds()
	}
	return time.Duration(Median(secs) * float64(time.Second))
}

// report turns a measurement into the run's Result.
func (r *runner) report(m *measurement) (*Result, error) {
	res := &Result{
		Workload: r.cfg.Workload, Seed: r.cfg.Seed, Trace: r.cfg.Trace,
		Correct: m.check.correct, Attempted: len(m.outcomes), OutputDigest: m.check.digest,
	}
	if res.Attempted == 0 {
		return nil, errors.New("no job was attempted")
	}
	var lat, search, steps, topk, checks, verify, curate, nonsearch []float64
	impr := 0.0
	withinSLO := 0
	for _, o := range m.outcomes {
		if !o.ok {
			res.Failed++
			continue
		}
		lat = append(lat, o.latencyMS)
		if o.latencyMS <= ms(slo) {
			withinSLO++
		}
		impr += o.res.ImprovementPct
		t := o.res.Timings
		search = append(search, t.TotalMS)
		steps = append(steps, t.StepsMS)
		topk = append(topk, t.TopKMS)
		checks = append(checks, t.CheckMS)
		verify = append(verify, t.VerifyMS)
		curate = append(curate, t.CurateMS)
		if !o.finishedAt.IsZero() {
			nonsearch = append(nonsearch, o.nonsearchMS())
		}
	}
	done := len(lat)
	if done == 0 {
		return nil, fmt.Errorf("all %d jobs failed; first: %s", res.Attempted, firstError(m.outcomes))
	}
	tail, _ := TailPercentile(done)
	r.logf("%d of %d jobs finished, %d recomputed by the correctness check; the latencies support percentiles up to p%g",
		done, res.Attempted, m.check.checked, tail)
	perJob := func(name string) float64 { return m.counters[name] / float64(done) }
	ratio := func(a, b string) float64 {
		if den := m.counters[a] + m.counters[b]; den > 0 {
			return m.counters[a] / den
		}
		return 0
	}
	p50, err1 := Percentile(lat, 50)
	p90, err2 := Percentile(lat, 90)
	if err := errors.Join(err1, err2); err != nil {
		return nil, fmt.Errorf("latency: %w", err)
	}
	var err error
	if !r.cfg.Trace {
		res.Metrics, err = values(EndToEnd, map[string]float64{
			"setup_s":            m.setup().Seconds(),
			"jobs_per_s":         float64(done) / m.window.Seconds(),
			"slo_ok_ratio":       float64(withinSLO) / float64(res.Attempted),
			"peak_rss_mb":        m.peakRSS,
			"re_improvement_pct": impr / float64(done),
		})
		if err != nil {
			return nil, err
		}
		if res.Detail, err = values(Latencies, map[string]float64{"latency_p50_ms": p50, "latency_p90_ms": p90}); err != nil {
			return nil, err
		}
	} else {
		sp50, err1 := Percentile(search, 50)
		sp90, err2 := Percentile(search, 90)
		if err := errors.Join(err1, err2); err != nil {
			return nil, fmt.Errorf("search time: %w", err)
		}
		hp50, err1 := Percentile(m.check.hashMS, 50)
		hexec, err2 := Percentile(m.check.execMS, 50)
		hcsv, err3 := Percentile(m.check.csvMS, 50)
		if err := errors.Join(err1, err2, err3); err != nil {
			return nil, fmt.Errorf("hash time: %w", err)
		}
		res.Metrics, err = values(Layers, map[string]float64{
			"latency_p50_ms":                  p50,
			"latency_p90_ms":                  p90,
			"core.search_ms_p50":              sp50,
			"core.search_ms_p90":              sp90,
			"core.get_steps_ms_mean":          Mean(steps),
			"core.top_k_beams_ms_mean":        Mean(topk),
			"core.check_executes_ms_mean":     Mean(checks),
			"core.verify_constraints_ms_mean": Mean(verify),
			"core.curate_ms":                  Mean(curate),
			"core.exec_checks_per_job":        perJob("exec_checks_total"),
			"core.verifications_per_job":      perJob("verifications_total"),
			"core.admit_ratio":                ratio("candidates_admitted_total", "candidates_pruned_total"),
			"interp.stmts_executed_per_job":   perJob("statements_executed_total"),
			"interp.stmts_skipped_per_job":    perJob("statements_skipped_total"),
			"interp.cache_hit_ratio":          ratio("exec_cache_hits_total", "exec_cache_misses_total"),
			"frame.csv_read_ms":               m.csvReadMS,
			"hash.ms_p50":                     hp50,
			"hash.exec_ms_p50":                hexec,
			"hash.csv_ms_p50":                 hcsv,
			"hash.bytes_per_job":              Mean(m.check.bytes),
			"proc.cpu_ms_per_job":             ms(m.cpu) / float64(done),
		})
		if err != nil {
			return nil, err
		}
		detail := map[string]float64{"error_ratio": float64(res.Failed) / float64(res.Attempted)}
		for k, v := range m.detail {
			detail[k] = v
		}
		if len(nonsearch) > 0 {
			p50, err1 := Percentile(nonsearch, 50)
			p90, err2 := Percentile(nonsearch, 90)
			if err := errors.Join(err1, err2); err != nil {
				return nil, fmt.Errorf("non-search time: %w", err)
			}
			detail["serve.nonsearch_ms_p50"], detail["serve.nonsearch_ms_p90"] = p50, p90
		}
		if len(m.late) > 0 {
			p50, err1 := Percentile(m.late, 50)
			p90, err2 := Percentile(m.late, 90)
			if err := errors.Join(err1, err2); err != nil {
				return nil, fmt.Errorf("generator lateness: %w", err)
			}
			detail["loadgen.late_p50_ms"], detail["loadgen.late_p90_ms"] = p50, p90
		}
		if res.Detail, err = values(Details[r.cfg.Workload], detail); err != nil {
			return nil, err
		}
		res.LayerMS = LayerSelfMS(r.tr.Spans(), done)
		res.LayerMS["core(search)"] = Mean(search)
		if len(nonsearch) > 0 {
			res.LayerMS["serve(non-search)"] = Mean(nonsearch)
		}
		if r.cfg.TracePath != "" {
			if err := WriteTrace(r.cfg.TracePath, r.tr.Spans(), timeline(m.outcomes)); err != nil {
				return nil, err
			}
		}
	}
	var invalid []string
	if len(m.late) > 0 {
		if late, err := Percentile(m.late, 50); err == nil && late > ms(maxLateP50) {
			invalid = append(invalid, fmt.Sprintf("the generator ran %.2f ms late at p50 (limit %v)", late, maxLateP50))
		}
	}
	// Throughput and latency count finished jobs only, so a run that loses
	// jobs could read faster than one that finishes them all.
	if res.Failed > 0 {
		invalid = append(invalid, fmt.Sprintf("%d of %d jobs failed; first: %s", res.Failed, res.Attempted, firstError(m.outcomes)))
	}
	if !res.Correct {
		invalid = append(invalid, "correctness check failed: "+m.check.problems[0])
	}
	res.Invalid = strings.Join(invalid, "; ")
	return res, nil
}

// values keeps exactly the listed metrics, in a map keyed by name.
func values(list []Metric, got map[string]float64) (map[string]Value, error) {
	out := make(map[string]Value, len(list))
	for _, m := range list {
		v, ok := got[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		out[m.Name] = Value{Value: v, Unit: m.Unit}
	}
	return out, nil
}

func firstError(outs []outcome) string {
	for _, o := range outs {
		if o.err != "" {
			return o.err
		}
	}
	return "unknown"
}

// timeline renders the outcomes as per-job timeline records.
func timeline(outs []outcome) []JobTimeline {
	out := make([]JobTimeline, 0, len(outs))
	for _, o := range outs {
		t := JobTimeline{
			Job: o.index, Dataset: o.dataset, Origin: o.origin,
			SubmittedAt: o.submittedAt, FinishedAt: o.finishedAt, LatencyMS: o.latencyMS,
			CorpusVersion: o.version, Error: o.err,
		}
		if o.res != nil {
			tm := o.res.Timings
			t.TimingsMS = map[string]float64{
				"curate": tm.CurateMS, "get_steps": tm.StepsMS, "top_k_beams": tm.TopKMS,
				"check_executes": tm.CheckMS, "verify_constraints": tm.VerifyMS, "total": tm.TotalMS,
			}
		}
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Job < out[j].Job })
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
