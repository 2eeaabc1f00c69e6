package e2e

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"lucidscript"
	"lucidscript/internal/corpusgen"
	"lucidscript/internal/serve"
)

// Batch sizing: jobs per dataset per second of run length, so the window
// lasts about the run length on two processors (the whole mix ran at 16
// to 27 jobs/s on one virtual machine over a day). Sales jobs search a
// 15k-row table and take about ten times as long as the small
// competitions'; the counts give Sales about 70% of the wall time.
const (
	batchSmallJobsPerS = 3.6
	batchSalesJobsPerS = 1.5
)

// batch is the in-process workload: every competition's jobs go through
// System.StandardizeBatch, with inputs read from CSV and .ls files as
// lsstd reads them.
func (r *runner) batch(ctx context.Context) (*measurement, error) {
	var datasets []*dataset
	for _, name := range corpusgen.Names() {
		perS := batchSmallJobsPerS
		if name == "Sales" {
			perS = batchSalesJobsPerS
		}
		n := int(math.Ceil(perS * float64(r.cfg.Seconds)))
		d, err := prepareDataset(filepath.Join(r.work, name), name, r.cfg.Seed, n, 0, mix{})
		if err != nil {
			return nil, err
		}
		datasets = append(datasets, d)
	}

	m := &measurement{}
	metrics := lucidscript.NewMetrics()
	opts := serverOptions()
	opts.BatchWorkers = r.nproc
	opts.Metrics = metrics
	var systems []*lucidscript.System
	// setUp builds every dataset's System, timing it; half the set-ups run
	// before the window, the last of them serving it, and half after.
	setUp := func() error {
		systems = nil
		settle()
		start := time.Now()
		for _, d := range datasets {
			sys, _, _, err := buildSystem(d, opts)
			if err != nil {
				return err
			}
			systems = append(systems, sys)
		}
		m.setups = append(m.setups, time.Since(start))
		return nil
	}
	for rep := 0; rep < batchSetupReps/2; rep++ {
		if err := setUp(); err != nil {
			return nil, err
		}
	}

	// Each dataset's jobs run as one batch in the pool's fixed order, not a
	// seeded one: a batch lasts until its slowest worker finishes, so where
	// a Sales job of up to 3 s falls in a 13 s window would set how long the
	// other worker idles.
	scripts := make([][]*lucidscript.Script, len(datasets))
	for i, d := range datasets {
		for _, src := range d.pool {
			sc, err := lucidscript.ParseScript(src)
			if err != nil {
				return nil, err
			}
			scripts[i] = append(scripts[i], sc)
		}
	}

	before := counterValues(metrics)
	var ru0, ru1 syscall.Rusage
	var ms0, ms1 runtime.MemStats
	settle()
	runtime.ReadMemStats(&ms0)
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru0); err != nil {
		return nil, err
	}
	first := 0
	for i, d := range datasets {
		start := time.Now()
		results, err := systems[i].StandardizeBatchContext(ctx, scripts[i])
		end := time.Now()
		m.window += end.Sub(start)
		r.tr.Record(Span{Name: "core.batch", Job: -1, Key: d.name, Start: start, End: end})
		var batchErr *lucidscript.BatchError
		if err != nil && !errors.As(err, &batchErr) {
			return nil, fmt.Errorf("batch %s: %w", d.name, err)
		}
		for j, res := range results {
			o := outcome{index: first + j, dataset: d.name, script: d.pool[j], ok: res != nil, origin: start}
			if batchErr != nil && batchErr.Errs[j] != nil {
				o.ok, o.err = false, batchErr.Errs[j].Error()
			}
			if o.ok {
				o.res = wireResult(res)
				o.latencyMS = ms(res.Timings.Total)
			}
			m.outcomes = append(m.outcomes, o)
		}
		first += len(d.pool)
	}
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru1); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	m.counters = deltaValues(before, counterValues(metrics))
	m.cpu = rusageCPU(ru1) - rusageCPU(ru0)
	peak, err := procPeakRSS(syscall.Getpid())
	if err != nil {
		return nil, err
	}
	m.peakRSS = peak
	r.logf("%d jobs in %v", len(m.outcomes), m.window.Round(time.Millisecond))
	for rep := batchSetupReps / 2; rep < batchSetupReps; rep++ {
		if err := setUp(); err != nil {
			return nil, err
		}
	}
	r.logf("set up in %v (median of %d)", m.setup(), batchSetupReps)

	o := newOracle()
	for _, d := range datasets {
		if err := o.addCurated(d); err != nil {
			return nil, err
		}
	}
	m.csvReadMS = o.csvReadMS
	if m.check, err = o.check(ctx, m.outcomes); err != nil {
		return nil, err
	}
	done := float64(len(m.outcomes))
	m.detail = map[string]float64{
		"runtime.alloc_mb_per_job": float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20) / done,
		"runtime.mallocs_per_job":  float64(ms1.Mallocs-ms0.Mallocs) / done,
		"runtime.gc_cycles":        float64(ms1.NumGC - ms0.NumGC),
		"runtime.gc_pause_ms":      ms(time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)),
	}
	return m, nil
}

// wireResult maps a library result onto the served result shape, so both
// paths are reported by the same code.
func wireResult(res *lucidscript.Result) *serve.JobResult {
	t := res.Timings
	return &serve.JobResult{
		Script:         res.Script.Source(),
		REBefore:       res.REBefore,
		REAfter:        res.REAfter,
		ImprovementPct: res.ImprovementPct,
		IntentValue:    res.IntentValue,
		Timings: serve.JobTimings{
			CurateMS: ms(t.CurateSearchSpace), StepsMS: ms(t.GetSteps), TopKMS: ms(t.GetTopKBeams),
			CheckMS: ms(t.CheckIfExecutes), VerifyMS: ms(t.VerifyConstraints), TotalMS: ms(t.Total),
		},
	}
}

// counterValues snapshots an in-process metrics registry.
func counterValues(m *lucidscript.Metrics) map[string]float64 {
	out := map[string]float64{}
	for _, name := range m.Names() {
		out[name] = float64(m.Value(name))
	}
	return out
}

func deltaValues(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

func rusageCPU(ru syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
