// Package serveexp implements the benchmark experiments that drive the
// HTTP service: "serve" (the service versus direct in-process batch calls
// on the same jobs), "route" (lsrouter in front of replicas versus one
// replica), and "regress" (the replay the perf gate reads). It lives
// outside internal/bench because it needs the facade package (lucidscript)
// and internal/serve, and bench itself is imported by the root package's
// tests — importing the facade from bench would be an import cycle.
// cmd/lsbench lists these next to bench.Experiments.
package serveexp

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"lucidscript"
	"lucidscript/internal/bench"
	"lucidscript/internal/serve"
)

// Experiments returns this package's experiments; regress comes last so
// `lsbench -exp all` ends with the replay.
func Experiments() []bench.Experiment {
	return []bench.Experiment{
		{ID: "serve", Paper: "(extra)", Description: "HTTP standardization service vs direct library calls", Run: Serve, Records: true},
		{ID: "route", Paper: "(extra)", Description: "lsrouter-fronted cluster vs a single directly-addressed replica", Run: Route, Records: true},
		{ID: "regress", Paper: "(extra)", Description: "perf-regression replay of batch+serve+route+curate (gate it with benchgate)", Run: Regress, Records: true},
	}
}

// Serve measures what serving standardization over HTTP costs relative to
// calling the library directly. Each arm gets its own identically-built
// System with a long-lived job queue — curation paid outside the timed
// region and the execution-prefix cache persistent across reps, mirroring a
// long-lived deployment on both sides — so the comparison isolates the
// transport, marshalling, and polling overhead (JSON, HTTP round trips,
// queue admission, status polling), not the search or cache warmth.
func Serve(opts bench.Options) (*bench.Table, error) {
	records, table, err := serveRecords(opts)
	if err != nil {
		return nil, err
	}
	return table, opts.WriteRecords(records)
}

// serveRecords runs the serve experiment and returns the per-dataset
// records alongside the rendered table, without touching Options.JSONPath.
func serveRecords(opts bench.Options) ([]bench.Record, *bench.Table, error) {
	opts, workers := setup(opts)
	table := &bench.Table{
		Title:  "HTTP service vs direct library calls (same jobs, one long-lived curated System per arm)",
		Header: []string{"dataset", "jobs", "workers", "direct", "served", "overhead", "per-job"},
	}
	var records []bench.Record
	for _, name := range opts.Datasets {
		gen, err := opts.GenerateDataset(name)
		if err != nil {
			return nil, nil, err
		}
		jobs := gen.Sample(opts.ScriptsPerDataset, opts.Seed+17)
		lsOpts := systemOptions(opts, workers)
		sysDirect, err := lucidscript.NewSystem(gen.ScriptsOnly(), gen.Sources, lsOpts)
		if err != nil {
			return nil, nil, fmt.Errorf("bench: %s: %w", name, err)
		}
		sysServed, err := lucidscript.NewSystem(gen.ScriptsOnly(), gen.Sources, lsOpts)
		if err != nil {
			return nil, nil, fmt.Errorf("bench: %s: %w", name, err)
		}
		directQueue := sysDirect.NewJobQueue(workers, len(jobs))
		// The served arm runs durable — every job rides through the
		// write-ahead log exactly as a production -data-dir deployment —
		// so the measured service tax includes the persistence cost and
		// the regression gate would catch a WAL slowdown.
		dataDir, err := os.MkdirTemp("", "lsbench-serve-*")
		if err != nil {
			return nil, nil, err
		}
		srv, err := serve.NewServer(map[string]*lucidscript.System{name: sysServed},
			serve.Config{Workers: workers, QueueDepth: len(jobs), DataDir: dataDir})
		if err != nil {
			os.RemoveAll(dataDir)
			return nil, nil, fmt.Errorf("bench: %s: %w", name, err)
		}
		hs := httptest.NewServer(srv.Handler())
		client := serve.NewClient(hs.URL, hs.Client())
		ctx := context.Background()

		// The arms run interleaved (direct rep, then served rep) so machine
		// drift hits both equally, and the best rep per arm is recorded so
		// one scheduler hiccup does not decide the comparison.
		var directDur, servedDur time.Duration
		directOut := make([]string, len(jobs))
		servedOut := make([]string, len(jobs))
		for r := 0; r < reps; r++ {
			runtime.GC()
			directStart := time.Now()
			handles := make([]*lucidscript.QueuedJob, len(jobs))
			for i, su := range jobs {
				h, err := directQueue.Submit(ctx, su)
				if err != nil {
					return nil, nil, fmt.Errorf("bench: %s direct submit %d: %w", name, i, err)
				}
				handles[i] = h
			}
			for i, h := range handles {
				res, err := h.Wait(ctx)
				if err != nil {
					return nil, nil, fmt.Errorf("bench: %s direct job %d: %w", name, i, err)
				}
				directOut[i] = res.Script.Source()
			}
			if d := time.Since(directStart); r == 0 || d < directDur {
				directDur = d
			}

			d, err := runServed(ctx, client, name, jobs, servedOut)
			if err != nil {
				return nil, nil, err
			}
			if r == 0 || d < servedDur {
				servedDur = d
			}
			if err := sameOutputs(name, directOut, servedOut); err != nil {
				return nil, nil, err
			}
		}
		hs.Close()
		directQueue.Close()
		err = srv.Shutdown(ctx)
		os.RemoveAll(dataDir)
		if err != nil {
			return nil, nil, fmt.Errorf("bench: %s shutdown: %w", name, err)
		}

		rec, row := overheadRecord("serve", name, len(jobs), workers,
			"direct_ms", directDur, "served_ms", servedDur)
		rec.Details["workers"] = float64(workers)
		records = append(records, rec)
		table.Rows = append(table.Rows, row)
		opts.Logf("%s: %d jobs, direct %s vs served %s (+%.1f%%)", name, len(jobs),
			directDur.Round(time.Millisecond), servedDur.Round(time.Millisecond), rec.Details["overhead_pct"])
	}
	return records, table, nil
}

// reps is how many times each arm of the serve and route experiments runs;
// the best rep is recorded.
const reps = 3

// setup fills in the option defaults and resolves the worker count both
// service experiments run with.
func setup(opts bench.Options) (bench.Options, int) {
	opts = opts.WithDefaults()
	workers := opts.BatchWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return opts, workers
}

// systemOptions is the facade configuration of every System the service
// experiments build.
func systemOptions(opts bench.Options, workers int) lucidscript.Options {
	return lucidscript.Options{
		Seed:         opts.Seed,
		SeqLength:    opts.SeqLength,
		BeamSize:     opts.BeamSize,
		Measure:      lucidscript.IntentMeasure("jaccard"),
		Tau:          0.8,
		BatchWorkers: workers,
	}
}

// runServed submits every job through client, waits for all of them, and
// stores each standardized script in out. It returns the wall clock of the
// whole round, collecting garbage before the clock starts.
func runServed(ctx context.Context, client *serve.Client, dataset string, jobs []*lucidscript.Script, out []string) (time.Duration, error) {
	runtime.GC()
	start := time.Now()
	ids := make([]string, len(jobs))
	for i, su := range jobs {
		st, err := client.Submit(ctx, dataset, su.Source(), nil)
		if err != nil {
			return 0, fmt.Errorf("bench: %s submit %d: %w", dataset, i, err)
		}
		ids[i] = st.ID
	}
	for i, id := range ids {
		st, err := client.Wait(ctx, id, 2*time.Millisecond)
		if err != nil {
			return 0, fmt.Errorf("bench: %s wait %d: %w", dataset, i, err)
		}
		if st.State != serve.StateDone {
			return 0, fmt.Errorf("bench: %s job %d: state %s (%s)", dataset, i, st.State, st.Error)
		}
		out[i] = st.Result.Script
	}
	return time.Since(start), nil
}

// sameOutputs fails unless both arms standardized every job identically.
func sameOutputs(dataset string, want, got []string) error {
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("bench: %s output of job %d diverges between the arms", dataset, i)
		}
	}
	return nil
}

// overheadRecord builds one dataset's record and table row: the reference
// arm against the measured arm, whose extra wall clock is the overhead.
// column is the table's third column (workers or replicas).
func overheadRecord(exp, key string, jobs, column int, refMetric string, ref time.Duration, metric string, measured time.Duration) (bench.Record, []string) {
	rec := bench.Record{
		Experiment: exp, Key: key,
		Metrics: map[string]float64{refMetric: ms(ref), metric: ms(measured)},
		// per_job_overhead_ms can be negative, so it is never ratio-gated.
		Details: map[string]float64{
			"jobs": float64(jobs), "reps": reps,
			"overhead_pct":        100 * (float64(measured) - float64(ref)) / float64(ref),
			"per_job_overhead_ms": ms(measured-ref) / float64(jobs),
		},
		Identical: true,
	}
	return rec, []string{
		key,
		fmt.Sprintf("%d", jobs),
		fmt.Sprintf("%d", column),
		fmt.Sprintf("%.0fms", ms(ref)),
		fmt.Sprintf("%.0fms", ms(measured)),
		fmt.Sprintf("%.1f%%", rec.Details["overhead_pct"]),
		fmt.Sprintf("%.2fms", rec.Details["per_job_overhead_ms"]),
	}
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }
