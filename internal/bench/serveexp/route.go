package serveexp

import (
	"context"
	"fmt"
	"net/http/httptest"
	"time"

	"lucidscript"
	"lucidscript/internal/bench"
	"lucidscript/internal/router"
	"lucidscript/internal/serve"
)

// routeReplicas is the fronted cluster size of the "route" experiment —
// the three-replica quickstart topology from the README.
const routeReplicas = 3

// Route measures what fronting the standardization service with lsrouter
// costs relative to addressing a single replica directly: the same jobs
// run through a serve.Server hit straight on (the "served" arm) and
// through a router.Router fronting routeReplicas identically-curated
// replicas (the "routed" arm). The gap is the routing tax — the extra
// proxy hop, the ring lookup, and the job-id namespacing — and the
// regression gate watches it via BENCH_route.json.
func Route(opts bench.Options) (*bench.Table, error) {
	records, table, err := routeRecords(opts)
	if err != nil {
		return nil, err
	}
	return table, opts.WriteRecords(records)
}

// routeRecords runs the route experiment and returns the per-dataset
// records alongside the rendered table, without touching Options.JSONPath.
func routeRecords(opts bench.Options) ([]bench.Record, *bench.Table, error) {
	opts, workers := setup(opts)
	table := &bench.Table{
		Title:  fmt.Sprintf("lsrouter-fronted cluster (%d replicas) vs a single directly-addressed replica", routeReplicas),
		Header: []string{"dataset", "jobs", "replicas", "served", "routed", "overhead", "per-job"},
	}
	var records []bench.Record
	for _, name := range opts.Datasets {
		gen, err := opts.GenerateDataset(name)
		if err != nil {
			return nil, nil, err
		}
		jobs := gen.Sample(opts.ScriptsPerDataset, opts.Seed+17)
		lsOpts := systemOptions(opts, workers)
		newServer := func() (*serve.Server, *httptest.Server, error) {
			sys, err := lucidscript.NewSystem(gen.ScriptsOnly(), gen.Sources, lsOpts)
			if err != nil {
				return nil, nil, fmt.Errorf("bench: %s: %w", name, err)
			}
			srv, err := serve.NewServer(map[string]*lucidscript.System{name: sys},
				serve.Config{Workers: workers, QueueDepth: len(jobs)})
			if err != nil {
				return nil, nil, fmt.Errorf("bench: %s: %w", name, err)
			}
			return srv, httptest.NewServer(srv.Handler()), nil
		}

		// The served arm: one replica, addressed directly.
		directSrv, directHS, err := newServer()
		if err != nil {
			return nil, nil, err
		}
		directClient := serve.NewClient(directHS.URL, directHS.Client())

		// The routed arm: routeReplicas identical replicas behind a router.
		// Every replica hosts the dataset, the ring picks the owner — the
		// same topology lsrouter runs in production, minus the network.
		var replicaSrvs []*serve.Server
		var replicaHSs []*httptest.Server
		var cfg router.Config
		for i := 0; i < routeReplicas; i++ {
			srv, hs, err := newServer()
			if err != nil {
				return nil, nil, err
			}
			replicaSrvs = append(replicaSrvs, srv)
			replicaHSs = append(replicaHSs, hs)
			cfg.Replicas = append(cfg.Replicas, router.Replica{
				Name: fmt.Sprintf("r%d", i+1), BaseURL: hs.URL,
			})
		}
		cfg.Rise, cfg.Fall = 1, 1
		rt, err := router.New(cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("bench: %s: %w", name, err)
		}
		ctx := context.Background()
		rt.ProbeAll(ctx)
		routerHS := httptest.NewServer(rt.Handler())
		routedClient := serve.NewClient(routerHS.URL, routerHS.Client())

		// Interleaved reps, best per arm — same protocol as the serve
		// experiment, so the two overhead numbers compose.
		var servedDur, routedDur time.Duration
		servedOut := make([]string, len(jobs))
		routedOut := make([]string, len(jobs))
		for r := 0; r < reps; r++ {
			d, err := runServed(ctx, directClient, name, jobs, servedOut)
			if err != nil {
				return nil, nil, err
			}
			if r == 0 || d < servedDur {
				servedDur = d
			}
			d, err = runServed(ctx, routedClient, name, jobs, routedOut)
			if err != nil {
				return nil, nil, err
			}
			if r == 0 || d < routedDur {
				routedDur = d
			}
		}

		routerHS.Close()
		directHS.Close()
		if err := directSrv.Shutdown(ctx); err != nil {
			return nil, nil, fmt.Errorf("bench: %s shutdown: %w", name, err)
		}
		for i, hs := range replicaHSs {
			hs.Close()
			if err := replicaSrvs[i].Shutdown(ctx); err != nil {
				return nil, nil, fmt.Errorf("bench: %s replica shutdown: %w", name, err)
			}
		}
		if err := sameOutputs(name, servedOut, routedOut); err != nil {
			return nil, nil, err
		}

		rec, row := overheadRecord("route", name, len(jobs), routeReplicas,
			"served_ms", servedDur, "routed_ms", routedDur)
		rec.Details["replicas"] = routeReplicas
		rec.Details["workers"] = float64(workers)
		records = append(records, rec)
		table.Rows = append(table.Rows, row)
		opts.Logf("%s: %d jobs, served %s vs routed %s (+%.1f%%)", name, len(jobs),
			servedDur.Round(time.Millisecond), routedDur.Round(time.Millisecond), rec.Details["overhead_pct"])
	}
	return records, table, nil
}
