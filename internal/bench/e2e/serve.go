package e2e

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"time"

	"lucidscript/internal/serve"
)

// The served workloads' shape.
const (
	// openRate is the open-loop arrival rate (jobs/s) of serve-small and
	// cluster-reload: about a fifth of what one lsserved sustains on two
	// processors, so queues stay short and the service layers' share of
	// latency is visible.
	openRate = 15.0
	// openPoll is how often an open-loop client polls an outstanding job.
	openPoll = 50 * time.Millisecond
	// salesJobsPerS sizes serve-sales: about what two closed-loop clients
	// complete per second on two processors (12 to 21 on one virtual
	// machine over a day), so the window lasts about the run length.
	salesJobsPerS = 18.0
	salesClients  = 2
	// closedPoll is the closed-loop clients' poll interval; a client only
	// submits its next job once it has seen the last one finish, so a
	// slower poll would idle the server.
	closedPoll = 10 * time.Millisecond
	// warmJobs is how many warm-up jobs per dataset run before the
	// window, so the window sees a server past its first heap growth and
	// with warm session caches, as a long-running one is.
	warmJobs = 6
	// sampleEvery is the /healthz sampling period of the queue layer.
	sampleEvery = 100 * time.Millisecond
	// stopGrace bounds a server's drain at shutdown.
	stopGrace = 30 * time.Second
	// bootTimeout bounds a server's boot to readiness.
	bootTimeout = 2 * time.Minute
)

// smallCompetitions are the five competitions whose searches take tens of
// milliseconds.
var smallCompetitions = []string{"Titanic", "House", "NLP", "Spaceship", "Medical"}

// serveSmall is the open loop against one lsserved hosting the five small
// competitions.
func (r *runner) serveSmall(ctx context.Context) (*measurement, error) {
	n := len(smallCompetitions) * int(openRate*float64(r.cfg.Seconds)/float64(len(smallCompetitions)))
	var datasets []*dataset
	for _, name := range smallCompetitions {
		d, err := prepareDataset(filepath.Join(r.work, name), name, r.cfg.Seed, n/len(smallCompetitions), warmJobs, lightMix)
		if err != nil {
			return nil, err
		}
		datasets = append(datasets, d)
	}
	specs, err := planJobs(r.rng, datasets, n)
	if err != nil {
		return nil, err
	}
	for i, due := range poissonSchedule(r.rng, n, openRate) {
		specs[i].due = due
	}
	return r.served(ctx, datasets, specs, 0)
}

// serveSales is the closed loop of two clients against one lsserved
// hosting Sales.
func (r *runner) serveSales(ctx context.Context) (*measurement, error) {
	n := int(salesJobsPerS * float64(r.cfg.Seconds))
	d, err := prepareDataset(filepath.Join(r.work, "Sales"), "Sales", r.cfg.Seed, n, warmJobs, lightMix)
	if err != nil {
		return nil, err
	}
	specs, err := planJobs(r.rng, []*dataset{d}, n)
	if err != nil {
		return nil, err
	}
	return r.served(ctx, []*dataset{d}, specs, salesClients)
}

// served runs specs against one durable lsserved: an open loop when
// clients is 0, else a closed loop of that many clients.
func (r *runner) served(ctx context.Context, datasets []*dataset, specs []jobSpec, clients int) (*measurement, error) {
	m := &measurement{}
	args := []string{"-queue-depth", strconv.Itoa(len(specs))}
	for _, d := range datasets {
		args = append(args, "-dataset", d.spec())
	}
	// boot starts the rep-th lsserved, timing it to readiness.
	boot := func(rep int) (*server, error) {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		dataDir := filepath.Join(r.work, fmt.Sprintf("jobs-%d", rep))
		settle()
		start := time.Now()
		srv, err := startServer("lsserved", filepath.Join(r.cfg.BinDir, "lsserved"), addr,
			append([]string{"-data-dir", dataDir}, args...), filepath.Join(r.work, fmt.Sprintf("lsserved-%d.log", rep)))
		if err != nil {
			return nil, err
		}
		if err := srv.waitReady(ctx, "/readyz", status200, bootTimeout); err != nil {
			srv.stop(stopGrace)
			return nil, err
		}
		m.setups = append(m.setups, time.Since(start))
		return srv, nil
	}
	// Half the set-ups run before the window, the last of them serving
	// it, and half after.
	var srv *server
	for rep := 0; rep < servedSetupReps/2; rep++ {
		if srv != nil {
			if err := srv.stop(stopGrace); err != nil {
				return nil, err
			}
		}
		var err error
		if srv, err = boot(rep); err != nil {
			return nil, err
		}
	}
	defer srv.stop(stopGrace)

	gen := &loadgen{
		client: serve.NewClient(srv.base, generatorHTTP(r.nproc)),
		tr:     r.tr, layer: "serve", poll: openPoll,
	}
	if err := gen.warmUp(ctx, datasets, r.nproc); err != nil {
		return nil, err
	}
	meta := serve.NewClient(srv.base, &http.Client{Timeout: 10 * time.Second})
	scrape, err := startScrape(ctx, []*serve.Client{meta}, []int{srv.pid()})
	if err != nil {
		return nil, err
	}
	var runs []*jobRun
	if clients == 0 {
		runs = gen.runOpen(ctx, specs)
	} else {
		gen.poll = closedPoll
		runs = gen.runClosed(ctx, specs, clients)
	}
	sc, err := scrape.finish(ctx)
	if err != nil {
		return nil, err
	}
	if err := srv.stop(stopGrace); err != nil {
		return nil, err
	}
	for rep := servedSetupReps / 2; rep < servedSetupReps; rep++ {
		s, err := boot(rep)
		if err != nil {
			return nil, err
		}
		if err := s.stop(stopGrace); err != nil {
			return nil, err
		}
	}
	r.logf("set up in %v (median of %d)", m.setup(), servedSetupReps)
	m.peakRSS, m.cpu, m.counters = sc.peakRSS, sc.cpu, sc.counters
	m.outcomes, m.window = outcomesOf(runs)
	if clients == 0 {
		m.late = lateness(runs)
	}
	r.logf("%d jobs in %v", len(m.outcomes), m.window.Round(time.Millisecond))

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
	if r.tr != nil {
		if m.detail, err = r.serviceDetail(m, runs, sc); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// outcomesOf turns the generator's runs into outcomes and returns the
// window from the first job's origin to the last finish.
func outcomesOf(runs []*jobRun) ([]outcome, time.Duration) {
	outs := make([]outcome, 0, len(runs))
	var first, last time.Time
	for _, run := range runs {
		o := outcome{
			index: run.spec.index, dataset: run.spec.ds.name, script: run.spec.script,
			origin: run.origin,
		}
		if first.IsZero() || run.origin.Before(first) {
			first = run.origin
		}
		st := run.status
		switch {
		case run.err != nil:
			o.err = run.err.Error()
		case st.State != serve.StateDone || st.Result == nil || st.FinishedAt == nil:
			o.err = fmt.Sprintf("job %s ended %s: %s", st.ID, st.State, st.Error)
		default:
			o.ok, o.res, o.version = true, st.Result, st.CorpusVersion
			o.submittedAt, o.finishedAt = st.SubmittedAt, *st.FinishedAt
			o.latencyMS = ms(o.finishedAt.Sub(run.origin))
			if o.finishedAt.After(last) {
				last = o.finishedAt
			}
		}
		outs = append(outs, o)
	}
	return outs, last.Sub(first)
}

func lateness(runs []*jobRun) []float64 {
	out := make([]float64, len(runs))
	for i, run := range runs {
		out[i] = ms(run.late)
	}
	return out
}

// scrape brackets the measured window: /metrics and /proc before and
// after, and /healthz sampled in between.
type scrape struct {
	clients []*serve.Client
	pids    []int
	before  []map[string]float64
	cpu0    time.Duration
	sampler *healthSampler
}

type scraped struct {
	counters map[string]float64
	cpu      time.Duration
	peakRSS  float64
	samples  []healthSample
	health   []*serve.HealthResponse
}

func startScrape(ctx context.Context, clients []*serve.Client, pids []int) (*scrape, error) {
	s := &scrape{clients: clients, pids: pids}
	for _, c := range clients {
		text, err := c.Metrics(ctx)
		if err != nil {
			return nil, err
		}
		vals, err := ParsePrometheus(text)
		if err != nil {
			return nil, err
		}
		s.before = append(s.before, vals)
	}
	for _, pid := range pids {
		cpu, err := procCPU(pid)
		if err != nil {
			return nil, err
		}
		s.cpu0 += cpu
	}
	s.sampler = startHealthSampler(clients, sampleEvery)
	return s, nil
}

// finish stops the sampler and takes the closing readings, summed over
// the servers.
func (s *scrape) finish(ctx context.Context) (*scraped, error) {
	out := &scraped{counters: map[string]float64{}}
	out.samples = s.sampler.finish()
	for i, c := range s.clients {
		text, err := c.Metrics(ctx)
		if err != nil {
			return nil, err
		}
		vals, err := ParsePrometheus(text)
		if err != nil {
			return nil, err
		}
		for k, v := range PromDelta(s.before[i], vals) {
			out.counters[k] += v
		}
		h, err := c.Healthz(ctx)
		if err != nil {
			return nil, err
		}
		out.health = append(out.health, h)
	}
	for _, pid := range s.pids {
		cpu, err := procCPU(pid)
		if err != nil {
			return nil, err
		}
		out.cpu += cpu
		rss, err := procPeakRSS(pid)
		if err != nil {
			return nil, err
		}
		out.peakRSS += rss
	}
	out.cpu -= s.cpu0
	return out, nil
}

// serviceDetail computes the HTTP, store and queue layers' numbers.
func (r *runner) serviceDetail(m *measurement, runs []*jobRun, sc *scraped) (map[string]float64, error) {
	var submit, poll []float64
	polls, retries := 0, 0
	for _, run := range runs {
		submit = append(submit, ms(run.submitRTT))
		for _, p := range run.polls {
			poll = append(poll, ms(p))
		}
		polls += len(run.polls)
		retries += run.attempts - 1
	}
	done := 0
	for _, o := range m.outcomes {
		if o.ok {
			done++
		}
	}
	st, err := replayStore(filepath.Join(r.work, "store-replay"), m.outcomes)
	if err != nil {
		return nil, fmt.Errorf("store replay: %w", err)
	}
	var depth, running, workers []float64
	for _, s := range sc.samples {
		depth = append(depth, float64(s.depth))
		running = append(running, float64(s.running))
		workers = append(workers, float64(s.workers))
	}
	compactions, rejected := 0.0, 0.0
	for _, h := range sc.health {
		if h.Store != nil {
			compactions += float64(h.Store.Compactions)
		}
		for _, d := range h.Datasets {
			rejected += float64(d.Rejected)
		}
	}
	d := map[string]float64{
		"serve.polls_per_job":     float64(polls) / float64(len(runs)),
		"store.compact_ms":        st.compactMS,
		"store.compactions":       compactions,
		"store.snapshot_bytes":    float64(st.snapshotBytes),
		"store.wal_bytes_per_job": float64(st.walBytes) / float64(done),
		"queue.depth_mean":        Mean(depth),
		"queue.wait_ms_mean":      LittleWaitMS(Mean(depth), float64(done)/m.window.Seconds()),
		"queue.utilization":       Mean(running) / Mean(workers),
		"queue.rejected":          rejected,
		"loadgen.retries":         float64(retries),
	}
	var errs []error
	pct := func(name string, xs []float64, p float64) {
		v, err := Percentile(xs, p)
		errs = append(errs, err)
		d[name] = v
	}
	pct("serve.submit_ms_p50", submit, 50)
	pct("serve.poll_ms_p50", poll, 50)
	pct("store.append_ms_p50", st.appendMS, 50)
	pct("store.append_ms_p90", st.appendMS, 90)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return d, nil
}
