package e2e

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"lucidscript/internal/corpusgen"
	"lucidscript/internal/registry"
	"lucidscript/internal/router"
	"lucidscript/internal/serve"
)

// The cluster-reload workload's shape.
const (
	// clusterScaled is how many generated scripts join each paper corpus,
	// so GetSteps ranks over a large vocabulary.
	clusterScaled = 2000
	// churnShare of a corpus is removed, and as many new scripts added, at
	// every churn event.
	churnShare = 0.01
	// churnEvery is the period of churn events; each one goes to the next
	// dataset in turn.
	churnEvery = 2 * time.Second
	// adminToken authorizes the harness's reload calls.
	adminToken = "lsperf"
	// serverRetryAfter is the servers' Retry-After hint; a swap-race 503
	// is retried after it, so it is kept short.
	serverRetryAfter = "100ms"
)

// replicaNames picks two replica names the router's ring splits the
// datasets between three and two: neither replica idles, and neither
// holds everything.
func replicaNames(datasets []*dataset) ([2]string, error) {
	for a := 1; a <= 9; a++ {
		for b := a + 1; b <= 9; b++ {
			names := [2]string{fmt.Sprintf("r%d", a), fmt.Sprintf("r%d", b)}
			ring := router.NewRing(names[:])
			count := 0
			for _, d := range datasets {
				if owner, _ := ring.Owner(d.name); owner == names[0] {
					count++
				}
			}
			if count == 2 || count == 3 {
				return names, nil
			}
		}
	}
	return [2]string{}, fmt.Errorf("no replica name pair splits the datasets 3/2")
}

// clusterCorpus is one dataset's corpus registry and the membership the
// harness keeps in step with it.
type clusterCorpus struct {
	d *dataset
	// members is the live membership in registry order; adds are the
	// scripts churn events add, in order.
	members []registry.Script
	adds    []registry.Script
	reg     *registry.Registry
	dir     string
}

// clusterReload is the open loop through lsrouter fronting two lsserved
// replicas that warm-boot from a shared corpus registry, while the
// harness churns the registry and hot-reloads the replicas.
func (r *runner) clusterReload(ctx context.Context) (*measurement, error) {
	n := len(smallCompetitions) * int(openRate*float64(r.cfg.Seconds)/float64(len(smallCompetitions)))
	events := int(time.Duration(float64(n)/openRate*float64(time.Second)) / churnEvery)
	var corpora []*clusterCorpus
	var datasets []*dataset
	for _, name := range smallCompetitions {
		d, err := prepareDataset(filepath.Join(r.work, name), name, r.cfg.Seed, n/len(smallCompetitions), warmJobs, lightMix)
		if err != nil {
			return nil, err
		}
		churn := int(churnShare*float64(len(d.corpus)+clusterScaled) + 0.5)
		scaled, err := d.comp.GenerateScaled(corpusgen.ScaleConfig{Seed: corpusSeed, NumScripts: clusterScaled + churn*(events+1)})
		if err != nil {
			return nil, err
		}
		cc := &clusterCorpus{d: d, members: append([]registry.Script(nil), d.corpus...)}
		for i, gs := range scaled {
			s := registry.Script{ID: d.comp.ScaledID(i), Source: gs.Script.Source()}
			if i < clusterScaled {
				cc.members = append(cc.members, s)
			} else {
				cc.adds = append(cc.adds, s)
			}
		}
		corpora = append(corpora, cc)
		datasets = append(datasets, d)
	}
	specs, err := planJobs(r.rng, datasets, n)
	if err != nil {
		return nil, err
	}
	for i, due := range poissonSchedule(r.rng, n, openRate) {
		specs[i].due = due
	}
	churnRng := rand.New(rand.NewSource(r.rng.Int63()))

	names, err := replicaNames(datasets)
	if err != nil {
		return nil, err
	}
	var addrs [3]string
	for i := range addrs {
		if addrs[i], err = freeAddr(); err != nil {
			return nil, err
		}
	}
	// A traced run puts a timing proxy in front of each replica, so the
	// router's own share of a routed call can be taken apart from the
	// replica's.
	var replicaURLs [2]string
	for i := range names {
		replicaURLs[i] = "http://" + addrs[i]
		if r.tr != nil {
			p, err := startTimingProxy(names[i], replicaURLs[i], r.tr)
			if err != nil {
				return nil, err
			}
			defer p.close()
			replicaURLs[i] = p.url
		}
	}

	m := &measurement{}
	var createMS []float64
	var procs []*server
	stopAll := func() error {
		var first error
		for i := len(procs) - 1; i >= 0; i-- {
			if err := procs[i].stop(stopGrace); err != nil && first == nil {
				first = err
			}
		}
		procs = nil
		return first
	}
	defer stopAll()
	var regBase string
	for rep := 0; rep < clusterSetupReps; rep++ {
		regBase = filepath.Join(r.work, fmt.Sprintf("registry-%d", rep))
		settle()
		start := time.Now()
		for _, cc := range corpora {
			cc.dir = filepath.Join(regBase, cc.d.name)
			t := time.Now()
			if cc.reg, err = registry.Create(cc.dir, cc.members); err != nil {
				return nil, err
			}
			createMS = append(createMS, ms(time.Since(t)))
		}
		for i, name := range names {
			args := []string{
				"-registry-dir", regBase, "-admin-token", adminToken, "-retry-after", serverRetryAfter,
				"-data-dir", filepath.Join(r.work, fmt.Sprintf("%s-jobs-%d", name, rep)),
				"-queue-depth", strconv.Itoa(n),
			}
			for _, d := range datasets {
				args = append(args, "-dataset", d.spec())
			}
			p, err := startServer(name, filepath.Join(r.cfg.BinDir, "lsserved"), addrs[i], args,
				filepath.Join(r.work, fmt.Sprintf("%s-%d.log", name, rep)))
			if err != nil {
				return nil, err
			}
			procs = append(procs, p)
		}
		args := []string{"-rise", "1", "-probe-interval", "100ms", "-retry-after", serverRetryAfter}
		for i, name := range names {
			args = append(args, "-replica", name+"="+replicaURLs[i])
		}
		rt, err := startServer("lsrouter", filepath.Join(r.cfg.BinDir, "lsrouter"), addrs[2], args,
			filepath.Join(r.work, fmt.Sprintf("lsrouter-%d.log", rep)))
		if err != nil {
			return nil, err
		}
		procs = append(procs, rt)
		if err := rt.waitReady(ctx, "/healthz", clusterReady(len(datasets)), bootTimeout); err != nil {
			return nil, err
		}
		m.setups = append(m.setups, time.Since(start))
		if rep < clusterSetupReps-1 {
			if err := stopAll(); err != nil {
				return nil, err
			}
		}
	}
	r.logf("set up in %v (median of %d)", m.setup(), clusterSetupReps)
	if err := checkSplit(ctx, procs[2].base, names); err != nil {
		return nil, err
	}

	o := newOracle()
	for _, cc := range corpora {
		if _, _, err := o.addRegistry(cc.d, cc.dir); err != nil {
			return nil, err
		}
	}
	m.csvReadMS = o.csvReadMS

	var replicaClients []*serve.Client
	for i := range names {
		replicaClients = append(replicaClients, serve.NewClient("http://"+addrs[i], &http.Client{Timeout: 30 * time.Second}))
	}
	gen := &loadgen{
		client: serve.NewClient(procs[2].base, generatorHTTP(r.nproc)),
		tr:     r.tr, layer: "router", poll: openPoll,
		policy: serve.RetryPolicy{MaxAttempts: 16, BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second},
	}
	if err := gen.warmUp(ctx, datasets, r.nproc); err != nil {
		return nil, err
	}
	scrape, err := startScrape(ctx, replicaClients, []int{procs[0].pid(), procs[1].pid(), procs[2].pid()})
	if err != nil {
		return nil, err
	}
	routerCPU0, err := procCPU(procs[2].pid())
	if err != nil {
		return nil, err
	}
	churn := &churner{corpora: corpora, replicas: replicaClients, rng: churnRng, tr: r.tr, oracle: o}
	stopChurn := churn.start(ctx, events)
	runs := gen.runOpen(ctx, specs)
	if err := stopChurn(); err != nil {
		return nil, err
	}
	sc, err := scrape.finish(ctx)
	if err != nil {
		return nil, err
	}
	routerCPU1, err := procCPU(procs[2].pid())
	if err != nil {
		return nil, err
	}
	if err := stopAll(); err != nil {
		return nil, err
	}
	m.peakRSS, m.cpu, m.counters = sc.peakRSS, sc.cpu, sc.counters
	m.outcomes, m.window = outcomesOf(runs)
	m.late = lateness(runs)
	r.logf("%d jobs in %v, %d corpus reloads", len(m.outcomes), m.window.Round(time.Millisecond), len(churn.reloadMS))

	if m.check, err = o.check(ctx, m.outcomes); err != nil {
		return nil, err
	}
	if r.tr == nil {
		return m, nil
	}
	if m.detail, err = r.serviceDetail(m, runs, sc); err != nil {
		return nil, err
	}
	spans := r.tr.Spans()
	LinkByKey(spans)
	self := SelfTimes(spans)
	for name, span := range map[string]string{"router.submit_self_ms_p50": "router.submit", "router.poll_self_ms_p50": "router.poll"} {
		if m.detail[name], err = Percentile(selfMSByName(spans, self, span), 50); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	}
	done := 0
	for _, o := range m.outcomes {
		if o.ok {
			done++
		}
	}
	m.detail["proc.router_cpu_ms_per_job"] = ms(routerCPU1-routerCPU0) / float64(done)
	m.detail["registry.create_ms"] = Median(createMS)
	m.detail["registry.open_ms"] = Mean(churn.openMS)
	m.detail["registry.apply_ms_mean"] = Mean(churn.applyMS)
	m.detail["registry.reload_rpc_ms_mean"] = Mean(churn.rpcMS)
	m.detail["registry.reload_ms_mean"] = Mean(churn.reloadMS)
	m.detail["registry.reloads"] = float64(len(churn.reloadMS))
	return m, nil
}

// clusterReady accepts the router's /healthz once every replica is ready
// and every dataset has an owner.
func clusterReady(datasets int) func(int, []byte) bool {
	return func(status int, body []byte) bool {
		var h router.Health
		return status == http.StatusOK && json.Unmarshal(body, &h) == nil && h.Status == "ok" && len(h.Shards) == datasets
	}
}

// checkSplit asserts the running router split the datasets 3/2.
func checkSplit(ctx context.Context, base string, names [2]string) error {
	var h router.Health
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return err
	}
	count := map[string]int{}
	for _, owner := range h.Shards {
		count[owner]++
	}
	if a, b := count[names[0]], count[names[1]]; a+b != len(h.Shards) || a < 2 || b < 2 {
		return fmt.Errorf("router split the datasets %d/%d over %v, want 3/2", a, b, names)
	}
	return nil
}

// churner applies corpus churn to the registries and hot-reloads both
// replicas, one dataset per event.
type churner struct {
	corpora  []*clusterCorpus
	replicas []*serve.Client
	rng      *rand.Rand
	tr       *Tracer
	oracle   *oracle

	applyMS, openMS, rpcMS, reloadMS []float64
}

// start runs up to events churn events, one per churnEvery, on its own
// goroutine; the returned stop ends it and reports its first error.
func (c *churner) start(ctx context.Context, events int) func() error {
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		t := time.NewTicker(churnEvery)
		defer t.Stop()
		for k := 0; k < events; k++ {
			select {
			case <-stop:
				done <- nil
				return
			case <-ctx.Done():
				done <- ctx.Err()
				return
			case <-t.C:
			}
			if err := c.event(ctx, c.corpora[k%len(c.corpora)]); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	return func() error {
		close(stop)
		return <-done
	}
}

// event removes churnShare of a dataset's live members, adds as many new
// scripts, publishes the version, and reloads it on both replicas.
func (c *churner) event(ctx context.Context, cc *clusterCorpus) error {
	k := int(churnShare*float64(len(cc.members)) + 0.5)
	if k > len(cc.adds) {
		return fmt.Errorf("dataset %s: churn pool exhausted", cc.d.name)
	}
	var remove []registry.Script
	for _, i := range c.rng.Perm(len(cc.members))[:k] {
		remove = append(remove, cc.members[i])
	}
	add := cc.adds[:k]
	cc.adds = cc.adds[k:]

	start := time.Now()
	if err := cc.reg.Apply(add, remove); err != nil {
		return err
	}
	version, err := cc.reg.Publish()
	if err != nil {
		return err
	}
	applied := time.Now()
	c.tr.Record(Span{Name: "registry.apply", Job: -1, Key: cc.d.name, Start: start, End: applied})
	var wg sync.WaitGroup
	errs := make([]error, len(c.replicas))
	rpc := make([]time.Duration, len(c.replicas))
	for i, cl := range c.replicas {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.Now()
			resp, err := cl.ReloadCorpus(ctx, cc.d.name, adminToken)
			rpc[i] = time.Since(t)
			c.tr.Record(Span{Name: "registry.reload_rpc", Job: -1, Key: cc.d.name, Start: t, End: t.Add(rpc[i])})
			if err == nil && resp.CorpusVersion != version {
				err = fmt.Errorf("replica reloaded %s to version %d, want %d", cc.d.name, resp.CorpusVersion, version)
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	end := time.Now()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	gone := map[string]bool{}
	for _, s := range remove {
		gone[s.ID] = true
	}
	live := cc.members[:0]
	for _, s := range cc.members {
		if !gone[s.ID] {
			live = append(live, s)
		}
	}
	cc.members = append(live, add...)

	open, got, err := c.oracle.addRegistry(cc.d, cc.dir)
	if err != nil {
		return err
	}
	if got != version {
		return fmt.Errorf("registry %s opened at version %d, want %d", cc.d.name, got, version)
	}
	c.applyMS = append(c.applyMS, ms(applied.Sub(start)))
	c.openMS = append(c.openMS, ms(open))
	for _, d := range rpc {
		c.rpcMS = append(c.rpcMS, ms(d))
	}
	c.reloadMS = append(c.reloadMS, ms(end.Sub(start)))
	return nil
}
