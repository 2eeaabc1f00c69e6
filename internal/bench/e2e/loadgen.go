package e2e

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"lucidscript/internal/serve"
)

// jobRun is one job's trip through the service as the generator saw it.
type jobRun struct {
	spec jobSpec
	// origin is where the job's latency starts: its due time in an open
	// loop, its first submit in a closed loop.
	origin time.Time
	// late is how far behind schedule the generator sent the job (open
	// loop only).
	late      time.Duration
	submitRTT time.Duration
	attempts  int
	polls     []time.Duration
	status    *serve.JobStatus
	err       error
}

// loadgen drives jobs through one HTTP endpoint: an lsserved, or the
// lsrouter in front of several.
type loadgen struct {
	client *serve.Client
	// tr records spans for traced jobs; nil when the run is untraced.
	tr *Tracer
	// layer names the spans of the calls this generator makes: "serve"
	// when it talks to lsserved, "router" when it talks to lsrouter.
	layer  string
	poll   time.Duration
	policy serve.RetryPolicy
}

// generatorHTTP is the generator's HTTP client: at most conns connections
// per upstream, so the client side cannot open more parallelism than the
// machine has processors.
func generatorHTTP(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
		Timeout:   time.Minute,
	}
}

// runOpen sends each job at its due offset from the window's start,
// whether or not earlier jobs have finished, and returns once every job
// has reached a terminal state or failed.
func (g *loadgen) runOpen(ctx context.Context, specs []jobSpec) []*jobRun {
	runs := make([]*jobRun, 0, len(specs))
	var wg sync.WaitGroup
	start := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
	for _, sp := range specs {
		due := start.Add(sp.due)
		if d := time.Until(due); d > 0 {
			timer.Reset(d)
			select {
			case <-ctx.Done():
				wg.Wait()
				return runs
			case <-timer.C:
			}
		}
		run := &jobRun{spec: sp, origin: due}
		runs = append(runs, run)
		wg.Add(1)
		go func() {
			defer wg.Done()
			run.late = time.Since(due)
			g.do(ctx, run)
		}()
	}
	wg.Wait()
	return runs
}

// runClosed has clients callers each submit a job, wait for it, and take
// the next, until every job has run.
func (g *loadgen) runClosed(ctx context.Context, specs []jobSpec, clients int) []*jobRun {
	runs := make([]*jobRun, len(specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(specs) || ctx.Err() != nil {
					return
				}
				run := &jobRun{spec: specs[i], origin: time.Now()}
				runs[i] = run
				g.do(ctx, run)
			}
		}()
	}
	wg.Wait()
	out := runs[:0]
	for _, r := range runs {
		if r != nil {
			out = append(out, r)
		}
	}
	return out
}

// warmUp runs the datasets' warm-up jobs, untraced and unmeasured, with
// clients closed-loop callers; any failure is an error.
func (g *loadgen) warmUp(ctx context.Context, datasets []*dataset, clients int) error {
	warm := *g
	warm.tr, warm.poll = nil, closedPoll
	for _, run := range warm.runClosed(ctx, warmSpecs(datasets), clients) {
		if run.err != nil {
			return fmt.Errorf("warm-up: %w", run.err)
		}
		if run.status.State != serve.StateDone {
			return fmt.Errorf("warm-up job %s ended %s: %s", run.status.ID, run.status.State, run.status.Error)
		}
	}
	return nil
}

// maxPollErrors is how many consecutive failed polls fail a job.
const maxPollErrors = 3

// do submits one job under the retry policy, with an idempotency key so a
// retried submit can never run the job twice, then polls it to a terminal
// state.
func (g *loadgen) do(ctx context.Context, run *jobRun) {
	idx := run.spec.index
	tr := g.tr
	jobSpan := tr.NewID()
	key := fmt.Sprintf("job-%05d", idx)
	var st *serve.JobStatus
	err := g.policy.Do(ctx, func() error {
		start := time.Now()
		s, err := g.client.SubmitIdempotent(ctx, run.spec.ds.name, run.spec.script, nil, key)
		end := time.Now()
		run.attempts++
		run.submitRTT = end.Sub(start)
		tr.Record(Span{Parent: jobSpan, Name: g.layer + ".submit", Job: idx, Key: key, Start: start, End: end})
		st = s
		return err
	})
	if err != nil {
		run.err = fmt.Errorf("submitting job %d: %w", idx, err)
	}
	for errs := 0; run.err == nil && !serve.TerminalState(st.State); {
		select {
		case <-ctx.Done():
			run.err = ctx.Err()
			continue
		case <-time.After(g.poll):
		}
		start := time.Now()
		s, err := g.client.Job(ctx, st.ID)
		end := time.Now()
		tr.Record(Span{Parent: jobSpan, Name: g.layer + ".poll", Job: idx, Key: st.ID, Start: start, End: end})
		if err != nil {
			if errs++; errs >= maxPollErrors {
				run.err = fmt.Errorf("polling job %d: %w", idx, err)
			}
			continue
		}
		errs = 0
		run.polls = append(run.polls, end.Sub(start))
		st = s
	}
	run.status = st
	tr.Record(Span{ID: jobSpan, Name: "loadgen.job", Job: idx, Start: run.origin, End: time.Now()})
}

// healthSample is one /healthz reading summed over the sampled servers.
type healthSample struct {
	depth, running, workers int
}

// healthSampler reads /healthz at a fixed rate while the window runs: the
// queue layer's depth and busy workers, observed from outside.
type healthSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []healthSample
}

func startHealthSampler(clients []*serve.Client, every time.Duration) *healthSampler {
	s := &healthSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
			var sample healthSample
			ok := true
			for _, c := range clients {
				h, err := c.Healthz(context.Background())
				if err != nil {
					ok = false
					break
				}
				sample.depth += h.QueueDepth
				sample.running += h.Running
				for _, d := range h.Datasets {
					sample.workers += d.Workers
				}
			}
			if ok {
				s.samples = append(s.samples, sample)
			}
		}
	}()
	return s
}

// finish stops the sampler and returns its samples.
func (s *healthSampler) finish() []healthSample {
	close(s.stop)
	<-s.done
	return s.samples
}
