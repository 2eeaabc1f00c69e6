package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"lucidscript/internal/faults"
	"lucidscript/internal/intent"
	"lucidscript/internal/interp"
	"lucidscript/internal/obs"
	"lucidscript/internal/script"
)

// ErrJobPanicked reports that one batch job's standardization panicked; the
// panic is contained to that job's error and never kills the batch.
var ErrJobPanicked = errors.New("core: standardization job panicked")

// Engine fans standardization jobs across a bounded worker pool while
// sharing one curated corpus and one execution-prefix cache. The paper's
// workload is multi-tenant — one corpus serves every user script targeting
// the same dataset — so a batch of N jobs pays for curation exactly once
// and jobs reuse each other's executed statement prefixes.
//
// Results are deterministic and index-aligned with the submitted jobs:
// job i's result and error land at position i regardless of completion
// order, and each job's output is identical to a sequential
// Standardizer.Standardize of the same script.
type Engine struct {
	std        *Standardizer
	workers    int
	jobTimeout time.Duration
}

// NewEngine builds a batch engine over the standardizer's curated corpus.
// workers bounds the pool (<= 0 resolves to GOMAXPROCS); jobTimeout, when
// positive, bounds each job individually — an expired job returns
// ErrDeadlineExceeded with a partial result while the rest of the batch
// keeps running.
func NewEngine(st *Standardizer, workers int, jobTimeout time.Duration) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{std: st, workers: workers, jobTimeout: jobTimeout}
}

// Workers reports the resolved pool size.
func (e *Engine) Workers() int { return e.workers }

// StandardizeBatch standardizes every job, returning results and errors
// both parallel to jobs. A job's error is per-job: an execution failure,
// deadline, or panic in one job never affects the others, while canceling
// ctx stops the whole batch (each unfinished job returns ErrCanceled, with
// a partial result where one exists, mirroring StandardizeContext).
func (e *Engine) StandardizeBatch(ctx context.Context, jobs []*script.Script) ([]*Result, []error) {
	if len(jobs) == 0 {
		return []*Result{}, []error{}
	}
	// One shared session cache serves the whole batch, with its node
	// budget scaled to the job count; each job runs through its own view
	// so per-Result cache stats stay job-local.
	return e.standardizeBatchSession(ctx, e.std.newSessionScaled(len(jobs)), jobs)
}

// standardizeBatchSession is StandardizeBatch against a caller-supplied
// shared cache (nil = uncached). Split out so chaos tests can own the
// shared trie and check its invariants after the batch completes.
func (e *Engine) standardizeBatchSession(ctx context.Context, shared *interp.SessionCache, jobs []*script.Script) ([]*Result, []error) {
	results := make([]*Result, len(jobs))
	errs := make([]error, len(jobs))
	if len(jobs) == 0 {
		return results, errs
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, e.workers)
	for i, su := range jobs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, su *script.Script) {
			defer wg.Done()
			defer func() { <-sem }()
			results[i], errs[i] = e.runJob(ctx, shared, i, su)
		}(i, su)
	}
	wg.Wait()
	return results, errs
}

// jobFaultKey is the faults.SiteBatchJob key of batch/queue job i. With an
// unversioned corpus it stays the bare index ("3"), preserving every
// existing chaos fixture; a registry-backed corpus prefixes its snapshot
// version ("v7:3") so queue ids — dense per queue, and queues are rebuilt
// on every corpus hot-swap — cannot alias a fault rule across swaps.
func jobFaultKey(version int64, i int) string {
	if version == 0 {
		return strconv.Itoa(i)
	}
	return "v" + strconv.FormatInt(version, 10) + ":" + strconv.Itoa(i)
}

// runJob standardizes one job with panic isolation, a per-job deadline, and
// per-job trace attribution.
func (e *Engine) runJob(ctx context.Context, shared *interp.SessionCache, i int, su *script.Script) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			// An error panic value stays in the chain (%w), so callers can
			// reach the failing statement's position via errors.As on
			// *interp.StmtError, and chaos tests can match
			// faults.ErrInjected through the job wrapper.
			if perr, ok := r.(error); ok {
				res, err = nil, fmt.Errorf("%w: job %d: %w", ErrJobPanicked, i, perr)
			} else {
				res, err = nil, fmt.Errorf("%w: job %d: %v", ErrJobPanicked, i, r)
			}
		}
	}()
	if f := e.std.Config.Faults.Fire(faults.SiteBatchJob, jobFaultKey(e.std.Corpus.Version, i)); f != nil {
		return nil, fmt.Errorf("core: job %d: %w", i, f.Err)
	}
	if e.jobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.jobTimeout)
		defer cancel()
	}
	// A shallow per-job Standardizer shares the curated corpus but stamps
	// this job's index onto every trace event.
	jobStd := &Standardizer{Corpus: e.std.Corpus, Config: e.std.Config}
	jobStd.Config.Tracer = obs.JobTracer(e.std.Config.Tracer, i+1)
	var sess interp.Session
	if shared != nil {
		sess = shared.NewView()
	}
	grid, err := jobStd.standardizeGridSession(ctx, sess, su,
		[]int{jobStd.Config.SeqLength}, []intent.Constraint{jobStd.Config.Constraint})
	return jobStd.jobResult(ctx, grid, err)
}
