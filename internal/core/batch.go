package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"lucidscript/internal/faults"
	"lucidscript/internal/intent"
	"lucidscript/internal/obs"
	"lucidscript/internal/script"
)

// ErrJobPanicked reports that one job's standardization panicked; the panic
// is contained to that job's error and never kills the batch or queue.
var ErrJobPanicked = errors.New("core: standardization job panicked")

// StandardizeBatch standardizes every job on a Queue of workers (<= 0
// resolves to GOMAXPROCS) sharing the curated corpus and one
// execution-prefix cache. The paper's workload is multi-tenant — one corpus
// serves every user script targeting the same dataset — so a batch of N
// jobs pays for curation exactly once and jobs reuse each other's executed
// statement prefixes. The batch is "submit every job, Drain, collect": the
// queue's buffer holds the whole batch, so no submission is rejected.
//
// Results and errors are both parallel to jobs and deterministic: job i's
// result and error land at position i regardless of completion order, and
// each job's output is identical to a sequential Standardize of the same
// script. A job's error is per-job: an execution failure, a jobTimeout
// expiry (ErrDeadlineExceeded), or a panic (ErrJobPanicked) in one job
// never affects the others, while canceling ctx stops the whole batch (each
// unfinished job returns ErrCanceled, with a partial result where one
// exists, mirroring StandardizeContext).
func (st *Standardizer) StandardizeBatch(ctx context.Context, workers int, jobTimeout time.Duration, jobs []*script.Script) ([]*Result, []error) {
	if len(jobs) == 0 {
		return []*Result{}, []error{}
	}
	// The shared cache's node budget is scaled to the job count; each job
	// runs through its own view so per-Result cache stats stay job-local.
	q := st.newQueue(min(poolSize(workers), len(jobs)), jobTimeout, len(jobs), st.newSession(len(jobs)))
	return q.batch(ctx, jobs)
}

// batch submits every job to a fresh queue whose buffer holds them all,
// drains it, and collects the outcomes in job order. Split out so chaos
// tests can run a batch on a queue over a trie they own.
func (q *Queue) batch(ctx context.Context, jobs []*script.Script) ([]*Result, []error) {
	handles := make([]*QueuedJob, len(jobs))
	for i, su := range jobs {
		// Cannot fail: the queue is open and its buffer fits every job.
		handles[i], _ = q.Submit(ctx, su)
	}
	q.Drain()
	results := make([]*Result, len(jobs))
	errs := make([]error, len(jobs))
	for i, j := range handles {
		results[i], errs[i] = j.res, j.err
	}
	return results, errs
}

// poolSize resolves a requested worker count: <= 0 means GOMAXPROCS.
func poolSize(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// jobFaultKey is the faults.SiteBatchJob key of job i. With an unversioned
// corpus it stays the bare index ("3"), preserving every existing chaos
// fixture; a registry-backed corpus prefixes its snapshot version ("v7:3")
// so queue ids — dense per queue, and queues are rebuilt on every corpus
// hot-swap — cannot alias a fault rule across swaps.
func jobFaultKey(version int64, i int) string {
	if version == 0 {
		return strconv.Itoa(i)
	}
	return "v" + strconv.FormatInt(version, 10) + ":" + strconv.Itoa(i)
}

// runJob standardizes one job with panic isolation, a per-job deadline, and
// per-job trace attribution; i is the job's queue id.
func (q *Queue) runJob(ctx context.Context, i int, su *script.Script) (res *Result, err error) {
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
	if f := q.std.Config.Faults.Fire(faults.SiteBatchJob, jobFaultKey(q.std.Corpus.Version, i)); f != nil {
		return nil, fmt.Errorf("core: job %d: %w", i, f.Err)
	}
	if q.jobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, q.jobTimeout)
		defer cancel()
	}
	// A shallow per-job Standardizer shares the curated corpus but stamps
	// this job's index onto every trace event.
	jobStd := &Standardizer{Corpus: q.std.Corpus, Config: q.std.Config}
	jobStd.Config.Tracer = obs.JobTracer(q.std.Config.Tracer, i+1)
	grid, err := jobStd.standardizeGridSession(ctx, q.shared.NewView(), su,
		[]int{jobStd.Config.SeqLength}, []intent.Constraint{jobStd.Config.Constraint})
	return jobStd.jobResult(ctx, grid, err)
}
