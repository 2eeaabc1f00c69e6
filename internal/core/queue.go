package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"lucidscript/internal/interp"
	"lucidscript/internal/obs"
	"lucidscript/internal/script"
)

// The admission-control sentinels surfaced by Queue.Submit.
var (
	// ErrQueueFull reports that a job was rejected because the queue's
	// bounded buffer is at capacity; the caller should retry later (an HTTP
	// front end translates it to 429).
	ErrQueueFull = errors.New("core: job queue is full")
	// ErrQueueClosed reports a submission to (or a job drained by) a queue
	// that is shutting down; an HTTP front end translates it to 503.
	ErrQueueClosed = errors.New("core: job queue is closed")
)

// JobState is the lifecycle position of one queued job.
type JobState int32

// The job lifecycle: Submit parks a job at JobQueued, a worker moves it to
// JobRunning, and completion (success, failure, or cancellation) lands it
// at JobDone.
const (
	JobQueued JobState = iota
	JobRunning
	JobDone
)

// String names the state for JSON status payloads and logs.
func (s JobState) String() string {
	switch s {
	case JobQueued:
		return "queued"
	case JobRunning:
		return "running"
	}
	return "done"
}

// QueuedJob is one standardization admitted into a Queue. Submit returns it
// immediately; the result becomes available when Done is closed.
type QueuedJob struct {
	id      int64
	script  *script.Script
	ctx     context.Context
	cancel  context.CancelFunc
	done    chan struct{}
	state   atomic.Int32
	observe func(JobState)
	res     *Result
	err     error
}

// ID is the job's queue-assigned sequence number (0-based). It doubles as
// the faults.SiteBatchJob key, so chaos tests can arm a fault at one exact
// queued job.
func (j *QueuedJob) ID() int64 { return j.id }

// State reports where the job is in its lifecycle. It reads JobDone as
// soon as Done is closed: finish closes done before it stores JobDone, so a
// caller returning from Wait could otherwise still read JobRunning.
func (j *QueuedJob) State() JobState {
	select {
	case <-j.done:
		return JobDone
	default:
		return JobState(j.state.Load())
	}
}

// Done is closed when the job finishes — successfully, with an error, or
// by cancellation.
func (j *QueuedJob) Done() <-chan struct{} { return j.done }

// Cancel stops the job: a queued job completes with ErrCanceled without
// running; a running job stops mid-search with the partial-result-on-cancel
// semantics of StandardizeContext. Safe to call at any time, repeatedly.
func (j *QueuedJob) Cancel() { j.cancel() }

// Result blocks until the job finishes (Done is closed) and returns its
// outcome; both values follow StandardizeContext conventions (a partial
// Result can accompany a cancellation error). Callers that already watched
// Done return immediately; use Wait for a bounded block.
func (j *QueuedJob) Result() (*Result, error) {
	<-j.done
	return j.res, j.err
}

// Wait blocks until the job finishes or ctx is canceled. A ctx cancellation
// abandons only the wait — the job itself keeps running (use Cancel to stop
// it).
func (j *QueuedJob) Wait(ctx context.Context) (*Result, error) {
	select {
	case <-j.done:
		return j.res, j.err
	case <-ctx.Done():
		return nil, ctxCause(ctx)
	}
}

// finish records the outcome and releases waiters. done is closed before
// the state flips to JobDone, so an observer that reads State() == JobDone
// is guaranteed a non-blocking Result.
func (j *QueuedJob) finish(res *Result, err error) {
	j.res, j.err = res, err
	close(j.done)
	j.state.Store(int32(JobDone))
	j.cancel()
	if j.observe != nil {
		j.observe(JobDone)
	}
}

// QueueStats is a point-in-time snapshot of a Queue's admission state.
type QueueStats struct {
	// Depth is how many admitted jobs are waiting for a worker right now;
	// Capacity is the bound admission control enforces.
	Depth, Capacity int
	// Workers is the size of the worker pool consuming the queue.
	Workers int
	// Running is how many jobs workers are executing right now.
	Running int
	// Submitted, Rejected, Completed, and Failed are cumulative counts
	// since the queue was built (Failed ⊆ Completed; a canceled job counts
	// as failed).
	Submitted, Rejected, Completed, Failed int64
}

// Queue is a long-lived, admission-controlled job queue over an Engine's
// worker pool — the serving counterpart of the one-shot StandardizeBatch.
// All jobs share the engine's curated corpus and one execution-prefix
// session cache, so a service keeps paying curation exactly once while
// requests arrive over hours, and concurrent jobs reuse each other's
// executed statement prefixes exactly as a batch does.
//
// Submit never blocks: a job either enters the bounded buffer or is
// rejected with ErrQueueFull, which is what lets an HTTP front end shed
// load with 429s instead of stacking goroutines. Close drains gracefully —
// in-flight jobs finish, still-buffered jobs fail with ErrQueueClosed.
type Queue struct {
	eng    *Engine
	shared *interp.SessionCache
	jobs   chan *QueuedJob
	closed chan struct{}
	wg     sync.WaitGroup

	mu       sync.Mutex
	isClosed bool

	seq                         atomic.Int64
	rejected, completed, failed atomic.Int64
	depth, running              atomic.Int64
}

// NewQueue builds a running queue over the engine: its workers start
// immediately and consume jobs until Close. depth bounds how many admitted
// jobs may wait for a worker (0 means no buffer — a job is only admitted
// when a worker is free to take it promptly; admission still never blocks).
func (e *Engine) NewQueue(depth int) *Queue {
	if depth < 0 {
		depth = 0
	}
	q := &Queue{
		eng: e,
		// The shared cache is scaled for the pool's concurrency, exactly
		// like a batch of that many jobs.
		shared: e.std.newSessionScaled(e.workers),
		jobs:   make(chan *QueuedJob, depth),
		closed: make(chan struct{}),
	}
	for i := 0; i < e.workers; i++ {
		q.wg.Add(1)
		go q.worker()
	}
	return q
}

// Submit admits one job without blocking: the returned QueuedJob is live
// (watch Done, then call Result), or the error is ErrQueueFull when the
// buffer is at capacity and ErrQueueClosed once Close has begun. ctx covers
// the job's whole life — canceling it while the job is still queued makes
// the job complete with ErrCanceled without running.
func (q *Queue) Submit(ctx context.Context, su *script.Script) (*QueuedJob, error) {
	return q.SubmitObserved(ctx, su, nil)
}

// SubmitObserved is Submit with a state-transition hook: observe is called
// with JobRunning when a worker picks the job up and with JobDone when it
// finishes (after the outcome is recorded and Done is closed). It is the
// durability hook — a persistent front end appends each transition to its
// write-ahead log from here. observe runs on the worker goroutine, so it
// must be fast and must not call back into the queue; it is never called
// for a rejected submission.
func (q *Queue) SubmitObserved(ctx context.Context, su *script.Script, observe func(JobState)) (*QueuedJob, error) {
	jctx, cancel := context.WithCancel(ctx)
	j := &QueuedJob{
		script:  su,
		ctx:     jctx,
		cancel:  cancel,
		done:    make(chan struct{}),
		observe: observe,
	}
	// Admission is under the mutex so a Submit can never slip a job into
	// the buffer after Close's drain pass: Close flips isClosed under the
	// same lock before draining. The id is assigned only on admission, so
	// queue ids stay dense (0, 1, 2, …) no matter how many submissions were
	// rejected — which is what makes the id usable as the batch-index fault
	// key and trace label.
	q.mu.Lock()
	if q.isClosed {
		q.mu.Unlock()
		cancel()
		q.rejected.Add(1)
		return nil, ErrQueueClosed
	}
	j.id = q.seq.Add(1) - 1
	select {
	case q.jobs <- j:
		q.depth.Add(1)
		q.mu.Unlock()
		q.metricAdd(obs.MQueueDepth, 1)
		q.metricAdd(obs.MJobsSubmitted, 1)
		return j, nil
	default:
		// Un-consume the id: seq is only ever touched under mu, so this
		// cannot race another Submit.
		q.seq.Add(-1)
		q.mu.Unlock()
		cancel()
		q.rejected.Add(1)
		q.metricAdd(obs.MJobsRejected, 1)
		return nil, ErrQueueFull
	}
}

// Close stops admission, waits for in-flight jobs to finish, and fails
// every still-buffered job with ErrQueueClosed. It is idempotent and safe
// to call concurrently; every call blocks until the drain completes.
func (q *Queue) Close() {
	q.mu.Lock()
	first := !q.isClosed
	q.isClosed = true
	q.mu.Unlock()
	if first {
		close(q.closed)
	}
	q.wg.Wait()
	for {
		select {
		case j, ok := <-q.jobs:
			if !ok {
				// Drain closed the buffer after emptying it.
				return
			}
			q.depth.Add(-1)
			q.metricAdd(obs.MQueueDepth, -1)
			q.recordOutcome(ErrQueueClosed)
			j.finish(nil, ErrQueueClosed)
		default:
			return
		}
	}
}

// Drain retires the queue gracefully: admission stops (further Submits
// return ErrQueueClosed), but — unlike Close — every already-admitted job
// still runs to completion before the workers exit. It is the hot-swap
// retirement path: a server that replaced this queue's corpus snapshot
// drains the old queue so jobs admitted against the old corpus version
// finish on the version they started with. Idempotent, safe to call
// concurrently with Close (whichever flips the closed flag first decides
// the buffered jobs' fate), and blocks until the last job lands.
func (q *Queue) Drain() {
	q.mu.Lock()
	if q.isClosed {
		q.mu.Unlock()
		q.wg.Wait()
		return
	}
	q.isClosed = true
	// Closing the buffer is safe: submissions only send under mu after
	// checking isClosed, which is now set. Workers keep receiving until
	// the buffer is empty, then see the close and exit.
	close(q.jobs)
	q.mu.Unlock()
	q.wg.Wait()
}

// Stats snapshots the queue's admission state for health endpoints.
func (q *Queue) Stats() QueueStats {
	return QueueStats{
		Depth:     int(q.depth.Load()),
		Capacity:  cap(q.jobs),
		Workers:   q.eng.workers,
		Running:   int(q.running.Load()),
		Submitted: q.seq.Load(),
		Rejected:  q.rejected.Load(),
		Completed: q.completed.Load(),
		Failed:    q.failed.Load(),
	}
}

// worker consumes jobs until the queue closes. A buffered job received
// while q.closed is also ready is re-checked after the select — Go picks
// between ready cases randomly, so without the re-check a buffered job
// could race a concurrent Close into execution. Close's contract is that
// buffered jobs drain with ErrQueueClosed once shutdown has begun, and the
// re-check is what delivers it: any job pulled at or after the close is
// failed here instead of run.
func (q *Queue) worker() {
	defer q.wg.Done()
	for {
		select {
		case <-q.closed:
			return
		case j, ok := <-q.jobs:
			if !ok {
				// Drain closed the buffer: every admitted job has been
				// received (and run) by some worker; nothing is left.
				return
			}
			q.depth.Add(-1)
			q.metricAdd(obs.MQueueDepth, -1)
			select {
			case <-q.closed:
				q.recordOutcome(ErrQueueClosed)
				j.finish(nil, ErrQueueClosed)
				return
			default:
			}
			q.run(j)
		}
	}
}

// run executes one job on the engine, reusing the batch path's per-job
// deadline, panic isolation, fault-injection site, and trace attribution
// (the job's queue id is its batch index).
func (q *Queue) run(j *QueuedJob) {
	if err := j.ctx.Err(); err != nil {
		cause := ctxCause(j.ctx)
		q.recordOutcome(cause)
		j.finish(nil, cause)
		return
	}
	j.state.Store(int32(JobRunning))
	if j.observe != nil {
		j.observe(JobRunning)
	}
	q.running.Add(1)
	res, err := q.eng.runJob(j.ctx, q.shared, int(j.id), j.script)
	q.running.Add(-1)
	q.recordOutcome(err)
	j.finish(res, err)
}

// recordOutcome folds one finished job into the cumulative counters.
func (q *Queue) recordOutcome(err error) {
	q.completed.Add(1)
	q.metricAdd(obs.MJobsCompleted, 1)
	if err != nil {
		q.failed.Add(1)
		q.metricAdd(obs.MJobsFailed, 1)
	}
}

// metricAdd updates the engine's metrics registry when one is configured.
func (q *Queue) metricAdd(name string, delta int64) {
	if m := q.eng.std.Config.Metrics; m != nil {
		m.Counter(name).Add(delta)
	}
}
