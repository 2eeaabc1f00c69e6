// Job-queue facade: the serving counterpart of StandardizeBatch. A
// JobQueue is what a long-lived service (cmd/lsserved, internal/serve)
// submits work through — admission-controlled, non-blocking, and sharing
// one curated corpus and one execution-prefix cache across every request's
// job, so curation is paid once per System no matter how many requests
// arrive over the System's lifetime.
package lucidscript

import "lucidscript/internal/core"

// The admission-control errors surfaced by JobQueue.Submit, re-exported
// for errors.Is. An HTTP front end maps ErrQueueFull to 429 and
// ErrQueueClosed to 503.
var (
	// ErrQueueFull reports a submission rejected because the queue's
	// bounded buffer is at capacity; retry later.
	ErrQueueFull = core.ErrQueueFull
	// ErrQueueClosed reports a submission to — or a queued job drained
	// by — a queue that is shutting down.
	ErrQueueClosed = core.ErrQueueClosed
)

// JobState is the lifecycle position of one queued job: JobQueued →
// JobRunning → JobDone.
type JobState = core.JobState

// The job lifecycle states.
const (
	JobQueued  = core.JobQueued
	JobRunning = core.JobRunning
	JobDone    = core.JobDone
)

// QueueStats snapshots a JobQueue's admission state: current depth against
// capacity, worker-pool size, and cumulative submitted / rejected /
// completed / failed counts.
type QueueStats = core.QueueStats

// JobQueue is a long-lived, admission-controlled standardization queue
// over one System's curated corpus, built once and then fed jobs for the
// life of a service. Submit never blocks: a job is either admitted into
// the bounded buffer or rejected with ErrQueueFull, which is how a server
// sheds load instead of stacking goroutines. All jobs share one
// execution-prefix session cache sized for the worker pool, with the same
// per-job isolation as StandardizeBatch: a panic, resource-budget trip, or
// timeout in one job never touches another. Close fails still-queued jobs
// with ErrQueueClosed; Drain runs them to completion first, which is how a
// server retires the queue of a hot-swapped corpus version.
type JobQueue = core.Queue

// QueuedJob is one standardization admitted by JobQueue.Submit: watch
// Done, then read Result, or just Wait. Cancel stops it with
// StandardizeContext's partial-result-on-cancel semantics.
type QueuedJob = core.QueuedJob

// NewJobQueue builds a running queue: workers consume jobs immediately and
// until Close. workers ≤ 0 resolves to Options.BatchWorkers; depth ≤ 0
// resolves to 2×workers. Options.Timeout, when set, bounds each job
// individually, exactly as in StandardizeBatch.
func (s *System) NewJobQueue(workers, depth int) *JobQueue {
	if workers <= 0 {
		workers = s.batchWorkers
	}
	if depth <= 0 {
		depth = 2 * workers
	}
	return s.std.NewQueue(workers, s.timeout, depth)
}
