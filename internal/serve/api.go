// Package serve exposes the standardization engine as a long-running HTTP
// service: POST /v1/jobs submits a script against a named dataset (with
// optional Idempotency-Key dedup), GET /v1/jobs lists jobs with cursor
// pagination, GET /v1/jobs/{id} polls status and result, DELETE
// /v1/jobs/{id} cancels via the engine's context plumbing, and /healthz +
// /metrics expose readiness and the obs counters in Prometheus text
// format.
//
// The server keeps one lucidscript.System per named dataset, so corpus
// curation is paid exactly once per dataset for the life of the process,
// and every request's job shares that System's execution-prefix session
// cache through a bounded, admission-controlled JobQueue: overload is shed
// with 429 + Retry-After instead of stacked goroutines, and SIGTERM drains
// in-flight jobs before the listener closes.
//
// With Config.DataDir set the server is durable: every submission, state
// transition, and terminal result is appended to a per-data-dir
// write-ahead log (internal/serve/store) with periodic snapshots, so a
// restart against the same directory replays the full job history —
// finished jobs stay retrievable with their original results and output
// hashes, queued jobs are deterministically re-enqueued, and jobs that
// were mid-run are marked interrupted for the client to resubmit (their
// idempotency keys are released for exactly that).
//
// This file defines the JSON wire types, shared verbatim by Server and
// Client so the two cannot drift.
package serve

import (
	"time"

	"lucidscript"
)

// The machine-readable failure codes carried by ErrorResponse.Code and
// JobStatus.Code. HTTP status alone cannot distinguish, say, a canceled
// job from a fault-injected one, so every error payload carries one of
// these.
const (
	// CodeBadRequest marks a malformed submission (bad JSON, unparseable
	// script, unknown option).
	CodeBadRequest = "bad_request"
	// CodeUnknownDataset marks a submission naming a dataset the server
	// does not host.
	CodeUnknownDataset = "unknown_dataset"
	// CodeNotFound marks a job id the server has no record of.
	CodeNotFound = "not_found"
	// CodeQueueFull marks an admission-control rejection (HTTP 429); the
	// Retry-After header says when to come back.
	CodeQueueFull = "queue_full"
	// CodeShuttingDown marks work refused or drained because the server is
	// stopping (HTTP 503).
	CodeShuttingDown = "shutting_down"
	// CodeCanceled marks a job stopped by DELETE /v1/jobs/{id} or by its
	// submitter's context.
	CodeCanceled = "canceled"
	// CodeDeadlineExceeded marks a job stopped by the per-job timeout.
	CodeDeadlineExceeded = "deadline_exceeded"
	// CodeJobPanicked marks a job whose standardization panicked; the
	// panic was contained to the job.
	CodeJobPanicked = "job_panicked"
	// CodeFaultInjected marks a job failed by the deterministic
	// chaos-injection hook (test deployments only).
	CodeFaultInjected = "fault_injected"
	// CodeInputScriptFails marks a job whose input script does not execute
	// against the dataset.
	CodeInputScriptFails = "input_script_fails"
	// CodeInterrupted marks a job that was queued or running when the
	// server stopped and could not be carried across the restart. It is
	// the one retryable terminal state: resubmitting with the same
	// idempotency key starts a fresh job instead of replaying this one.
	CodeInterrupted = "interrupted"
	// CodeIdempotencyConflict marks a submission whose Idempotency-Key is
	// already bound to a different request (other dataset or script), or a
	// request whose header and body keys disagree (HTTP 409).
	CodeIdempotencyConflict = "idempotency_conflict"
	// CodeNotReady marks a request refused because the server is still
	// booting — curating datasets or replaying its write-ahead log (HTTP
	// 503, see GET /readyz). Retry after the hint.
	CodeNotReady = "not_ready"
	// CodeNoReplica marks a router-originated 503: no ready replica
	// currently owns the requested shard (a failover is in progress) or
	// the owning replica could not be reached. Retry after the hint —
	// the prober ejects the replica and the ring fails the shard over.
	CodeNoReplica = "no_replica"
	// CodeRouterShed marks a router-level load shed (HTTP 429): the
	// shard's owner reported a queue depth at or over the router's
	// threshold, so the router refused before the replica saturated.
	CodeRouterShed = "router_shed"
	// CodeForbidden marks an admin request without a valid bearer token
	// (HTTP 403) — corpus reloads are admin-gated. Not retryable.
	CodeForbidden = "forbidden"
	// CodeReloadUnavailable marks a corpus reload against a dataset with no
	// reload source configured (HTTP 409): the server was booted from an
	// in-process corpus, not a registry. Not retryable.
	CodeReloadUnavailable = "reload_unavailable"
	// CodeReloadFailed marks a corpus reload whose registry re-open failed
	// (HTTP 500). The previous corpus version stays active; retry once the
	// registry directory is healthy.
	CodeReloadFailed = "reload_failed"
	// CodeInternal marks any other failure.
	CodeInternal = "internal"
)

// RetryableCode reports whether an error code marks a failure the client
// should retry (with the same idempotency key, after backing off). The
// judgment is the server's (or router's), carried to clients in
// ErrorResponse.Retryable and JobStatus via the interrupted state.
func RetryableCode(code string) bool {
	switch code {
	case CodeQueueFull, CodeShuttingDown, CodeInterrupted, CodeInternal,
		CodeNotReady, CodeNoReplica, CodeRouterShed:
		return true
	}
	return false
}

// The JobStatus.State values, mirroring lucidscript.JobState plus the two
// terminal failure refinements the HTTP surface distinguishes.
const (
	// StateQueued: admitted, waiting for a worker.
	StateQueued = "queued"
	// StateRunning: a worker is standardizing the script now.
	StateRunning = "running"
	// StateDone: finished successfully; Result is populated.
	StateDone = "done"
	// StateFailed: finished with an error; Error and Code are populated
	// and Result may hold a partial result.
	StateFailed = "failed"
	// StateCanceled: stopped by cancellation; Result may hold the partial
	// result found before the cancel landed.
	StateCanceled = "canceled"
	// StateInterrupted: the job was alive (queued or running) when the
	// server stopped and was not carried across the restart. Terminal and
	// retryable — resubmit, reusing the idempotency key if one was set.
	StateInterrupted = "interrupted"
)

// States lists every JobStatus.State value, in lifecycle order — the
// vocabulary the list endpoint's state filter validates against.
var States = []string{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled, StateInterrupted}

// TerminalState reports whether a wire state is a resting state — one a
// job can never leave (interrupted included: the job itself is over; only
// a fresh submission continues the work).
func TerminalState(state string) bool {
	switch state {
	case StateDone, StateFailed, StateCanceled, StateInterrupted:
		return true
	}
	return false
}

// SubmitRequest is the POST /v1/jobs body.
type SubmitRequest struct {
	// Dataset names the server-side dataset/corpus pair to standardize
	// against (see GET /healthz for the hosted names).
	Dataset string `json:"dataset"`
	// Script is the LSL (pandas-style) source to standardize.
	Script string `json:"script"`
	// Options tweaks this job only. Search-shaping options (tau, measure,
	// beam …) are fixed per dataset at server start — curation depends on
	// them — so per-job options are deliberately small.
	Options *JobOptions `json:"options,omitempty"`
	// IdempotencyKey is the body-side spelling of the Idempotency-Key
	// header (either works; when both are set they must agree). A retried
	// submission carrying the key of an already-accepted job returns that
	// job's status (HTTP 200, Idempotency-Replayed: true) instead of
	// executing the work twice. Keys are released only when their job is
	// evicted or lands interrupted.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
}

// JobOptions are the per-job knobs a submission may set.
type JobOptions struct {
	// Timeout bounds this job (Go duration string, e.g. "30s"). Empty
	// inherits the server's per-job timeout. An expired timeout fails the
	// job with CodeDeadlineExceeded and keeps the best partial result.
	Timeout string `json:"timeout,omitempty"`
}

// JobStatus is the GET /v1/jobs/{id} payload (POST and DELETE return it
// too, so every job endpoint speaks one shape).
type JobStatus struct {
	ID      string `json:"id"`
	Dataset string `json:"dataset"`
	// State is one of the State* constants.
	State string `json:"state"`
	// Error and Code are set on failed/canceled jobs; Code is one of the
	// Code* constants.
	Error string `json:"error,omitempty"`
	Code  string `json:"code,omitempty"`
	// Result is set once the job is done (and on cancellations that
	// salvaged a partial result).
	Result *JobResult `json:"result,omitempty"`
	// IdempotencyKey echoes the submission's key, when one was sent.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
	// CorpusVersion is the registry snapshot version of the corpus this
	// job was admitted against. Hot-swapping the dataset's corpus never
	// moves an in-flight job: it finishes — and hashes its output — on the
	// version reported here. Zero when the dataset's corpus is unversioned
	// (curated in-process, no registry).
	CorpusVersion int64 `json:"corpus_version,omitempty"`
	// SubmittedAt / FinishedAt are server-clock timestamps (RFC 3339).
	SubmittedAt time.Time  `json:"submitted_at"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
}

// ReloadResponse is the POST /v1/corpus/{dataset}/reload payload.
type ReloadResponse struct {
	// Dataset echoes the reloaded dataset's name.
	Dataset string `json:"dataset"`
	// CorpusVersion is the version now active; Previous is the version it
	// replaced. Equal (with Changed false) when the registry had nothing
	// newer.
	CorpusVersion int64 `json:"corpus_version"`
	Previous      int64 `json:"previous"`
	// Changed reports whether a swap actually happened.
	Changed bool `json:"changed"`
	// CorpusScripts is the active corpus size after the reload.
	CorpusScripts int `json:"corpus_scripts"`
}

// ListResponse is the GET /v1/jobs payload: one page of job statuses in
// submission (id) order plus the cursor for the next page.
type ListResponse struct {
	Jobs []JobStatus `json:"jobs"`
	// NextCursor is passed back as ?cursor= to fetch the page after this
	// one; empty when this page reaches the end. The cursor is an opaque
	// position token — evictions and new submissions between pages are
	// handled (no duplicates, no skips among surviving jobs).
	NextCursor string `json:"next_cursor,omitempty"`
}

// JobResult is the standardization outcome carried by JobStatus.
type JobResult struct {
	// Script is the standardized LSL source.
	Script string `json:"script"`
	// OutputHash is the SHA-256 hex digest of the standardized script's
	// output table (CSV serialization over the full dataset), made by the
	// job itself — compare it against lsstd's "output hash" stderr line to
	// confirm the service and the CLI produce the same table.
	OutputHash string `json:"output_hash,omitempty"`
	// OutputHashError explains an absent OutputHash (e.g. the script
	// produces no output table), so a missing hash is never silent.
	OutputHashError string `json:"output_hash_error,omitempty"`
	// REBefore/REAfter/ImprovementPct/IntentValue mirror
	// lucidscript.Result.
	REBefore       float64 `json:"re_before"`
	REAfter        float64 `json:"re_after"`
	ImprovementPct float64 `json:"improvement_pct"`
	IntentValue    float64 `json:"intent_value"`
	// Transformations and Explanations describe the applied edits.
	Transformations []string `json:"transformations,omitempty"`
	Explanations    []string `json:"explanations,omitempty"`
	// Health is present when the run needed fault containment.
	Health *JobHealth `json:"health,omitempty"`
	// Timings is the per-phase wall-clock breakdown in milliseconds.
	Timings JobTimings `json:"timings"`
}

// JobHealth is the wire form of lucidscript.Health.
type JobHealth struct {
	Quarantined    int  `json:"quarantined"`
	Panicked       int  `json:"panicked"`
	Exhausted      int  `json:"exhausted"`
	CurateSkipped  int  `json:"curate_skipped"`
	VerifyDegraded bool `json:"verify_degraded"`
}

// JobTimings is the wire form of lucidscript.Timings, in milliseconds.
type JobTimings struct {
	CurateMS float64 `json:"curate_ms"`
	StepsMS  float64 `json:"get_steps_ms"`
	TopKMS   float64 `json:"top_k_beams_ms"`
	CheckMS  float64 `json:"check_executes_ms"`
	VerifyMS float64 `json:"verify_constraints_ms"`
	TotalMS  float64 `json:"total_ms"`
}

// ErrorResponse is the body of every non-2xx response — one uniform
// shape: a machine-readable code, a human-readable message, whether the
// failure is worth retrying, and (when it is) how long to wait.
type ErrorResponse struct {
	// Code is one of the Code* constants.
	Code string `json:"code"`
	// Message is the human-readable error.
	Message string `json:"message"`
	// Retryable reports whether the same request may succeed later; the
	// client's backoff helper keys off it (see Client and RetryPolicy).
	Retryable bool `json:"retryable"`
	// RetryAfterMS hints when to retry (429/503 only); the same value is
	// in the Retry-After header in seconds.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// ReadyResponse is the GET /readyz 200 payload. Readiness is a separate
// endpoint from /healthz on purpose: /healthz answers 200 for as long as
// the process is alive (liveness, with diagnostic payload), while
// /readyz flips to 503 whenever the server should not receive new work —
// while draining, and while a restarting daemon is still curating
// datasets or replaying its write-ahead log. The router's prober keys
// exclusively off /readyz.
type ReadyResponse struct {
	// Status is "ready" (200) or, on the boot surface's 503 path, the
	// uniform ErrorResponse is returned instead.
	Status string `json:"status"`
}

// HealthResponse is the GET /healthz payload: machine-readable liveness
// diagnostics for pollers and the multi-replica router's prober (which
// lifts queue depths and the drain flag from it; the go/no-go readiness
// bit itself comes from GET /readyz).
type HealthResponse struct {
	// Status is "ok" while serving and "draining" once shutdown began;
	// Draining is the same signal as a bool.
	Status   string `json:"status"`
	Draining bool   `json:"draining"`
	// QueueDepth and Running aggregate the per-dataset queued and
	// executing job counts.
	QueueDepth int `json:"queue_depth"`
	Running    int `json:"running"`
	// Datasets maps each hosted dataset to its queue snapshot.
	Datasets map[string]DatasetHealth `json:"datasets"`
	// Store reports write-ahead-log health when the server is durable
	// (Config.DataDir set); nil otherwise.
	Store *StoreHealth `json:"store,omitempty"`
}

// DatasetHealth is one dataset's queue snapshot inside HealthResponse.
type DatasetHealth struct {
	// QueueDepth is the admitted-but-waiting count; Running is how many
	// jobs this dataset's workers are executing right now.
	QueueDepth    int   `json:"queue_depth"`
	QueueCapacity int   `json:"queue_capacity"`
	Workers       int   `json:"workers"`
	Running       int   `json:"running"`
	Submitted     int64 `json:"submitted"`
	Rejected      int64 `json:"rejected"`
	Completed     int64 `json:"completed"`
	Failed        int64 `json:"failed"`
	// CorpusScripts is the curated corpus size backing this dataset.
	CorpusScripts int `json:"corpus_scripts"`
	// CorpusVersion is the active registry snapshot version (0 when the
	// corpus is unversioned). Watch it across POST /v1/corpus/…/reload to
	// confirm a hot-swap landed.
	CorpusVersion int64 `json:"corpus_version,omitempty"`
}

// StoreHealth is the durable store's snapshot inside HealthResponse.
type StoreHealth struct {
	// WALLagEntries/WALLagBytes measure how far the write-ahead log has
	// run ahead of the last snapshot — the recovery debt a restart would
	// replay.
	WALLagEntries int64 `json:"wal_lag_entries"`
	WALLagBytes   int64 `json:"wal_lag_bytes"`
	// Compactions counts snapshot rewrites since this process started.
	Compactions int64 `json:"compactions"`
	// Jobs is how many job records the store currently holds.
	Jobs int `json:"jobs"`
}

// toWireResult converts a Result (possibly a partial one) into the wire
// shape. sys must be the System the job ran on: it explains the applied
// path.
func toWireResult(sys *lucidscript.System, res *lucidscript.Result) *JobResult {
	if res == nil {
		return nil
	}
	jr := &JobResult{
		Script:         res.Script.Source(),
		OutputHash:     res.OutputHash,
		REBefore:       res.REBefore,
		REAfter:        res.REAfter,
		ImprovementPct: res.ImprovementPct,
		IntentValue:    res.IntentValue,
		Timings: JobTimings{
			CurateMS: ms(res.Timings.CurateSearchSpace),
			StepsMS:  ms(res.Timings.GetSteps),
			TopKMS:   ms(res.Timings.GetTopKBeams),
			CheckMS:  ms(res.Timings.CheckIfExecutes),
			VerifyMS: ms(res.Timings.VerifyConstraints),
			TotalMS:  ms(res.Timings.Total),
		},
	}
	for _, ex := range sys.Explain(res) { // one per Applied step
		jr.Transformations = append(jr.Transformations, ex.Transformation.String())
		jr.Explanations = append(jr.Explanations, ex.String())
	}
	if res.Health.Degraded() {
		jr.Health = &JobHealth{
			Quarantined:    res.Health.Total(),
			Panicked:       res.Health.Check.Panicked + res.Health.Verify.Panicked,
			Exhausted:      res.Health.Check.Exhausted + res.Health.Verify.Exhausted,
			CurateSkipped:  res.Health.CurateSkipped,
			VerifyDegraded: res.Health.VerifyDegraded,
		}
	}
	if res.OutputHashErr != nil {
		jr.OutputHashError = res.OutputHashErr.Error()
	}
	return jr
}

// ms converts a duration to fractional milliseconds for the wire.
func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }
