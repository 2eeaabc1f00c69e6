package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lucidscript"
	"lucidscript/internal/faults"
	"lucidscript/internal/obs"
	"lucidscript/internal/serve/store"
)

// Config tunes a Server. The zero value is serviceable: every field
// resolves to the default documented on it.
type Config struct {
	// Workers is each dataset's worker-pool size; ≤ 0 resolves to the
	// System's Options.BatchWorkers (itself defaulting to GOMAXPROCS).
	Workers int
	// QueueDepth bounds each dataset's admitted-but-waiting jobs; ≤ 0
	// resolves to 2× the resolved worker count. A full queue rejects
	// submissions with 429 + Retry-After.
	QueueDepth int
	// RetryAfter is the client back-off hint on 429/503 responses; ≤ 0
	// resolves to 1s.
	RetryAfter time.Duration
	// JobRetention is how long a finished job's record (status, result,
	// output hash) stays pollable before it is evicted and GET/DELETE on
	// its id return 404; ≤ 0 resolves to 15m. Without eviction the job map
	// would grow with every submission for the life of the server. On a
	// durable server eviction also removes the record from the store.
	JobRetention time.Duration
	// DataDir, when non-empty, makes the server durable: jobs are recorded
	// in a write-ahead log + snapshot under this directory
	// (internal/serve/store) and survive a restart against the same path —
	// finished jobs keep their results and output hashes, queued jobs are
	// re-enqueued in submission order, and jobs that were mid-run land in
	// the interrupted state. Empty keeps the old in-memory behavior.
	DataDir string
	// SnapshotEvery is the WAL-appends-per-snapshot compaction cadence of
	// the durable store; ≤ 0 resolves to the store's default (512).
	// Ignored without DataDir.
	SnapshotEvery int
	// Metrics receives queue and HTTP counters and backs GET /metrics.
	// Nil resolves to a fresh private registry. To fold the search's own
	// counters into the same exposition, pass the registry the Systems
	// were built with (Options.Metrics).
	Metrics *lucidscript.Metrics
	// AdminToken gates POST /v1/corpus/{dataset}/reload: requests must
	// carry it as "Authorization: Bearer <token>". Empty disables the
	// endpoint entirely (every reload is 403) — hot-swap is opt-in.
	AdminToken string
	// Reloaders supplies each dataset's corpus-reload source: the function
	// re-opens the dataset's registry and returns a System over the newest
	// published snapshot plus that snapshot's version. Datasets without an
	// entry reject reloads with CodeReloadUnavailable. A daemon booted from
	// a registry directory wires one per dataset (see cmd/lsserved).
	Reloaders map[string]Reloader
}

// Reloader rebuilds one dataset's System from its corpus source's newest
// published version, returning that version. Called with the dataset's
// reload mutex held — at most one reload per dataset runs at a time.
type Reloader func() (*lucidscript.System, int64, error)

// withDefaults resolves the zero values.
func (c Config) withDefaults() Config {
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.JobRetention <= 0 {
		c.JobRetention = 15 * time.Minute
	}
	if c.Metrics == nil {
		c.Metrics = lucidscript.NewMetrics()
	}
	return c
}

// corpusState is one corpus generation of a dataset: the System curated
// (or registry-loaded) at that version and its job queue. A hot-swap
// builds a whole new corpusState and swings the dataset's active pointer;
// jobs hold the corpusState they were admitted against, so they execute
// on the corpus version they started with no matter how many swaps happen
// while they run.
type corpusState struct {
	version int64
	sys     *lucidscript.System
	queue   *lucidscript.JobQueue
}

// dataset is one hosted dataset name: the atomically swappable active
// corpus plus the reload source. reloadMu serializes reloads per dataset;
// the active pointer is what the submit path reads, lock-free.
type dataset struct {
	name     string
	active   atomic.Pointer[corpusState]
	reload   Reloader
	reloadMu sync.Mutex
}

// jobRecord tracks one submitted job until its retention window expires.
type jobRecord struct {
	id          string
	datasetName string
	idemKey     string
	script      string
	submitted   time.Time

	// corpus and job are nil for records recovered from the store in a
	// terminal state — there is nothing left to execute or hash. corpus is
	// the generation the job was admitted against, pinned across swaps.
	corpus *corpusState
	job    *lucidscript.QueuedJob

	// finalized is closed once terminal holds the job's final wire status;
	// status only reads terminal after the close, so no lock is needed. It
	// is closed at construction for recovered-terminal records.
	finalized chan struct{}
	terminal  *JobStatus
}

// RecoveryStats summarizes what a durable server replayed at startup.
type RecoveryStats struct {
	// Terminal counts jobs recovered in a resting state (done, failed,
	// canceled, interrupted) with their original results intact.
	Terminal int
	// Requeued counts jobs found queued in the log and deterministically
	// re-enqueued, in original submission order.
	Requeued int
	// Interrupted counts jobs that were queued or running at the crash and
	// could not be carried over — marked with the interrupted state for
	// clients to resubmit.
	Interrupted int
}

// Server hosts the standardization service. Build it with NewServer, mount
// Handler on an http.Server, and call Shutdown to drain.
type Server struct {
	cfg      Config
	datasets map[string]*dataset
	draining atomic.Bool
	store    *store.Store
	recovery RecoveryStats

	mu   sync.RWMutex
	jobs map[string]*jobRecord
	idem map[string]*jobRecord
	seq  atomic.Int64
}

// NewServer builds a server hosting one System per named dataset. Each
// System's corpus was curated when the caller built it — NewServer starts
// the per-dataset worker pools, so the server is serving-ready on return.
// With cfg.DataDir set it first replays the durable store: terminal jobs
// are restored as-is, queued jobs re-enqueued (they may begin executing
// before NewServer returns), and mid-run jobs marked interrupted.
func NewServer(systems map[string]*lucidscript.System, cfg Config) (*Server, error) {
	if len(systems) == 0 {
		return nil, errors.New("serve: no datasets configured")
	}
	cfg = cfg.withDefaults()
	// Registered up front so /metrics exports these counts at 0.
	for _, name := range []string{obs.MJaccardMemoHits, obs.MJaccardBoundRejects, obs.MValueSetsBuilt} {
		cfg.Metrics.Counter(name)
	}
	s := &Server{
		cfg:      cfg,
		datasets: make(map[string]*dataset, len(systems)),
		jobs:     map[string]*jobRecord{},
		idem:     map[string]*jobRecord{},
	}
	for name, sys := range systems {
		if sys == nil {
			return nil, fmt.Errorf("serve: dataset %q has a nil System", name)
		}
		d := &dataset{name: name, reload: cfg.Reloaders[name]}
		d.active.Store(s.newCorpusState(sys))
		s.datasets[name] = d
	}
	for name := range cfg.Reloaders {
		if _, ok := s.datasets[name]; !ok {
			return nil, fmt.Errorf("serve: reloader configured for unhosted dataset %q", name)
		}
	}
	if cfg.DataDir != "" {
		st, err := store.Open(cfg.DataDir, store.Options{SnapshotEvery: cfg.SnapshotEvery})
		if err != nil {
			return nil, err
		}
		s.store = st
		if err := s.recover(); err != nil {
			st.Close()
			return nil, err
		}
	}
	return s, nil
}

// newCorpusState wraps a System into a running corpus generation with a
// fresh job queue. The version comes from the System itself (0 for
// in-process corpora).
func (s *Server) newCorpusState(sys *lucidscript.System) *corpusState {
	return &corpusState{
		version: sys.CorpusVersion(),
		sys:     sys,
		queue:   sys.NewJobQueue(s.cfg.Workers, s.cfg.QueueDepth),
	}
}

// recover replays the durable store into live server state: the id
// sequence resumes past all recorded history, terminal records become
// readable job statuses again, queued records are re-enqueued in original
// submission order, and records caught queued-but-unrequeueable or running
// are finished as interrupted.
func (s *Server) recover() error {
	s.seq.Store(s.store.MaxSeq())
	for _, rec := range s.store.Records() {
		switch {
		case store.Terminal(rec.State):
			s.adoptTerminal(rec)
			s.recovery.Terminal++
		case rec.State == store.StateRunning:
			s.interruptRecord(rec, "job was running when the server stopped; resubmit to re-execute")
		default: // queued
			s.requeueRecord(rec)
		}
	}
	return nil
}

// adoptTerminal rebuilds the in-memory record of a job that finished in a
// previous life, scheduling its eviction relative to its original finish
// time so retention spans restarts.
func (s *Server) adoptTerminal(rec *store.Record) {
	st := statusFromRecord(rec)
	jr := &jobRecord{
		id:          rec.ID,
		datasetName: rec.Dataset,
		idemKey:     rec.IdempotencyKey,
		script:      rec.Script,
		submitted:   rec.SubmittedAt,
		finalized:   closedChan(),
		terminal:    st,
	}
	s.jobs[jr.id] = jr
	if jr.idemKey != "" && st.State != StateInterrupted {
		s.idem[jr.idemKey] = jr
	}
	retain := s.cfg.JobRetention
	if !rec.FinishedAt.IsZero() {
		retain = time.Until(rec.FinishedAt.Add(s.cfg.JobRetention))
		if retain < 0 {
			retain = 0
		}
	}
	s.scheduleEviction(jr, retain)
}

// interruptRecord finishes a stranded job in the interrupted state — the
// retryable terminal state whose idempotency key is deliberately NOT
// re-bound, so a client resubmitting with the same key starts fresh work.
func (s *Server) interruptRecord(rec *store.Record, why string) {
	now := time.Now().UTC()
	_ = s.store.AppendFinish(rec.ID, store.StateInterrupted, CodeInterrupted, why, nil, now)
	rec.State, rec.Code, rec.Error = store.StateInterrupted, CodeInterrupted, why
	rec.Result, rec.FinishedAt = nil, now
	s.adoptTerminal(rec)
	s.recovery.Interrupted++
}

// requeueRecord resubmits a job the crash caught still queued. Failures to
// re-enqueue (dataset no longer hosted, script no longer parses, queue
// capacity shrank) finish the job as interrupted instead — deterministic
// either way, processed in original submission order.
func (s *Server) requeueRecord(rec *store.Record) {
	d, ok := s.datasets[rec.Dataset]
	if !ok {
		s.interruptRecord(rec, fmt.Sprintf("dataset %q is no longer hosted", rec.Dataset))
		return
	}
	sc, err := lucidscript.ParseScript(rec.Script)
	if err != nil {
		s.interruptRecord(rec, fmt.Sprintf("stored script no longer parses: %v", err))
		return
	}
	// A requeued job runs on the corpus active now — possibly newer than
	// the one it was originally admitted against; its terminal status
	// reports the version it actually executed on.
	cs := d.active.Load()
	job, err := cs.queue.SubmitObserved(context.Background(), sc, s.observer(rec.ID))
	if err != nil {
		s.interruptRecord(rec, fmt.Sprintf("re-enqueue failed: %v", err))
		return
	}
	jr := &jobRecord{
		id:          rec.ID,
		datasetName: rec.Dataset,
		idemKey:     rec.IdempotencyKey,
		script:      rec.Script,
		submitted:   rec.SubmittedAt,
		corpus:      cs,
		job:         job,
		finalized:   make(chan struct{}),
	}
	s.jobs[jr.id] = jr
	if jr.idemKey != "" {
		s.idem[jr.idemKey] = jr
	}
	s.recovery.Requeued++
	go s.finalizeJob(jr, func() {})
}

// Recovery reports what a durable server replayed at startup (zero value
// for in-memory servers).
func (s *Server) Recovery() RecoveryStats { return s.recovery }

// observer is the per-job durability hook: the queue calls it on the
// worker goroutine when the job starts running. (The done transition is
// persisted by the finalizer, which also has the result and output hash.)
func (s *Server) observer(id string) func() {
	if s.store == nil {
		return nil
	}
	return func() { _ = s.store.AppendRunning(id) }
}

// Handler returns the service's routes. Mount it as an http.Server's (or
// httptest.Server's) handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.instrument(s.handleSubmit))
	mux.HandleFunc("GET /v1/jobs", s.instrument(s.handleList))
	mux.HandleFunc("GET /v1/jobs/{id}", s.instrument(s.handleGet))
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.instrument(s.handleCancel))
	mux.HandleFunc("POST /v1/corpus/{dataset}/reload", s.instrument(s.handleReload))
	mux.HandleFunc("GET /healthz", s.instrument(s.handleHealthz))
	mux.HandleFunc("GET /readyz", s.instrument(s.handleReadyz))
	mux.HandleFunc("GET /metrics", s.instrument(s.handleMetrics))
	return mux
}

// Shutdown drains the service: new submissions are refused with 503,
// in-flight jobs finish, and still-queued jobs fail with
// CodeShuttingDown. If ctx expires first, in-flight jobs are canceled and
// complete with their partial-result-on-cancel semantics; Shutdown still
// waits for them to land — including their finalizers — so
// every recorded job reads as terminal before this returns. On a durable
// server the store is then compacted and closed, making the shutdown a
// clean restart point. Job status stays readable afterward (until its
// retention window expires); closing the HTTP listener is the caller's
// move (http.Server.Shutdown), made after this returns.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, d := range s.datasets {
			// Retired corpus generations' queues are already draining (each
			// swap kicks one off); their jobs are tracked in s.jobs like any
			// other, so waiting on rec.finalized below covers them.
			d.active.Load().queue.Close()
		}
		s.mu.RLock()
		recs := make([]*jobRecord, 0, len(s.jobs))
		for _, rec := range s.jobs {
			recs = append(recs, rec)
		}
		s.mu.RUnlock()
		for _, rec := range recs {
			<-rec.finalized
		}
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		s.mu.RLock()
		for _, rec := range s.jobs {
			if rec.job != nil {
				rec.job.Cancel()
			}
		}
		s.mu.RUnlock()
		<-done
		err = ctx.Err()
	}
	if s.store != nil {
		if cerr := s.store.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// instrument wraps a handler with the HTTP request/error counters.
func (s *Server) instrument(h func(http.ResponseWriter, *http.Request)) func(http.ResponseWriter, *http.Request) {
	return func(w http.ResponseWriter, r *http.Request) {
		s.metric(obs.MHTTPRequests, 1)
		h(w, r)
	}
}

// handleSubmit admits one job: parse, resolve the dataset and idempotency
// key, enqueue, persist, 202 — or replay the key's existing job with 200.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeUnavailable(w)
		return
	}
	var req SubmitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, CodeBadRequest, fmt.Sprintf("decoding request body: %v", err))
		return
	}
	key := r.Header.Get("Idempotency-Key")
	if req.IdempotencyKey != "" {
		if key != "" && key != req.IdempotencyKey {
			s.writeError(w, http.StatusConflict, CodeIdempotencyConflict,
				fmt.Sprintf("Idempotency-Key header %q disagrees with body idempotency_key %q", key, req.IdempotencyKey))
			return
		}
		key = req.IdempotencyKey
	}
	d, ok := s.datasets[req.Dataset]
	if !ok {
		s.writeError(w, http.StatusNotFound, CodeUnknownDataset, fmt.Sprintf("unknown dataset %q", req.Dataset))
		return
	}
	sc, err := lucidscript.ParseScript(req.Script)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, CodeBadRequest, fmt.Sprintf("parsing script: %v", err))
		return
	}
	ctx, cancel, err := jobContext(req.Options)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}

	// Admission, idempotency binding, and the durable submit record are
	// one atomic step under mu: two racing submissions with the same key
	// cannot both enqueue, and a Close-drain pass cannot interleave.
	s.mu.Lock()
	if key != "" {
		if prior := s.idem[key]; prior != nil {
			if prior.datasetName != req.Dataset || prior.script != req.Script {
				s.mu.Unlock()
				cancel()
				s.writeError(w, http.StatusConflict, CodeIdempotencyConflict,
					fmt.Sprintf("idempotency key %q is already bound to job %s with a different request", key, prior.id))
				return
			}
			st := s.status(prior)
			s.mu.Unlock()
			cancel()
			w.Header().Set("Idempotency-Replayed", "true")
			s.writeJSON(w, http.StatusOK, st)
			return
		}
	}
	seq := s.seq.Add(1)
	id := fmt.Sprintf("j-%08d", seq)
	now := time.Now().UTC()
	// Pin the corpus generation before admission: the job joins this
	// generation's queue and keeps executing — and hashing — against it
	// even if a hot-swap retires it mid-flight. A swap racing this load
	// may close the old queue first; the ErrQueueClosed below then turns
	// into a retryable 503 and the retry lands on the new generation.
	cs := d.active.Load()
	if s.store != nil {
		// The submit record lands in the WAL before the queue can possibly
		// run the job, so a crash never leaves an executing job the log
		// has no record of. A rejected admission evicts it right back.
		err := s.store.AppendSubmit(&store.Record{
			ID: id, Seq: seq, Dataset: req.Dataset, Script: req.Script,
			IdempotencyKey: key, CorpusVersion: cs.version, SubmittedAt: now,
		})
		if err != nil {
			s.mu.Unlock()
			cancel()
			s.writeError(w, http.StatusInternalServerError, CodeInternal, fmt.Sprintf("persisting job: %v", err))
			return
		}
	}
	job, err := cs.queue.SubmitObserved(ctx, sc, s.observer(id))
	if err != nil {
		if s.store != nil {
			_ = s.store.AppendEvict(id)
		}
		s.mu.Unlock()
		cancel()
		switch {
		case errors.Is(err, lucidscript.ErrQueueFull):
			s.writeError(w, http.StatusTooManyRequests, CodeQueueFull,
				fmt.Sprintf("dataset %q queue is full", req.Dataset))
		case errors.Is(err, lucidscript.ErrQueueClosed):
			s.writeUnavailable(w)
		default:
			s.writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
		}
		return
	}
	rec := &jobRecord{
		id:          id,
		datasetName: d.name,
		idemKey:     key,
		script:      req.Script,
		submitted:   now,
		corpus:      cs,
		job:         job,
		finalized:   make(chan struct{}),
	}
	s.jobs[rec.id] = rec
	if key != "" {
		s.idem[key] = rec
	}
	st := s.status(rec)
	s.mu.Unlock()
	go s.finalizeJob(rec, cancel)
	s.writeJSON(w, http.StatusAccepted, st)
}

// finalizeJob is each job's completion path, run on a per-job goroutine:
// it waits for the job to land, releases the per-job timeout context,
// persists the terminal record (the result carries its own output hash),
// publishes it by closing rec.finalized, and schedules the record's
// eviction after the retention window.
func (s *Server) finalizeJob(rec *jobRecord, cancel context.CancelFunc) {
	<-rec.job.Done()
	cancel()
	res, err := rec.job.Result()
	now := time.Now().UTC()
	st := &JobStatus{
		ID:             rec.id,
		Dataset:        rec.datasetName,
		IdempotencyKey: rec.idemKey,
		CorpusVersion:  rec.corpus.version,
		SubmittedAt:    rec.submitted,
		FinishedAt:     &now,
		Result:         toWireResult(rec.corpus.sys, res),
	}
	if err == nil {
		st.State = StateDone
	} else {
		st.Error = err.Error()
		st.Code = errorCode(err)
		if st.Code == CodeCanceled {
			st.State = StateCanceled
		} else {
			st.State = StateFailed
		}
	}
	rec.terminal = st
	if s.store != nil {
		var raw json.RawMessage
		if st.Result != nil {
			raw, _ = json.Marshal(st.Result)
		}
		_ = s.store.AppendFinish(rec.id, st.State, st.Code, st.Error, raw, now)
	}
	close(rec.finalized)
	s.scheduleEviction(rec, s.cfg.JobRetention)
}

// scheduleEviction removes the job's record — memory and store — once its
// retention window expires. The idempotency key is released only if it
// still points at this record (a later job may have legitimately taken it
// over after an interruption).
func (s *Server) scheduleEviction(rec *jobRecord, after time.Duration) {
	time.AfterFunc(after, func() {
		s.mu.Lock()
		delete(s.jobs, rec.id)
		if rec.idemKey != "" && s.idem[rec.idemKey] == rec {
			delete(s.idem, rec.idemKey)
		}
		s.mu.Unlock()
		if s.store != nil {
			_ = s.store.AppendEvict(rec.id) // ErrClosed after shutdown: fine
		}
	})
}

// jobContext builds the submission-scoped context from per-job options.
// The context is deliberately detached from the HTTP request's — the job
// outlives the POST that created it — so the returned cancel must be
// called when the job lands (or the submission fails).
func jobContext(opts *JobOptions) (context.Context, context.CancelFunc, error) {
	ctx := context.Background()
	if opts == nil || opts.Timeout == "" {
		return ctx, func() {}, nil
	}
	d, err := time.ParseDuration(opts.Timeout)
	if err != nil {
		return nil, func() {}, fmt.Errorf("invalid options.timeout %q: %v", opts.Timeout, err)
	}
	if d <= 0 {
		return nil, func() {}, fmt.Errorf("invalid options.timeout %q: must be positive", opts.Timeout)
	}
	ctx, cancel := context.WithTimeout(ctx, d)
	return ctx, cancel, nil
}

// handleGet reports one job's status.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	rec := s.lookup(r.PathValue("id"))
	if rec == nil {
		s.writeError(w, http.StatusNotFound, CodeNotFound, fmt.Sprintf("no job %q", r.PathValue("id")))
		return
	}
	s.writeJSON(w, http.StatusOK, s.status(rec))
}

// handleCancel cancels one job and returns its (possibly already final)
// status. Canceling a finished job is a no-op, not an error.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	rec := s.lookup(r.PathValue("id"))
	if rec == nil {
		s.writeError(w, http.StatusNotFound, CodeNotFound, fmt.Sprintf("no job %q", r.PathValue("id")))
		return
	}
	if rec.job != nil {
		rec.job.Cancel()
	}
	s.writeJSON(w, http.StatusOK, s.status(rec))
}

// listLimits bound the page size of GET /v1/jobs.
const (
	defaultListLimit = 100
	maxListLimit     = 1000
)

// handleList is GET /v1/jobs?state=&dataset=&limit=&cursor=: one page of
// job statuses in id (submission) order. The cursor is the last returned
// id; pages are stable against eviction and new submissions in the sense
// that every job alive across the whole walk appears exactly once.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	stateFilter := q.Get("state")
	if stateFilter != "" && !ValidState(stateFilter) {
		s.writeError(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Sprintf("unknown state %q (want one of %v)", stateFilter, States))
		return
	}
	datasetFilter := q.Get("dataset")
	limit := defaultListLimit
	if ls := q.Get("limit"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil || n <= 0 {
			s.writeError(w, http.StatusBadRequest, CodeBadRequest, fmt.Sprintf("invalid limit %q: want a positive integer", ls))
			return
		}
		limit = n
		if limit > maxListLimit {
			limit = maxListLimit
		}
	}
	cursor := q.Get("cursor")

	s.mu.RLock()
	recs := make([]*jobRecord, 0, len(s.jobs))
	for _, rec := range s.jobs {
		recs = append(recs, rec)
	}
	s.mu.RUnlock()
	sort.Slice(recs, func(i, j int) bool { return recs[i].id < recs[j].id })

	resp := ListResponse{Jobs: []JobStatus{}}
	for _, rec := range recs {
		if cursor != "" && rec.id <= cursor {
			continue
		}
		if datasetFilter != "" && rec.datasetName != datasetFilter {
			continue
		}
		st := s.status(rec)
		if stateFilter != "" && st.State != stateFilter {
			continue
		}
		if len(resp.Jobs) == limit {
			// One more match exists beyond the page: hand back a cursor.
			resp.NextCursor = resp.Jobs[limit-1].ID
			break
		}
		resp.Jobs = append(resp.Jobs, st)
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// ValidState reports whether st names a wire job state (one of States).
func ValidState(st string) bool {
	for _, s := range States {
		if s == st {
			return true
		}
	}
	return false
}

// handleReload is POST /v1/corpus/{dataset}/reload: re-open the dataset's
// corpus registry and, when a newer version is published, hot-swap it in.
// The swap is a pointer swing: new submissions land on the new generation
// immediately, while jobs already admitted keep running — and hash their
// outputs — on the generation they started with; the retired generation's
// queue drains in the background. Admin-gated by Config.AdminToken.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if s.cfg.AdminToken == "" || r.Header.Get("Authorization") != "Bearer "+s.cfg.AdminToken {
		s.writeError(w, http.StatusForbidden, CodeForbidden, "corpus reload requires a valid admin bearer token")
		return
	}
	if s.draining.Load() {
		s.writeUnavailable(w)
		return
	}
	name := r.PathValue("dataset")
	d, ok := s.datasets[name]
	if !ok {
		s.writeError(w, http.StatusNotFound, CodeUnknownDataset, fmt.Sprintf("unknown dataset %q", name))
		return
	}
	if d.reload == nil {
		s.writeError(w, http.StatusConflict, CodeReloadUnavailable,
			fmt.Sprintf("dataset %q has no corpus registry to reload from", name))
		return
	}
	d.reloadMu.Lock()
	defer d.reloadMu.Unlock()
	prev := d.active.Load()
	sys, version, err := d.reload()
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, CodeReloadFailed,
			fmt.Sprintf("reloading corpus for %q: %v (version %d stays active)", name, err, prev.version))
		return
	}
	resp := ReloadResponse{Dataset: name, Previous: prev.version}
	if version == prev.version {
		resp.CorpusVersion = prev.version
		resp.CorpusScripts = prev.sys.Stats().Scripts
		s.writeJSON(w, http.StatusOK, resp)
		return
	}
	next := s.newCorpusState(sys)
	// The reloader's version is authoritative (a System built straight
	// from the registry already agrees; this covers custom reloaders).
	next.version = version
	d.active.Store(next)
	// Retire the old generation gracefully: stop admission, but run every
	// already-admitted job to completion on its own corpus version.
	go prev.queue.Drain()
	resp.CorpusVersion = next.version
	resp.Changed = true
	resp.CorpusScripts = next.sys.Stats().Scripts
	s.writeJSON(w, http.StatusOK, resp)
}

// handleHealthz reports readiness: per-dataset queue snapshots, aggregate
// queued/running counts, the draining flag, and — on durable servers —
// write-ahead-log lag.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := HealthResponse{Status: "ok", Datasets: map[string]DatasetHealth{}}
	if s.draining.Load() {
		resp.Status = "draining"
		resp.Draining = true
	}
	for name, d := range s.datasets {
		cs := d.active.Load()
		st := cs.queue.Stats()
		resp.QueueDepth += st.Depth
		resp.Running += st.Running
		resp.Datasets[name] = DatasetHealth{
			QueueDepth:    st.Depth,
			QueueCapacity: st.Capacity,
			Workers:       st.Workers,
			Running:       st.Running,
			Submitted:     st.Submitted,
			Rejected:      st.Rejected,
			Completed:     st.Completed,
			Failed:        st.Failed,
			CorpusScripts: cs.sys.Stats().Scripts,
			CorpusVersion: cs.version,
		}
	}
	if s.store != nil {
		lag := s.store.Lag()
		resp.Store = &StoreHealth{
			WALLagEntries: lag.Entries,
			WALLagBytes:   lag.Bytes,
			Compactions:   lag.Compactions,
			Jobs:          s.store.Len(),
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleReadyz is the readiness gate, split out of the always-200
// /healthz: 200 while the server should receive new work, 503 (with the
// uniform retryable error body) once draining began. The boot-time 503 —
// datasets still curating, WAL still replaying — is served by
// BootHandler, which daemons mount on the listener until NewServer
// returns (see cmd/lsserved).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeUnavailable(w)
		return
	}
	s.writeJSON(w, http.StatusOK, ReadyResponse{Status: "ready"})
}

// handleMetrics dumps the configured registry in Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.cfg.Metrics.WritePrometheus(w)
}

// lookup resolves a job id to its record.
func (s *Server) lookup(id string) *jobRecord {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.jobs[id]
}

// status builds the wire status of one job from its live state. The
// terminal branch is gated on rec.finalized — not the job's own State —
// so a status read can never observe a half-published completion: until
// the finalizer has recorded the finish time and result, the job
// reports queued/running.
func (s *Server) status(rec *jobRecord) JobStatus {
	select {
	case <-rec.finalized:
		return *rec.terminal
	default:
	}
	st := JobStatus{
		ID:             rec.id,
		Dataset:        rec.datasetName,
		IdempotencyKey: rec.idemKey,
		SubmittedAt:    rec.submitted,
	}
	if rec.corpus != nil {
		st.CorpusVersion = rec.corpus.version
	}
	if rec.job != nil && rec.job.State() == lucidscript.JobRunning {
		st.State = StateRunning
	} else {
		st.State = StateQueued
	}
	return st
}

// statusFromRecord rebuilds a terminal wire status from its durable form.
func statusFromRecord(rec *store.Record) *JobStatus {
	st := &JobStatus{
		ID:             rec.ID,
		Dataset:        rec.Dataset,
		State:          rec.State,
		Code:           rec.Code,
		Error:          rec.Error,
		IdempotencyKey: rec.IdempotencyKey,
		CorpusVersion:  rec.CorpusVersion,
		SubmittedAt:    rec.SubmittedAt,
	}
	if !rec.FinishedAt.IsZero() {
		fin := rec.FinishedAt
		st.FinishedAt = &fin
	}
	if len(rec.Result) > 0 {
		var res JobResult
		if err := json.Unmarshal(rec.Result, &res); err == nil {
			st.Result = &res
		}
	}
	return st
}

// errorCode maps a job error chain to its machine-readable code. Order
// matters: an injected fault wrapped by the job layer should read as
// fault_injected, not job_panicked.
func errorCode(err error) string {
	switch {
	case errors.Is(err, faults.ErrInjected):
		return CodeFaultInjected
	case errors.Is(err, lucidscript.ErrQueueClosed):
		return CodeShuttingDown
	case errors.Is(err, lucidscript.ErrDeadlineExceeded):
		return CodeDeadlineExceeded
	case errors.Is(err, lucidscript.ErrCanceled):
		return CodeCanceled
	case errors.Is(err, lucidscript.ErrJobPanicked):
		return CodeJobPanicked
	case errors.Is(err, lucidscript.ErrInputScriptFails):
		return CodeInputScriptFails
	}
	return CodeInternal
}

// writeUnavailable is the draining 503.
func (s *Server) writeUnavailable(w http.ResponseWriter) {
	w.Header().Set("Retry-After", RetryAfterSeconds(s.cfg.RetryAfter))
	s.writeErrorBody(w, http.StatusServiceUnavailable, ErrorResponse{
		Code:         CodeShuttingDown,
		Message:      "server is shutting down",
		Retryable:    true,
		RetryAfterMS: s.cfg.RetryAfter.Milliseconds(),
	})
}

// writeError writes a non-2xx JSON error in the uniform shape, deriving
// the retryable bit from the code and attaching Retry-After on 429.
func (s *Server) writeError(w http.ResponseWriter, status int, code, msg string) {
	resp := ErrorResponse{Code: code, Message: msg, Retryable: RetryableCode(code)}
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", RetryAfterSeconds(s.cfg.RetryAfter))
		resp.RetryAfterMS = s.cfg.RetryAfter.Milliseconds()
	}
	s.writeErrorBody(w, status, resp)
}

func (s *Server) writeErrorBody(w http.ResponseWriter, status int, resp ErrorResponse) {
	s.metric(obs.MHTTPErrors, 1)
	s.writeJSON(w, status, resp)
}

// writeJSON writes one JSON response.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// metric updates the server registry.
func (s *Server) metric(name string, delta int64) {
	s.cfg.Metrics.Counter(name).Add(delta)
}

// RetryAfterSeconds renders a duration as the Retry-After header's integer
// seconds, rounding up so "500ms" does not become "0".
func RetryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// closedChan returns an already-closed channel for records that are born
// terminal.
func closedChan() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}
