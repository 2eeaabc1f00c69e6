package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"lucidscript/internal/serve"
)

// Replica names one fronted lsserved process.
type Replica struct {
	// Name is the replica's stable identity — it prefixes every job id
	// the router hands out ("r1.j-00000042") and is the unit the ring
	// hashes over, so it must stay the same across restarts of the same
	// data dir. Letters, digits, '-' and '_' only.
	Name string
	// BaseURL is the replica's root, e.g. "http://127.0.0.1:8081".
	BaseURL string
}

// Config tunes a Router. The zero value of every field resolves to the
// default documented on it; Replicas is the only required field.
type Config struct {
	// Replicas is the fixed replica set the router fronts. Readiness is
	// dynamic (probed), membership is not.
	Replicas []Replica
	// ProbeInterval is the background readiness-probe cadence; ≤ 0
	// resolves to 500ms.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe round trip; ≤ 0 resolves to 2s.
	ProbeTimeout time.Duration
	// Rise is how many consecutive successful probes flip a replica
	// ready; ≤ 0 resolves to 2. Fall is the symmetric ejection count;
	// ≤ 0 resolves to 2.
	Rise, Fall int
	// ShedDepth sheds submissions for a shard once its owner's
	// last-reported queue depth for that dataset reaches this value —
	// a router-level 429 before the replica itself would saturate.
	// ≤ 0 disables the extra tier (the replica's own 429 still applies).
	ShedDepth int
	// RetryAfter is the back-off hint attached to every 429/503 the
	// router originates; ≤ 0 resolves to 1s.
	RetryAfter time.Duration
	// HTTPClient carries proxied requests and probes; nil resolves to a
	// client with a 60s timeout.
	HTTPClient *http.Client
}

func (c Config) withDefaults() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.Rise <= 0 {
		c.Rise = 2
	}
	if c.Fall <= 0 {
		c.Fall = 2
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{Timeout: 60 * time.Second}
	}
	return c
}

var replicaName = regexp.MustCompile(`^[A-Za-z0-9_-]+$`)

// Router fronts the replica set: one HTTP surface speaking the same v1
// API as a single lsserved, with every dataset consistent-hashed onto
// one ready replica. Build with New, call Start for background probes,
// mount Handler, and Stop on the way out.
type Router struct {
	cfg      Config
	replicas map[string]*replica
	names    []string // sorted

	startOnce sync.Once
	stop      context.CancelFunc
	wg        sync.WaitGroup
}

// New builds a router over the configured replicas. Every replica starts
// unready — call Start (or ProbeAll) before serving traffic.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("router: no replicas configured")
	}
	rt := &Router{cfg: cfg, replicas: make(map[string]*replica, len(cfg.Replicas))}
	for _, r := range cfg.Replicas {
		if !replicaName.MatchString(r.Name) {
			return nil, fmt.Errorf("router: bad replica name %q (want letters, digits, '-', '_')", r.Name)
		}
		if r.BaseURL == "" {
			return nil, fmt.Errorf("router: replica %q has no base URL", r.Name)
		}
		if _, dup := rt.replicas[r.Name]; dup {
			return nil, fmt.Errorf("router: duplicate replica name %q", r.Name)
		}
		base := strings.TrimRight(r.BaseURL, "/")
		rt.replicas[r.Name] = &replica{
			name: r.Name,
			base: base,
			cli:  serve.NewClient(base, cfg.HTTPClient),
		}
		rt.names = append(rt.names, r.Name)
	}
	sort.Strings(rt.names)
	return rt, nil
}

// ring snapshots the ready replicas into a Ring. It is rebuilt per
// request — membership is tiny and the probe state is the only shared
// mutable input.
func (rt *Router) ring() Ring {
	ready := make([]string, 0, len(rt.names))
	for _, name := range rt.names {
		if rt.replicas[name].isReady() {
			ready = append(ready, name)
		}
	}
	return NewRing(ready)
}

// Owner reports which replica currently owns a dataset's shard, and
// false when no replica is ready.
func (rt *Router) Owner(dataset string) (string, bool) {
	return rt.ring().Owner(dataset)
}

// Handler returns the router's routes — the same v1 surface a single
// replica serves, plus the router's own /healthz and /readyz.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", rt.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", rt.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", rt.handleJob(http.MethodGet))
	mux.HandleFunc("DELETE /v1/jobs/{id}", rt.handleJob(http.MethodDelete))
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /readyz", rt.handleReadyz)
	return mux
}

// handleSubmit routes POST /v1/jobs: the dataset names the shard, the
// ring names the owner, and the request is proxied there byte-for-byte
// (idempotency key included) so the replica's admission control,
// idempotency table, and WAL see exactly what a direct client would
// send. The two router-originated failures are load shedding (429, the
// shard's reported queue depth crossed Config.ShedDepth) and ownerless
// shards (503 + Retry-After while a failover is in progress).
func (rt *Router) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
	if err != nil {
		rt.writeError(w, http.StatusBadRequest, serve.CodeBadRequest, fmt.Sprintf("reading request body: %v", err))
		return
	}
	var req serve.SubmitRequest
	if err := json.Unmarshal(body, &req); err != nil {
		rt.writeError(w, http.StatusBadRequest, serve.CodeBadRequest, fmt.Sprintf("decoding request body: %v", err))
		return
	}
	owner, ok := rt.ring().Owner(req.Dataset)
	if !ok {
		rt.writeUnavailable(w, fmt.Sprintf("no ready replica owns dataset %q", req.Dataset))
		return
	}
	rep := rt.replicas[owner]
	if rt.cfg.ShedDepth > 0 {
		if depth, known := rep.shardDepth(req.Dataset); known && depth >= rt.cfg.ShedDepth {
			rt.writeShed(w, req.Dataset, owner, depth)
			return
		}
	}
	preq, err := http.NewRequestWithContext(r.Context(), http.MethodPost, rep.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		rt.writeError(w, http.StatusInternalServerError, serve.CodeInternal, err.Error())
		return
	}
	preq.Header.Set("Content-Type", "application/json")
	if key := r.Header.Get("Idempotency-Key"); key != "" {
		preq.Header.Set("Idempotency-Key", key)
	}
	rt.proxyJobResponse(w, rep, preq)
}

// handleJob routes GET/DELETE /v1/jobs/{id}: the replica prefix minted
// at submission names the shard owner directly — no ring lookup, so
// status polls and cancels reach the right replica even while the ring
// is failing the dataset over to another owner.
func (rt *Router) handleJob(method string) func(http.ResponseWriter, *http.Request) {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		name, rest, ok := splitJobID(id)
		rep := rt.replicas[name]
		if !ok || rep == nil {
			rt.writeError(w, http.StatusNotFound, serve.CodeNotFound, fmt.Sprintf("no job %q (want <replica>.<job-id>)", id))
			return
		}
		preq, err := http.NewRequestWithContext(r.Context(), method, rep.base+"/v1/jobs/"+rest, nil)
		if err != nil {
			rt.writeError(w, http.StatusInternalServerError, serve.CodeInternal, err.Error())
			return
		}
		rt.proxyJobResponse(w, rep, preq)
	}
}

// proxyJobResponse performs one proxied round trip whose success body is
// a JobStatus, rewriting the job id into the router's namespaced form. A
// replica that cannot be reached at all yields a retryable 503 — the
// Retry-After window is the client's cue to come back once the prober
// has ejected the replica and failed its shards over — and counts
// against the replica's readiness streak immediately.
func (rt *Router) proxyJobResponse(w http.ResponseWriter, rep *replica, preq *http.Request) {
	resp, err := rt.cfg.HTTPClient.Do(preq)
	if err != nil {
		rep.markFailed(err, rt.cfg.Fall)
		rt.writeUnavailable(w, fmt.Sprintf("replica %q unreachable: %v", rep.name, err))
		return
	}
	defer resp.Body.Close()
	copyHeader(w, resp, "Retry-After")
	copyHeader(w, resp, "Idempotency-Replayed")
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		copyHeader(w, resp, "Content-Type")
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
		return
	}
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		rt.writeError(w, http.StatusBadGateway, serve.CodeInternal,
			fmt.Sprintf("replica %q sent an undecodable job status: %v", rep.name, err))
		return
	}
	st.ID = joinJobID(rep.name, st.ID)
	rt.writeJSON(w, resp.StatusCode, st)
}

// listLimits mirror the replica-side page bounds.
const (
	defaultListLimit = 100
	maxListLimit     = 1000
)

// handleList is the fan-out-and-merge GET /v1/jobs: every replica's full
// (state/dataset-filtered) listing is collected, ids are namespaced, and
// one merged page in id order is returned with the same cursor contract
// a single replica offers. Replicas that cannot be reached are skipped —
// a listing taken during a replica outage covers the survivors (their
// jobs reappear once the replica recovers; the router's /healthz says
// which replicas are out).
func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	state := q.Get("state")
	if state != "" && !serve.ValidState(state) {
		rt.writeError(w, http.StatusBadRequest, serve.CodeBadRequest,
			fmt.Sprintf("unknown state %q (want one of %v)", state, serve.States))
		return
	}
	dataset := q.Get("dataset")
	limit := defaultListLimit
	if ls := q.Get("limit"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil || n <= 0 {
			rt.writeError(w, http.StatusBadRequest, serve.CodeBadRequest,
				fmt.Sprintf("invalid limit %q: want a positive integer", ls))
			return
		}
		if n > maxListLimit {
			n = maxListLimit
		}
		limit = n
	}
	cursor := q.Get("cursor")

	type shard struct {
		name string
		jobs []serve.JobStatus
		err  error
	}
	results := make([]shard, len(rt.names))
	var wg sync.WaitGroup
	for i, name := range rt.names {
		i, rep := i, rt.replicas[rt.names[i]]
		_ = name
		wg.Add(1)
		go func() {
			defer wg.Done()
			jobs, err := rep.cli.AllJobs(r.Context(), serve.ListJobsQuery{
				State: state, Dataset: dataset, Limit: maxListLimit,
			})
			results[i] = shard{name: rep.name, jobs: jobs, err: err}
		}()
	}
	wg.Wait()

	var merged []serve.JobStatus
	for _, sh := range results {
		if sh.err != nil {
			continue
		}
		for _, st := range sh.jobs {
			st.ID = joinJobID(sh.name, st.ID)
			merged = append(merged, st)
		}
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].ID < merged[j].ID })

	resp := serve.ListResponse{Jobs: []serve.JobStatus{}}
	for _, st := range merged {
		if cursor != "" && st.ID <= cursor {
			continue
		}
		if len(resp.Jobs) == limit {
			resp.NextCursor = resp.Jobs[limit-1].ID
			break
		}
		resp.Jobs = append(resp.Jobs, st)
	}
	rt.writeJSON(w, http.StatusOK, resp)
}

// Health is the router's GET /healthz payload: always 200, machine-
// readable cluster state.
type Health struct {
	// Status is "ok" when every replica is ready, "degraded" when some
	// are not, and "unavailable" when none are.
	Status string `json:"status"`
	// ReadyReplicas / Replicas describe the probe state per replica.
	ReadyReplicas int             `json:"ready_replicas"`
	Replicas      []ReplicaStatus `json:"replicas"`
	// Shards maps every dataset any replica reports hosting to the
	// replica that currently owns its shard ("" while no owner is ready).
	Shards map[string]string `json:"shards,omitempty"`
}

// handleHealthz reports cluster liveness — always 200; readiness is
// /readyz's job.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := Health{Shards: map[string]string{}}
	ring := rt.ring()
	for _, name := range rt.names {
		st := rt.replicas[name].snapshot()
		if st.Ready {
			h.ReadyReplicas++
		}
		for ds := range st.Datasets {
			if _, seen := h.Shards[ds]; !seen {
				owner, _ := ring.Owner(ds)
				h.Shards[ds] = owner
			}
		}
		h.Replicas = append(h.Replicas, st)
	}
	switch {
	case h.ReadyReplicas == len(rt.names):
		h.Status = "ok"
	case h.ReadyReplicas > 0:
		h.Status = "degraded"
	default:
		h.Status = "unavailable"
	}
	rt.writeJSON(w, http.StatusOK, h)
}

// handleReadyz reports whether the router can route anything at all: 200
// once at least one replica is ready, 503 + Retry-After otherwise.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if rt.ring().Len() == 0 {
		rt.writeUnavailable(w, "no replica is ready")
		return
	}
	rt.writeJSON(w, http.StatusOK, serve.ReadyResponse{Status: "ready"})
}

// joinJobID namespaces a replica-local job id with its replica's name;
// splitJobID inverts it. The separator cannot appear in replica names
// (enforced by New), so the split is unambiguous.
func joinJobID(replica, id string) string { return replica + "." + id }

func splitJobID(id string) (replica, rest string, ok bool) {
	replica, rest, ok = strings.Cut(id, ".")
	if !ok || replica == "" || rest == "" {
		return "", "", false
	}
	return replica, rest, true
}

// copyHeader forwards one header from a proxied response when present.
func copyHeader(w http.ResponseWriter, resp *http.Response, name string) {
	if v := resp.Header.Get(name); v != "" {
		w.Header().Set(name, v)
	}
}

// writeUnavailable is the router-originated retryable 503: no ready
// owner for the shard (failover in progress) or an unreachable replica.
func (rt *Router) writeUnavailable(w http.ResponseWriter, msg string) {
	w.Header().Set("Retry-After", serve.RetryAfterSeconds(rt.cfg.RetryAfter))
	rt.writeJSON(w, http.StatusServiceUnavailable, serve.ErrorResponse{
		Code:         serve.CodeNoReplica,
		Message:      msg,
		Retryable:    true,
		RetryAfterMS: rt.cfg.RetryAfter.Milliseconds(),
	})
}

// writeShed is the router-level 429: the shard's owner reported a queue
// depth at or over Config.ShedDepth, so the router sheds before the
// replica saturates.
func (rt *Router) writeShed(w http.ResponseWriter, dataset, owner string, depth int) {
	w.Header().Set("Retry-After", serve.RetryAfterSeconds(rt.cfg.RetryAfter))
	rt.writeJSON(w, http.StatusTooManyRequests, serve.ErrorResponse{
		Code:         serve.CodeRouterShed,
		Message:      fmt.Sprintf("shard %q on replica %q is saturated (queue depth %d)", dataset, owner, depth),
		Retryable:    true,
		RetryAfterMS: rt.cfg.RetryAfter.Milliseconds(),
	})
}

// writeError writes one router-originated error in the uniform shape.
func (rt *Router) writeError(w http.ResponseWriter, status int, code, msg string) {
	rt.writeJSON(w, status, serve.ErrorResponse{Code: code, Message: msg, Retryable: serve.RetryableCode(code)})
}

func (rt *Router) writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
