package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The metric names the search layer maintains. Counters are cumulative
// across every standardization that shares the registry; phase gauges hold
// nanoseconds of wall clock accumulated per phase.
const (
	MStatementsExecuted = "statements_executed_total"
	MStatementsSkipped  = "statements_skipped_total"
	MCacheHits          = "exec_cache_hits_total"
	MCacheMisses        = "exec_cache_misses_total"
	MCacheEvictions     = "exec_cache_evictions_total"
	MExecChecks         = "exec_checks_total"
	MCandidatesAdmitted = "candidates_admitted_total"
	MCandidatesPruned   = "candidates_pruned_total"
	MBeamsPruned        = "beams_pruned_total"
	MVerifications      = "verifications_total"
	MSearches           = "searches_total"
	MSearchesCanceled   = "searches_canceled_total"
	// Containment metrics: quarantines split by cause and phase totals.
	MCandidatesQuarantined = "candidates_quarantined_total"
	MStatementPanics       = "statement_panics_total"
	MBudgetExhaustions     = "budget_exhaustions_total"
	MVerifyDegraded        = "verifications_degraded_total"
	MCurateSkipped         = "curate_scripts_skipped_total"
	// Δ_J verification: checks settled from a frame's Jaccard memo or by
	// the set-size bound, and the value sets built for the rest.
	MJaccardMemoHits     = "jaccard_memo_hits_total"
	MJaccardBoundRejects = "jaccard_bound_rejects_total"
	MValueSetsBuilt      = "value_sets_built_total"
	// Service metrics: job-queue admission and HTTP traffic. MQueueDepth
	// is a gauge (enqueue +1 / dequeue -1); the rest are counters.
	MQueueDepth         = "queue_depth"
	MJobsSubmitted      = "queue_jobs_submitted_total"
	MJobsRejected       = "queue_jobs_rejected_total"
	MJobsCompleted      = "queue_jobs_completed_total"
	MJobsFailed         = "queue_jobs_failed_total"
	MHTTPRequests       = "http_requests_total"
	MHTTPErrors         = "http_errors_total"
	MPhaseCurateNanos   = "phase_curate_nanoseconds_total"
	MPhaseGetStepsNanos = "phase_getsteps_nanoseconds_total"
	MPhaseTopKNanos     = "phase_topk_nanoseconds_total"
	MPhaseCheckNanos    = "phase_check_nanoseconds_total"
	MPhaseVerifyNanos   = "phase_verify_nanoseconds_total"
	MPhaseTotalNanos    = "phase_total_nanoseconds_total"
)

// Counter is a single atomic cumulative metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// AddDuration accumulates a wall-clock duration in nanoseconds.
func (c *Counter) AddDuration(d time.Duration) { c.v.Add(int64(d)) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Metrics is a named registry of atomic counters/gauges. Counter updates
// are lock-free; the registry mutex only guards name registration, so a
// caller on a hot path resolves its counters once and increments them
// without touching the map. The zero value is not usable — call NewMetrics.
type Metrics struct {
	mu       sync.Mutex
	counters map[string]*Counter
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{counters: map[string]*Counter{}}
}

// Counter returns the named counter, creating it at zero on first use.
func (m *Metrics) Counter(name string) *Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.counters[name]
	if !ok {
		c = &Counter{}
		m.counters[name] = c
	}
	return c
}

// Add increments the named counter by delta (a convenience for cold paths).
func (m *Metrics) Add(name string, delta int64) { m.Counter(name).Add(delta) }

// Value returns the named counter's value (0 if never touched).
func (m *Metrics) Value(name string) int64 {
	m.mu.Lock()
	c, ok := m.counters[name]
	m.mu.Unlock()
	if !ok {
		return 0
	}
	return c.Value()
}

// Names returns the registered metric names, sorted.
func (m *Metrics) Names() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.counters))
	for n := range m.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// snapshot returns a sorted, consistent name → value copy.
func (m *Metrics) snapshot() ([]string, map[string]int64) {
	m.mu.Lock()
	vals := make(map[string]int64, len(m.counters))
	names := make([]string, 0, len(m.counters))
	for n, c := range m.counters {
		names = append(names, n)
		vals[n] = c.Value()
	}
	m.mu.Unlock()
	sort.Strings(names)
	return names, vals
}

// WritePrometheus dumps every metric in Prometheus text exposition format,
// sorted by name and prefixed with "lucidscript_".
func (m *Metrics) WritePrometheus(w io.Writer) error {
	names, vals := m.snapshot()
	for _, n := range names {
		full := "lucidscript_" + n
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", full, full, vals[n]); err != nil {
			return err
		}
	}
	return nil
}
