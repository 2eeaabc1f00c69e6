// Package obs provides structured observability for the standardization
// pipeline: a Tracer interface that receives search events with monotonic
// per-phase timings, and an atomic Metrics registry exported as a
// Prometheus text dump.
//
// Observability is strictly pay-for-what-you-use: a nil Tracer and a nil
// *Metrics disable every emission at the call site, so the search hot path
// carries no tracing cost unless a caller opts in.
package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// EventKind identifies what a trace Event records.
type EventKind string

// The search event kinds, in the order they typically occur.
const (
	// EvCurateDone reports the offline phase: the corpus search space is
	// curated (Dur holds the curation time, N the corpus size).
	EvCurateDone EventKind = "curate_done"
	// EvSearchStart opens one standardization (N = input script lines).
	EvSearchStart EventKind = "search_start"
	// EvCandidateExecuted records an interpreter run of one candidate
	// (Dur = execution time; Detail distinguishes input/candidate/verify).
	EvCandidateExecuted EventKind = "candidate_executed"
	// EvCandidatePruned records a candidate rejected by the early execution
	// check (Err holds the interpreter failure).
	EvCandidatePruned EventKind = "candidate_pruned"
	// EvCandidateQuarantined records a candidate dropped because it panicked
	// or exhausted a resource budget — a containment event, distinct from an
	// ordinary execution-failure prune (Detail = panic|exhausted, Err holds
	// the contained failure).
	EvCandidateQuarantined EventKind = "candidate_quarantined"
	// EvVerifyDegraded records a verification that fell back to
	// sampled-tuple mode because the candidate's full-data run exceeded its
	// resource budget (N = sample rows used).
	EvVerifyDegraded EventKind = "verify_degraded"
	// EvCurateSkipped records a corpus script dropped during curation
	// because it failed to lemmatize (N = script index, Err the cause).
	EvCurateSkipped EventKind = "curate_skipped"
	// EvBeamExtended reports one parent beam fully extended
	// (N = candidates admitted from this parent).
	EvBeamExtended EventKind = "beam_extended"
	// EvStepDone closes one beam-search step (Step is 1-based,
	// N = candidates admitted across all parents, Dur = step wall time).
	EvStepDone EventKind = "step_done"
	// EvCacheReport aggregates execution-prefix cache traffic since the
	// previous report (N = hits, N2 = misses). Per-statement hit/miss events
	// would dominate the stream, so the tracer sees per-step deltas.
	EvCacheReport EventKind = "cache_report"
	// EvVerifyStart opens VerifyAllConstraints for one grid cell
	// (N = eligible candidates).
	EvVerifyStart EventKind = "verify_start"
	// EvVerifyPass records an accepted candidate (Detail = intent value).
	EvVerifyPass EventKind = "verify_pass"
	// EvVerifyDone closes one grid cell's verification
	// (N = candidates examined, Dur = verification wall time).
	EvVerifyDone EventKind = "verify_done"
	// EvSearchDone closes the standardization (Dur = total wall time).
	EvSearchDone EventKind = "search_done"
	// EvCanceled reports that the search stopped on a context cancellation
	// or deadline (Err holds the cause).
	EvCanceled EventKind = "canceled"
)

// The search phases used in Event.Phase and as pprof label values.
const (
	PhaseCurate = "curate"
	PhaseExtend = "extend"
	PhaseCheck  = "check"
	PhaseVerify = "verify"
)

// Event is one structured trace record. Elapsed is measured on the
// monotonic clock from the start of the standardization, so an ordered
// event stream reconciles with the search's total wall time.
type Event struct {
	// Kind identifies the event.
	Kind EventKind
	// Job is the 1-based batch job index the event belongs to, 0 for
	// single-shot standardizations (see JobTracer).
	Job int
	// Elapsed is the monotonic offset since the search started.
	Elapsed time.Duration
	// Phase is the search phase (curate, extend, check, verify).
	Phase string
	// Step is the 1-based beam-search step, 0 when not applicable.
	Step int
	// N and N2 carry the event's cardinalities (see the kind docs).
	N, N2 int
	// Dur is the duration of the traced unit, when meaningful.
	Dur time.Duration
	// Detail carries human-readable specifics.
	Detail string
	// Err holds the failure text for pruned/canceled events.
	Err string
}

// String renders the event as one stable, human-readable line.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "+%-11s %-7s %-18s", e.Elapsed.Round(time.Microsecond), e.Phase, e.Kind)
	if e.Job > 0 {
		fmt.Fprintf(&b, " job=%d", e.Job)
	}
	if e.Step > 0 {
		fmt.Fprintf(&b, " step=%d", e.Step)
	}
	if e.N != 0 || e.Kind == EvStepDone || e.Kind == EvBeamExtended || e.Kind == EvCacheReport {
		fmt.Fprintf(&b, " n=%d", e.N)
	}
	if e.N2 != 0 || e.Kind == EvCacheReport {
		fmt.Fprintf(&b, " n2=%d", e.N2)
	}
	if e.Dur != 0 {
		fmt.Fprintf(&b, " dur=%s", e.Dur.Round(time.Microsecond))
	}
	if e.Detail != "" {
		fmt.Fprintf(&b, " %s", e.Detail)
	}
	if e.Err != "" {
		fmt.Fprintf(&b, " err=%q", e.Err)
	}
	return b.String()
}

// Tracer receives structured search events. Implementations must be safe
// for concurrent use: the jobs of a batch or a queue emit from their own
// worker goroutines into one tracer.
type Tracer interface {
	Emit(Event)
}

// WriterTracer writes one line per event to an io.Writer, serialized by an
// internal mutex. It backs `lsstd -trace`'s stderr progress stream.
type WriterTracer struct {
	mu sync.Mutex
	w  io.Writer
}

// NewWriterTracer returns a line-per-event tracer over w.
func NewWriterTracer(w io.Writer) *WriterTracer { return &WriterTracer{w: w} }

// Emit writes the event as one line.
func (t *WriterTracer) Emit(e Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	fmt.Fprintln(t.w, e.String())
}

// CollectTracer accumulates events in memory, for tests and programmatic
// inspection.
type CollectTracer struct {
	mu     sync.Mutex
	events []Event
}

// NewCollectTracer returns an empty collecting tracer.
func NewCollectTracer() *CollectTracer { return &CollectTracer{} }

// Emit appends the event.
func (t *CollectTracer) Emit(e Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events = append(t.events, e)
}

// Events returns a snapshot of the collected events in emission order.
func (t *CollectTracer) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.events...)
}

// jobTracer stamps every event with a batch job index before forwarding.
type jobTracer struct {
	t   Tracer
	job int
}

func (j jobTracer) Emit(e Event) {
	e.Job = j.job
	j.t.Emit(e)
}

// JobTracer wraps t so every emitted event carries the 1-based batch job
// index, letting one shared tracer attribute interleaved events from
// concurrent jobs. A nil t stays nil (tracing disabled).
func JobTracer(t Tracer, job int) Tracer {
	if t == nil {
		return nil
	}
	return jobTracer{t: t, job: job}
}
