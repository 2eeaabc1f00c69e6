// Package lucidscript is a Go implementation of LucidScript, the bottom-up
// data-preparation script standardization system from "Toward Standardized
// Data Preparation: A Bottom-Up Approach" (EDBT 2025).
//
// Given a user's straight-line pandas-style script, a corpus of scripts
// that process the same dataset, and the dataset itself, Standardize
// searches for an executable variant of the user script that minimizes the
// relative entropy of its data-preparation-step distribution against the
// corpus while preserving the user's intent within a configurable
// threshold (table Jaccard similarity or downstream model accuracy).
//
// Quick start:
//
//	data, _ := lucidscript.ReadCSVFile("diabetes.csv")
//	corpus := []*lucidscript.Script{ ... }
//	sys, _ := lucidscript.NewSystem(corpus,
//		map[string]*lucidscript.Frame{"diabetes.csv": data},
//		lucidscript.Options{})
//	res, _ := sys.Standardize(userScript)
//	fmt.Print(res.Script.Source())
package lucidscript

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"time"

	"lucidscript/internal/core"
	"lucidscript/internal/dag"
	"lucidscript/internal/entropy"
	"lucidscript/internal/faults"
	"lucidscript/internal/frame"
	"lucidscript/internal/intent"
	"lucidscript/internal/interp"
	"lucidscript/internal/obs"
	"lucidscript/internal/registry"
	"lucidscript/internal/script"
)

// Script is a parsed LSL (pandas-style) data preparation script.
type Script = script.Script

// Frame is a loaded tabular dataset.
type Frame = frame.Frame

// ParseScript parses LSL source into a Script.
func ParseScript(src string) (*Script, error) { return script.Parse(src) }

// ReadCSV parses a CSV stream with type inference into a Frame.
func ReadCSV(r io.Reader) (*Frame, error) { return frame.ReadCSV(r) }

// ReadCSVFile loads a CSV file into a Frame.
func ReadCSVFile(path string) (*Frame, error) { return frame.ReadCSVFile(path) }

// ReadSources loads CSV files as a script's data sources, each keyed by its
// base name, so pd.read_csv("diabetes.csv") resolves to a file passed as
// /path/to/diabetes.csv. Two paths with the same base name are an error.
func ReadSources(paths []string) (map[string]*Frame, error) {
	sources := make(map[string]*Frame, len(paths))
	from := make(map[string]string, len(paths))
	for _, p := range paths {
		base := filepath.Base(p)
		if prev, dup := from[base]; dup {
			return nil, fmt.Errorf("%s and %s share the source name %q", prev, p, base)
		}
		f, err := frame.ReadCSVFile(p)
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", p, err)
		}
		sources[base], from[base] = f, p
	}
	return sources, nil
}

// ExecLimits bounds the resources any single candidate execution may
// consume: cells, rows, columns, and string bytes of any materialized value,
// plus statements per run. A zero field is unlimited; a nil *ExecLimits
// disables the governor entirely (the default — candidate execution is then
// only bounded by Options.Timeout). A candidate that trips a budget is
// quarantined, not fatal: the search completes without it and reports the
// trip in Result.Health.
type ExecLimits = interp.Limits

// DefaultExecLimits returns budgets generous enough for every workload in
// the paper's evaluation while stopping runaway candidates (get_dummies
// column explosions, self-join row blowups, unbounded string concatenation)
// long before they exhaust process memory.
func DefaultExecLimits() *ExecLimits { return interp.DefaultLimits() }

// FaultInjector is the deterministic, seeded chaos-injection hook from the
// fault-containment layer (PR 4), re-exported so service-level stress
// tests can arm faults through Options.Faults. Whether a given injection
// site fires is a pure function of (seed, rule, site, key) — independent
// of timing and goroutine interleaving — so chaos runs are reproducible
// under the race detector.
type FaultInjector = faults.Injector

// StatementError pinpoints the statement at which a governed execution
// failed: its 1-based line, its source text, and the underlying cause.
// Reach it with errors.As on any error returned by the standardization
// entry points.
type StatementError = interp.StmtError

// Health reports how much containment one standardization needed —
// candidates quarantined for contained panics or resource-budget trips
// (per phase), corpus scripts skipped during curation, and whether any
// verification degraded to sampled-tuple mode. The zero value is a fully
// healthy run; see Result.Health.
type Health = core.Health

// PhaseHealth tallies candidate quarantines in one search phase.
type PhaseHealth = core.PhaseHealth

// IntentMeasure selects how user intent preservation is evaluated.
type IntentMeasure string

// The supported user-intent measures.
const (
	// IntentJaccard constrains the table Jaccard similarity (over distinct
	// cell values, the paper's Example 2.1) between the outputs of the
	// input and standardized scripts to be at least Tau.
	IntentJaccard IntentMeasure = "jaccard"
	// IntentModel constrains the relative downstream-model accuracy change
	// to at most Tau percent; requires TargetColumn.
	IntentModel IntentMeasure = "model"
	// IntentRowJaccard constrains the stricter row-multiset Jaccard ≥ Tau.
	IntentRowJaccard IntentMeasure = "row-jaccard"
	// IntentEMD constrains the normalized earth-mover distance between the
	// outputs' numeric column distributions to at most Tau (Section 8's
	// proposed additional measure).
	IntentEMD IntentMeasure = "emd"
	// IntentFairness constrains the change in the downstream model's
	// demographic-parity gap to at most Tau; requires TargetColumn and
	// ProtectedColumn (Section 8's fairness direction).
	IntentFairness IntentMeasure = "fairness"
)

// TauZero requests a literal zero intent threshold. In Options, Tau = 0 is
// the zero value and resolves to the measure's default (see Options.Tau);
// TauZero makes an explicit zero expressible — e.g. an unconstrained
// Jaccard search, or a zero-tolerance model-accuracy constraint.
const TauZero float64 = -1

// Options configures a System. The zero value selects the paper's default
// configuration (seq=16, K=3, diversity and early checking on, τ_J=0.9):
// every zero-valued field resolves to the default documented on it, and
// DefaultOptions returns those resolved values explicitly. Use Validate to
// check a configuration without building a System.
type Options struct {
	// SeqLength is the maximum number of transformations. 0 resolves to
	// the default 16.
	SeqLength int
	// BeamSize is the beam width K. 0 resolves to the default 3.
	BeamSize int
	// Measure selects the intent measure. "" resolves to IntentJaccard.
	Measure IntentMeasure
	// Tau is the intent threshold: minimum Jaccard in [0,1], maximum
	// model-accuracy change in percent, maximum EMD, or maximum fairness
	// gap change, per Measure. 0 resolves to the measure's default (0.9
	// Jaccard/row-Jaccard, 1% model, 0.05 EMD/fairness); use TauZero to
	// request a literal zero threshold.
	Tau float64
	// TargetColumn names the label column for IntentModel and IntentFairness.
	TargetColumn string
	// ProtectedColumn names the protected attribute for IntentFairness.
	ProtectedColumn string
	// Auto derives SeqLength and BeamSize from corpus statistics using the
	// paper's Table 2 instead of the defaults.
	Auto bool
	// Seed drives sampling determinism. 0 resolves to the default 1.
	Seed int64
	// MaxRows caps the rows used during execution checks. 0 resolves to
	// the default 50000; a negative value disables sampling entirely.
	MaxRows int
	// Weights optionally weights each corpus script (parallel to the corpus
	// slice) in the standardness distribution, e.g. by Kaggle vote counts.
	Weights []int
	// BatchWorkers bounds StandardizeBatch's worker pool — how many jobs
	// standardize concurrently. 0 resolves to runtime.GOMAXPROCS(0).
	// Each job's beam search itself runs on one goroutine.
	BatchWorkers int
	// Timeout bounds each Standardize/ParetoFrontier call; 0 means no
	// limit. An expired timeout aborts the search mid-candidate and
	// returns ErrDeadlineExceeded alongside a partial Result.
	Timeout time.Duration
	// Tracer receives structured search events (phase timings, beam
	// extensions, candidate executions/prunings, verification passes,
	// cache traffic). Nil disables tracing with zero overhead.
	// Implementations must be safe for concurrent use: StandardizeBatch
	// and concurrent calls on one System emit from several goroutines.
	Tracer Tracer
	// Metrics, when non-nil, accumulates counters (statements executed,
	// cache hits, beams pruned, verifications, per-phase wall clock)
	// across every call on the System; make one with NewMetrics.
	Metrics *Metrics
	// ExecLimits, when non-nil, installs the per-execution resource
	// governor: candidates whose execution would exceed a budget are
	// quarantined (reported in Result.Health) instead of exhausting the
	// process. Nil — the default — disables the governor with zero
	// overhead; DefaultExecLimits returns the recommended budgets.
	ExecLimits *ExecLimits
	// Faults, when non-nil, arms the deterministic chaos-injection hook at
	// every site the pipeline exposes (interpreter statements, cache steps,
	// curation, batch/queue jobs). It exists for service-level chaos and
	// stress tests — production callers leave it nil, which reduces every
	// injection site to a single pointer check.
	Faults *FaultInjector
}

// DefaultOptions returns the paper's default configuration with every
// derived field resolved to its explicit value, so callers can tweak one
// knob without re-deriving the rest.
func DefaultOptions() Options {
	return Options{
		SeqLength:    16,
		BeamSize:     3,
		Measure:      IntentJaccard,
		Tau:          0.9,
		Seed:         1,
		MaxRows:      50000,
		BatchWorkers: runtime.GOMAXPROCS(0),
	}
}

// defaultTau is the per-measure intent-threshold default.
func defaultTau(m IntentMeasure) float64 {
	switch m {
	case IntentModel:
		return 1
	case IntentEMD, IntentFairness:
		return 0.05
	default:
		return 0.9
	}
}

// resolved returns the options with every zero-valued field replaced by
// its documented default and TauZero mapped to a literal 0.
func (o Options) resolved() Options {
	def := DefaultOptions()
	if o.SeqLength == 0 {
		o.SeqLength = def.SeqLength
	}
	if o.BeamSize == 0 {
		o.BeamSize = def.BeamSize
	}
	if o.Measure == "" {
		o.Measure = IntentJaccard
	}
	switch o.Tau {
	case TauZero:
		o.Tau = 0
	case 0:
		o.Tau = defaultTau(o.Measure)
	}
	if o.Seed == 0 {
		o.Seed = def.Seed
	}
	switch {
	case o.MaxRows == 0:
		o.MaxRows = def.MaxRows
	case o.MaxRows < 0:
		o.MaxRows = 0 // core interprets 0 as "no sampling"
	}
	if o.BatchWorkers == 0 {
		o.BatchWorkers = def.BatchWorkers
	}
	return o
}

// Validate reports whether the options describe a buildable configuration,
// returning a typed error (ErrUnknownMeasure, ErrMissingTargetColumn,
// ErrMissingProtectedColumn, ErrInvalidThreshold) that works with
// errors.Is. Zero-valued fields are valid — they resolve to defaults.
func (o Options) Validate() error {
	switch o.Measure {
	case "", IntentJaccard, IntentRowJaccard, IntentEMD:
	case IntentModel:
		if o.TargetColumn == "" {
			return fmt.Errorf("%w: IntentModel requires TargetColumn", ErrMissingTargetColumn)
		}
	case IntentFairness:
		if o.TargetColumn == "" {
			return fmt.Errorf("%w: IntentFairness requires TargetColumn", ErrMissingTargetColumn)
		}
		if o.ProtectedColumn == "" {
			return fmt.Errorf("%w: IntentFairness requires ProtectedColumn", ErrMissingProtectedColumn)
		}
	default:
		return fmt.Errorf("%w: %q", ErrUnknownMeasure, o.Measure)
	}
	if o.Tau < 0 && o.Tau != TauZero {
		return fmt.Errorf("%w: Tau = %v (negative thresholds are only expressible as TauZero)", ErrInvalidThreshold, o.Tau)
	}
	switch o.Measure {
	case "", IntentJaccard, IntentRowJaccard:
		if o.Tau > 1 {
			return fmt.Errorf("%w: Jaccard Tau = %v exceeds 1", ErrInvalidThreshold, o.Tau)
		}
	}
	if o.SeqLength < 0 || o.BeamSize < 0 || o.BatchWorkers < 0 {
		return fmt.Errorf("%w: SeqLength/BeamSize/BatchWorkers must not be negative", ErrInvalidThreshold)
	}
	if o.Timeout < 0 {
		return fmt.Errorf("%w: Timeout must not be negative", ErrInvalidThreshold)
	}
	return nil
}

// constraint maps resolved options onto the core intent constraint.
// Call only on resolved() options.
func (o Options) constraint() intent.Constraint {
	switch o.Measure {
	case IntentRowJaccard:
		return intent.Constraint{Measure: intent.MeasureRowJaccard, Tau: o.Tau}
	case IntentEMD:
		return intent.Constraint{Measure: intent.MeasureEMD, Tau: o.Tau}
	case IntentModel:
		return intent.Constraint{
			Measure: intent.MeasureModel,
			Tau:     o.Tau,
			Model:   intent.ModelConfig{Target: o.TargetColumn},
		}
	case IntentFairness:
		return intent.Constraint{
			Measure: intent.MeasureFairness,
			Tau:     o.Tau,
			Model:   intent.ModelConfig{Target: o.TargetColumn, Protected: o.ProtectedColumn},
		}
	default:
		return intent.Constraint{Measure: intent.MeasureJaccard, Tau: o.Tau}
	}
}

// The typed errors returned by NewSystem, Validate, and the
// standardization entry points; all work with errors.Is. ErrCanceled and
// ErrDeadlineExceeded additionally match context.Canceled and
// context.DeadlineExceeded respectively.
var (
	// ErrEmptyCorpus is returned when no corpus scripts are supplied.
	ErrEmptyCorpus = errors.New("lucidscript: corpus is empty")
	// ErrMissingTargetColumn is returned when a model-based measure lacks
	// Options.TargetColumn.
	ErrMissingTargetColumn = errors.New("lucidscript: missing target column")
	// ErrMissingProtectedColumn is returned when IntentFairness lacks
	// Options.ProtectedColumn.
	ErrMissingProtectedColumn = errors.New("lucidscript: missing protected column")
	// ErrUnknownMeasure is returned for an unrecognized Options.Measure.
	ErrUnknownMeasure = errors.New("lucidscript: unknown intent measure")
	// ErrInvalidThreshold is returned for an out-of-range Tau or other
	// out-of-range numeric option.
	ErrInvalidThreshold = errors.New("lucidscript: invalid option value")
	// ErrCanceled reports a standardization stopped by context
	// cancellation; a partial Result accompanies it.
	ErrCanceled = core.ErrCanceled
	// ErrDeadlineExceeded reports a standardization stopped by a context
	// deadline or Options.Timeout; a partial Result accompanies it.
	ErrDeadlineExceeded = core.ErrDeadlineExceeded
	// ErrJobPanicked reports that one StandardizeBatch job panicked; the
	// panic is contained to that job's entry in BatchError.
	ErrJobPanicked = core.ErrJobPanicked
	// ErrResourceExhausted reports an execution stopped by an ExecLimits
	// budget. Standardization never returns it for a candidate — budget
	// trips quarantine the candidate and surface in Result.Health — so
	// seeing it from Standardize means the input script itself exceeded a
	// budget (wrapped in ErrInputScriptFails).
	ErrResourceExhausted = interp.ErrResourceExhausted
	// ErrStatementPanicked reports a statement whose execution panicked and
	// was contained at statement granularity. Like ErrResourceExhausted it
	// only escapes to the caller when the input script itself panics.
	ErrStatementPanicked = interp.ErrStatementPanicked
	// ErrInputScriptFails reports that the user's input script failed to
	// execute; the cause (including any *StatementError) is in the chain.
	ErrInputScriptFails = core.ErrInputScriptFails
)

// Tracer receives structured search events during standardization. See
// Options.Tracer; NewWriterTracer and NewCollectTracer are the built-in
// implementations. Implementations must be safe for concurrent use.
type Tracer = obs.Tracer

// TraceEvent is one structured search event: what happened (Kind), when on
// the monotonic clock (Elapsed), in which phase, and the event's payload.
type TraceEvent = obs.Event

// TraceEventKind identifies a TraceEvent's type.
type TraceEventKind = obs.EventKind

// The trace event kinds, re-exported for event filtering.
const (
	TraceCurateDone        = obs.EvCurateDone
	TraceSearchStart       = obs.EvSearchStart
	TraceCandidateExecuted = obs.EvCandidateExecuted
	TraceCandidatePruned   = obs.EvCandidatePruned
	TraceBeamExtended      = obs.EvBeamExtended
	TraceStepDone          = obs.EvStepDone
	TraceCacheReport       = obs.EvCacheReport
	TraceVerifyStart       = obs.EvVerifyStart
	TraceVerifyPass        = obs.EvVerifyPass
	TraceVerifyDone        = obs.EvVerifyDone
	TraceSearchDone        = obs.EvSearchDone
	TraceCanceled          = obs.EvCanceled
	// TraceCandidateQuarantined reports a candidate dropped for a contained
	// panic or a resource-budget trip (Detail is "panic" or "exhausted").
	TraceCandidateQuarantined = obs.EvCandidateQuarantined
	// TraceVerifyDegraded reports a verification that fell back to
	// sampled-tuple mode after a budget trip (N is the sample size).
	TraceVerifyDegraded = obs.EvVerifyDegraded
	// TraceCurateSkipped reports a corpus script skipped during curation.
	TraceCurateSkipped = obs.EvCurateSkipped
)

// NewWriterTracer returns a tracer that writes one line per event to w,
// serialized by an internal mutex (suitable for stderr progress streams).
func NewWriterTracer(w io.Writer) Tracer { return obs.NewWriterTracer(w) }

// CollectTracer accumulates events in memory for programmatic inspection.
type CollectTracer = obs.CollectTracer

// NewCollectTracer returns an empty in-memory tracer.
func NewCollectTracer() *CollectTracer { return obs.NewCollectTracer() }

// Metrics is an atomic registry of cumulative counters maintained by the
// search (see Options.Metrics). Dump it with WritePrometheus.
type Metrics = obs.Metrics

// NewMetrics returns an empty private metrics registry.
func NewMetrics() *Metrics { return obs.NewMetrics() }

// The metric names maintained by the search, re-exported for
// Metrics.Value lookups. Prometheus dumps prefix each with "lucidscript_".
const (
	MetricStatementsExecuted = obs.MStatementsExecuted
	MetricStatementsSkipped  = obs.MStatementsSkipped
	MetricCacheHits          = obs.MCacheHits
	MetricCacheMisses        = obs.MCacheMisses
	MetricCacheEvictions     = obs.MCacheEvictions
	MetricExecChecks         = obs.MExecChecks
	MetricCandidatesAdmitted = obs.MCandidatesAdmitted
	MetricCandidatesPruned   = obs.MCandidatesPruned
	MetricBeamsPruned        = obs.MBeamsPruned
	MetricVerifications      = obs.MVerifications
	MetricSearches           = obs.MSearches
	MetricSearchesCanceled   = obs.MSearchesCanceled

	// Fault-isolation counters: quarantined candidates (with their panic /
	// budget-trip split), degraded verifications, and curation skips.
	MetricCandidatesQuarantined = obs.MCandidatesQuarantined
	MetricStatementPanics       = obs.MStatementPanics
	MetricBudgetExhaustions     = obs.MBudgetExhaustions
	MetricVerifyDegraded        = obs.MVerifyDegraded
	MetricCurateSkipped         = obs.MCurateSkipped

	// Δ_J verification counters: checks read back from a frame's Jaccard
	// memo, checks rejected by the set-size bound, and value sets built.
	MetricJaccardMemoHits     = obs.MJaccardMemoHits
	MetricJaccardBoundRejects = obs.MJaccardBoundRejects
	MetricValueSetsBuilt      = obs.MValueSetsBuilt
)

// Timings is the per-phase wall-clock breakdown of one standardization
// (the paper's Figure 7 decomposition); see core.Timings for the fields.
type Timings = core.Timings

// Transformation is one applied add or delete of a line atom at a
// position (Definition 3.4); String renders it as "add @2: <step>".
type Transformation = core.Transformation

// Explanation justifies one applied transformation: its corpus frequency,
// its RE delta and a one-sentence rationale. See System.Explain.
type Explanation = core.Explanation

// Result reports one standardization: the standardized Script ŝ_u (the
// input when no admissible improvement exists), the RE scores and the
// paper's % improvement, the measured intent value, the Applied
// transformation sequence, the execution-prefix CacheStats, the per-phase
// Timings, and the containment Health needed. A non-zero Health is
// informational: the output equals what the same search would produce
// without the quarantined candidates.
type Result = core.Result

// System is a standardizer bound to one corpus and dataset; it is safe to
// reuse for many input scripts (the search space is curated once).
type System struct {
	std          *core.Standardizer
	timeout      time.Duration
	batchWorkers int
}

// NewSystem curates the search space from the corpus and dataset. Options
// are validated first (see Options.Validate for the typed errors) and
// zero-valued fields resolve to the documented defaults.
func NewSystem(corpus []*Script, sources map[string]*Frame, opts Options) (*System, error) {
	if len(corpus) == 0 {
		return nil, ErrEmptyCorpus
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.resolved()
	cc := core.CurateWeightedFaults(corpus, opts.Weights, sources, opts.Faults)
	return newSystem(cc, len(corpus), opts), nil
}

// newSystem binds a curated corpus to resolved options. With Options.Auto,
// seq and K follow the paper's Table 2 rule over numScripts and the
// corpus's unique edges.
func newSystem(cc *core.CuratedCorpus, numScripts int, opts Options) *System {
	cfg := core.DefaultConfig()
	cfg.SeqLength = opts.SeqLength
	cfg.BeamSize = opts.BeamSize
	if opts.Auto {
		cfg.SeqLength, cfg.BeamSize = core.AutoConfig(numScripts, cc.Vocab.NumUniqueEdges())
	}
	cfg.Seed = opts.Seed
	cfg.MaxRows = opts.MaxRows
	cfg.Tracer = opts.Tracer
	cfg.Metrics = opts.Metrics
	cfg.Limits = opts.ExecLimits
	cfg.Faults = opts.Faults
	cfg.Constraint = opts.constraint()
	return &System{std: core.FromCorpus(cc, cfg), timeout: opts.Timeout, batchWorkers: opts.BatchWorkers}
}

// Standardize returns the standardized version of the input script. It is
// StandardizeContext with a background context; Options.Timeout still
// applies.
func (s *System) Standardize(input *Script) (*Result, error) {
	return s.StandardizeContext(context.Background(), input)
}

// StandardizeContext standardizes the input under a context. Cancellation
// is honored at statement granularity inside the interpreter and between
// beam extensions, so a deadline aborts mid-candidate; Options.Timeout,
// when set, bounds the call on top of ctx. On cancellation it returns
// ErrCanceled or ErrDeadlineExceeded (matching the equivalent context
// errors under errors.Is) together with a partial, non-nil Result — the
// best verified candidate found so far, the input script if verification
// had not begun, or nil if the input itself never finished executing.
func (s *System) StandardizeContext(ctx context.Context, input *Script) (*Result, error) {
	ctx, cancel := s.searchContext(ctx)
	defer cancel()
	return s.std.StandardizeContext(ctx, input)
}

// BatchError aggregates per-job failures from StandardizeBatch. Errs is
// index-aligned with the submitted jobs: Errs[i] is nil when job i
// succeeded. errors.Is/As see every per-job error through Unwrap.
type BatchError struct {
	// Errs holds one entry per job, nil for jobs that succeeded.
	Errs []error
}

// Error summarizes how many jobs failed and quotes the first failure.
func (e *BatchError) Error() string {
	failed, total := 0, len(e.Errs)
	var first error
	for _, err := range e.Errs {
		if err != nil {
			if first == nil {
				first = err
			}
			failed++
		}
	}
	if first == nil {
		return fmt.Sprintf("lucidscript: batch of %d jobs failed", total)
	}
	return fmt.Sprintf("lucidscript: %d of %d jobs failed (first: %v)", failed, total, first)
}

// Unwrap exposes the non-nil per-job errors to errors.Is and errors.As.
func (e *BatchError) Unwrap() []error {
	var errs []error
	for _, err := range e.Errs {
		if err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

// StandardizeBatch standardizes every job concurrently over one shared
// curated corpus and one shared execution-prefix cache, on a job queue of
// Options.BatchWorkers workers (so a batch moves the queue counters of
// Options.Metrics too). It is StandardizeBatchContext with a background
// context.
func (s *System) StandardizeBatch(jobs []*Script) ([]*Result, error) {
	return s.StandardizeBatchContext(context.Background(), jobs)
}

// StandardizeBatchContext is StandardizeBatch under a context. Results are
// index-aligned with jobs and deterministic: each job's output is
// byte-identical to a sequential Standardize of the same script. Failures
// are per-job — an execution error, an Options.Timeout expiry
// (ErrDeadlineExceeded, applied to each job individually), or even a panic
// (ErrJobPanicked) in one job leaves the others untouched; the failed job's
// Result is its partial result or nil. Canceling ctx stops the whole batch.
// When any job fails the returned error is a *BatchError whose Errs slice
// is parallel to jobs.
func (s *System) StandardizeBatchContext(ctx context.Context, jobs []*Script) ([]*Result, error) {
	results, errs := s.std.StandardizeBatch(ctx, s.batchWorkers, s.timeout, jobs)
	for _, err := range errs {
		if err != nil {
			return results, &BatchError{Errs: errs}
		}
	}
	return results, nil
}

// searchContext applies Options.Timeout to the caller's context.
func (s *System) searchContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.timeout > 0 {
		return context.WithTimeout(ctx, s.timeout)
	}
	return ctx, func() {}
}

// Explain justifies each transformation res applied, in order: the
// search path is replayed from the lemmatized input, and each step reports
// its corpus frequency, its RE delta and a rationale. res must come from
// this System (its corpus scores the replay). Nil when nothing was applied.
func (s *System) Explain(res *Result) []Explanation { return s.std.ExplainResult(res) }

// ParetoPoint is one point of the intent-threshold / standardness
// trade-off curve: the threshold explored (Tau), the standardness
// improvement achievable at it, and the measured intent value.
type ParetoPoint = core.ParetoPoint

// ParetoFrontier explores several intent thresholds with a single beam
// search, returning the achievable improvement at each (Section 8's
// proposed configuration-exploration extension). Thresholds follow the
// system's configured measure.
func (s *System) ParetoFrontier(input *Script, taus []float64) ([]ParetoPoint, error) {
	return s.ParetoFrontierContext(context.Background(), input, taus)
}

// ParetoFrontierContext is ParetoFrontier with cancellation. Unlike
// StandardizeContext it returns no points on cancellation — a partially
// explored trade-off curve would be misleading — so the error (ErrCanceled
// or ErrDeadlineExceeded) comes back alone. Options.Timeout applies here
// too.
func (s *System) ParetoFrontierContext(ctx context.Context, input *Script, taus []float64) ([]ParetoPoint, error) {
	ctx, cancel := s.searchContext(ctx)
	defer cancel()
	return s.std.ParetoFrontierContext(ctx, input, taus)
}

// CorpusStats summarizes the curated search space.
type CorpusStats struct {
	Scripts        int
	UniqueUnigrams int
	UniqueNgrams   int
	UniqueEdges    int
}

// CurateDiagnostic records one corpus script that curation skipped instead
// of letting its failure abort NewSystem; Err wraps the contained cause.
type CurateDiagnostic = core.CurateDiagnostic

// CurationDiagnostics lists the corpus scripts skipped while curating this
// System's search space. Empty on a healthy corpus.
func (s *System) CurationDiagnostics() []CurateDiagnostic {
	return s.std.Corpus.Diagnostics
}

// Stats returns the corpus statistics used by Table 3 and AutoConfig.
func (s *System) Stats() CorpusStats {
	v := s.std.Corpus.Vocab
	return CorpusStats{
		Scripts:        v.NumScripts,
		UniqueUnigrams: v.NumUniqueUnigrams(),
		UniqueNgrams:   v.NumUniqueLines(),
		UniqueEdges:    v.NumUniqueEdges(),
	}
}

// NewSystemFromRegistry builds a System over a corpus registry snapshot
// plus the input dataset: the registry's already-folded search space is
// installed directly (curation is never re-run), and the snapshot's
// version is stamped onto the corpus so serving layers can report — and
// fault keys can include — exactly which corpus generation a job ran
// against. Options apply as in NewSystem. The registry's vocabulary is
// immutable, so the System stays valid even as the registry itself moves
// to newer versions.
func NewSystemFromRegistry(reg *registry.Registry, sources map[string]*Frame, opts Options) (*System, error) {
	vocab := reg.Vocab()
	if vocab.NumScripts == 0 {
		return nil, ErrEmptyCorpus
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	cc := &core.CuratedCorpus{Vocab: vocab, Sources: sources, Version: reg.Version()}
	return newSystem(cc, vocab.NumScripts, opts.resolved()), nil
}

// CorpusVersion reports the registry snapshot version this System's corpus
// came from, 0 when the corpus was curated in-process and never versioned.
func (s *System) CorpusVersion() int64 { return s.std.Corpus.Version }

// Anomaly flags one out-of-the-ordinary step of a script: its 1-based
// line in the lemmatized script, the canonical step text, the fraction of
// corpus scripts using it, and the standardness gain from removing it.
type Anomaly = core.Anomaly

// DetectAnomalies lists the script's steps used by fewer than maxFrequency
// of corpus scripts (0 selects the default 0.1), ordered by the standardness
// gain their removal would yield — the read-only "identify anomalous data
// preparation steps" usage of Section 6.6.
func (s *System) DetectAnomalies(sc *Script, maxFrequency float64) []Anomaly {
	return s.std.DetectAnomalies(sc, maxFrequency)
}

// AnomalyReport renders DetectAnomalies as a human-readable block.
func (s *System) AnomalyReport(sc *Script, maxFrequency float64) string {
	return s.std.AnomalyReport(sc, maxFrequency)
}

// RE computes the standardness (relative entropy) of a script against this
// system's corpus. Lower is more standard.
func (s *System) RE(sc *Script) float64 {
	return s.std.Corpus.Vocab.RE(dag.Build(sc))
}

// Improvement returns the paper's % improvement between two RE values.
func Improvement(before, after float64) float64 {
	return entropy.Improvement(before, after)
}
