// Package core implements LucidScript's search framework (Section 5): the
// transformation space over line atoms, the beam search of Algorithm 1–2,
// the K-means transformation-diversity variant of Algorithm 3, monotonicity,
// early/late execution checking, and input sampling. Given a user script, a
// corpus, and a user-intent constraint, Standardize returns an executable
// script with minimal relative entropy w.r.t. the corpus.
package core

import (
	"time"

	"lucidscript/internal/faults"
	"lucidscript/internal/intent"
	"lucidscript/internal/interp"
	"lucidscript/internal/obs"
)

// Config holds the search parameters of Algorithm 1.
type Config struct {
	// SeqLength is the maximum number of transformations (stopping criterion).
	SeqLength int
	// BeamSize is K, the number of in-progress candidates retained.
	BeamSize int
	// Diversity enables the K-means diverse beam extension (Algorithm 3).
	Diversity bool
	// Clusters is M, the number of K-means clusters for diversity.
	Clusters int
	// EarlyCheck is α: verify the execution constraint after every
	// transformation (true) or only at the end (false).
	EarlyCheck bool
	// StepLimit bounds how many ranked transformations are examined per beam
	// extension; 0 means all. The ranked prefix is where beam entries come
	// from, so a moderate limit trades little quality for much less work.
	StepLimit int
	// MaxRows triggers input sampling (optimization 5) when a source frame
	// exceeds it; 0 disables sampling.
	MaxRows int
	// DisableLookahead turns off the chained-delete lookahead that ranks
	// deletes of corpus-unseen atom blocks by their full-block payoff
	// (an extension beyond the paper; see DESIGN.md).
	DisableLookahead bool
	// Workers > 1 extends the beams of each search step concurrently
	// (the parallelism the paper proposes in Section 6.5). Results are
	// deterministic for a fixed configuration, but candidate de-duplication
	// happens per beam rather than across beams, so outputs can differ
	// slightly from the sequential search.
	Workers int
	// VerifyLimit bounds how many final candidates are intent-verified;
	// 0 (the default) verifies the whole archive. Candidate outputs and
	// model accuracies are cached, and the archive is bounded by
	// seq × K², so unlimited verification stays cheap — a positive limit
	// is only useful to cap worst-case latency.
	VerifyLimit int
	// Seed drives sampling and any stochastic tie-breaking.
	Seed int64
	// ExecCache enables the prefix-memoized execution cache: candidate
	// scripts share the interpreter work of every previously executed
	// statement prefix. Results are identical with the cache on or off.
	ExecCache bool
	// ExecCacheSize bounds the cache trie's node count; 0 means the
	// interp.DefaultCacheSize default.
	ExecCacheSize int
	// Limits is the per-candidate resource governor applied to every
	// interpreter run (early checks, verification, batch jobs). A candidate
	// that trips a budget is quarantined — dropped and tallied in
	// Result.Health — never allowed to abort the search. Nil disables the
	// governor.
	Limits *interp.Limits
	// Faults is the deterministic chaos-injection hook threaded into the
	// interpreter, exec cache, curation, and batch engine. Nil (the
	// production default) reduces every injection site to a pointer check.
	Faults *faults.Injector
	// Constraint is the user-intent constraint (τ and measure).
	Constraint intent.Constraint
	// Tracer receives structured search events (see internal/obs); nil
	// disables tracing entirely — the search hot path never constructs an
	// event unless a tracer is installed.
	Tracer obs.Tracer
	// Metrics, when non-nil, accumulates the obs counters (statements
	// executed, cache traffic, beams pruned, verifications, per-phase wall
	// clock) across every standardization run with this config.
	Metrics *obs.Metrics
}

// DefaultConfig returns the paper's default LS configuration
// (Section 6.1.5): seq=16, K=3, diversity on, early checking on, τ_J=0.9.
func DefaultConfig() Config {
	return Config{
		SeqLength:   16,
		BeamSize:    3,
		Diversity:   true,
		Clusters:    3,
		EarlyCheck:  true,
		StepLimit:   64,
		MaxRows:     50000,
		VerifyLimit: 0,
		Seed:        1,
		ExecCache:   true,
		Constraint:  intent.Constraint{Measure: intent.MeasureJaccard, Tau: 0.9},
	}
}

// AutoConfig returns the recommended seq and K for a corpus, following the
// paper's Table 2: large corpora (>10 scripts) get seq=16, small get seq=8;
// diverse corpora (>300 unique edges) get K=3, otherwise K=1.
func AutoConfig(numScripts, uniqueEdges int) (seq, beam int) {
	seq = 8
	if numScripts > 10 {
		seq = 16
	}
	beam = 1
	if uniqueEdges > 300 {
		beam = 3
	}
	return seq, beam
}

// Timings is the per-phase wall-clock breakdown of one standardization,
// the paper's Figure 7 decomposition. In parallel searches the per-phase
// entries accumulate CPU time across workers, so their sum can exceed
// Total.
type Timings struct {
	// CurateSearchSpace is the offline corpus-curation time (paid once per
	// System and reported on every Result).
	CurateSearchSpace time.Duration
	// GetSteps ranks candidate transformations.
	GetSteps time.Duration
	// GetTopKBeams extends and selects beams.
	GetTopKBeams time.Duration
	// CheckIfExecutes verifies the execution constraint.
	CheckIfExecutes time.Duration
	// VerifyConstraints verifies the user-intent constraint.
	VerifyConstraints time.Duration
	// Total is the end-to-end wall clock of the call.
	Total time.Duration
}
