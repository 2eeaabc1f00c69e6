package core

import (
	"context"
	"runtime/pprof"
	"time"

	"lucidscript/internal/interp"
	"lucidscript/internal/obs"
)

// obsState carries one standardization's observability plumbing: the tracer
// and metrics registry from the Config, the monotonic start time every
// event's Elapsed is stamped against, and pre-labeled pprof contexts so CPU
// profiles attribute samples to the curate/extend/check/verify phases.
//
// Everything degrades to near-zero cost when unused: emit returns on a nil
// tracer before building anything, and the pprof label contexts are plain
// derived contexts whose labels only matter while a profile is running.
type obsState struct {
	tr      obs.Tracer
	metrics *obs.Metrics
	start   time.Time

	// Phase-labeled contexts (cancellation chains through all of them).
	ctxExtend, ctxCheck, ctxVerify context.Context

	// Cache traffic already reported via EvCacheReport (main loop only).
	lastHits, lastMisses int64
}

func newObsState(ctx context.Context, cfg Config) *obsState {
	return &obsState{
		tr:        cfg.Tracer,
		metrics:   cfg.Metrics,
		start:     time.Now(),
		ctxExtend: pprof.WithLabels(ctx, pprof.Labels("ls_phase", obs.PhaseExtend)),
		ctxCheck:  pprof.WithLabels(ctx, pprof.Labels("ls_phase", obs.PhaseCheck)),
		ctxVerify: pprof.WithLabels(ctx, pprof.Labels("ls_phase", obs.PhaseVerify)),
	}
}

// enabled reports whether any tracer is installed; hot paths gate event
// construction on it.
func (o *obsState) enabled() bool { return o.tr != nil }

// emit stamps the event with the monotonic elapsed time and forwards it.
func (o *obsState) emit(e obs.Event) {
	if o.tr == nil {
		return
	}
	e.Elapsed = time.Since(o.start)
	o.tr.Emit(e)
}

// emitCacheDelta reports execution-prefix cache traffic accumulated since
// the previous report as one aggregated event (per-statement hit/miss
// events would dominate the stream). Main-loop only — not goroutine-safe.
func (o *obsState) emitCacheDelta(sess interp.Session, step int) {
	if o.tr == nil || sess == nil {
		return
	}
	s := sess.Stats()
	dh, dm := s.Hits-o.lastHits, s.Misses-o.lastMisses
	o.lastHits, o.lastMisses = s.Hits, s.Misses
	if dh == 0 && dm == 0 {
		return
	}
	o.emit(obs.Event{Kind: obs.EvCacheReport, Phase: obs.PhaseCheck, Step: step, N: int(dh), N2: int(dm)})
}

// gridStats accumulates one StandardizeGrid call's counts for the metrics
// registry.
type gridStats struct {
	execChecks     int    // interpreter runs (input + early checks + verify)
	admitted       int    // candidates admitted into the archive
	prunedChecks   int    // candidates rejected by the early execution check
	beamsPruned    int    // admitted candidates dropped by top-K selection
	verified       int    // candidates examined by VerifyAllConstraints
	canceled       bool   // the search stopped on a context cancellation
	health         Health // quarantines and curation skips, call-wide
	verifyDegraded int    // grid cells that fell back to sampled-tuple mode
}

// finalize folds one completed (or canceled) standardization into the
// metrics registry.
func (o *obsState) finalize(res *Result, cacheStats interp.CacheStats, gs gridStats) {
	m := o.metrics
	if m == nil {
		return
	}
	m.Counter(obs.MSearches).Inc()
	if gs.canceled {
		m.Counter(obs.MSearchesCanceled).Inc()
	}
	m.Counter(obs.MExecChecks).Add(int64(gs.execChecks))
	m.Counter(obs.MCandidatesAdmitted).Add(int64(gs.admitted))
	m.Counter(obs.MCandidatesPruned).Add(int64(gs.prunedChecks))
	m.Counter(obs.MBeamsPruned).Add(int64(gs.beamsPruned))
	m.Counter(obs.MVerifications).Add(int64(gs.verified))
	m.Counter(obs.MCandidatesQuarantined).Add(int64(gs.health.Total()))
	m.Counter(obs.MStatementPanics).Add(int64(gs.health.Check.Panicked + gs.health.Verify.Panicked))
	m.Counter(obs.MBudgetExhaustions).Add(int64(gs.health.Check.Exhausted + gs.health.Verify.Exhausted))
	m.Counter(obs.MVerifyDegraded).Add(int64(gs.verifyDegraded))
	m.Counter(obs.MCurateSkipped).Add(int64(gs.health.CurateSkipped))
	m.Counter(obs.MStatementsExecuted).Add(cacheStats.StmtsExecuted)
	m.Counter(obs.MStatementsSkipped).Add(cacheStats.StmtsSkipped)
	m.Counter(obs.MCacheHits).Add(cacheStats.Hits)
	m.Counter(obs.MCacheMisses).Add(cacheStats.Misses)
	m.Counter(obs.MCacheEvictions).Add(cacheStats.Evictions)
	t := res.Timings
	m.Counter(obs.MPhaseCurateNanos).AddDuration(t.CurateSearchSpace)
	m.Counter(obs.MPhaseGetStepsNanos).AddDuration(t.GetSteps)
	m.Counter(obs.MPhaseTopKNanos).AddDuration(t.GetTopKBeams)
	m.Counter(obs.MPhaseCheckNanos).AddDuration(t.CheckIfExecutes)
	m.Counter(obs.MPhaseVerifyNanos).AddDuration(t.VerifyConstraints)
	m.Counter(obs.MPhaseTotalNanos).AddDuration(t.Total)
}
