package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"lucidscript/internal/frame"
	"lucidscript/internal/obs"
	"lucidscript/internal/script"
)

func TestStandardizeContextPreCanceled(t *testing.T) {
	st := newStandardizer(t, DefaultConfig())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := st.StandardizeContext(ctx, script.MustParse(userScript))
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v should also match context.Canceled", err)
	}
	if res != nil {
		// The input never executed, so no partial result exists here.
		t.Fatalf("pre-canceled search returned a result: %+v", res)
	}
}

func TestStandardizeContextDeadlinePartialResult(t *testing.T) {
	// A dataset large enough that the full search takes well over the
	// deadline, so the 1ms timer reliably fires mid-search.
	cfg := DefaultConfig()
	sources := map[string]*frame.Frame{"diabetes.csv": diabetesFrame(t, 20000)}
	st := New(medicalCorpus(t), sources, cfg)
	input := script.MustParse(userScript)

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := st.StandardizeContext(ctx, input)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v should also match context.DeadlineExceeded", err)
	}
	// Promptness: a canceled search must not run to completion. The bound
	// is generous for CI noise; the real budget is ~10ms.
	if elapsed > 2*time.Second {
		t.Fatalf("canceled search took %s", elapsed)
	}
	if res != nil {
		// When the input itself executed before the deadline, the partial
		// result must fall back to the input script.
		if res.Output.Source() != script.MustParse(userScript).Source() {
			t.Fatalf("partial result output is not the input:\n%s", res.Output.Source())
		}
		if res.ImprovementPct != 0 {
			t.Fatalf("partial fallback claims improvement %.2f%%", res.ImprovementPct)
		}
	}
}

// cancelOnStep cancels the context the first time a given beam step
// completes, producing a deterministic mid-search cancellation.
type cancelOnStep struct {
	step   int
	cancel context.CancelFunc
}

func (c *cancelOnStep) Emit(e obs.Event) {
	if e.Kind == obs.EvStepDone && e.Step >= c.step {
		c.cancel()
	}
}

func TestStandardizeContextMidSearchCancel(t *testing.T) {
	cfg := DefaultConfig()
	ctx, cancel := context.WithCancel(context.Background())
	cfg.Tracer = &cancelOnStep{step: 1, cancel: cancel}
	st := newStandardizer(t, cfg)
	res, err := st.StandardizeContext(ctx, script.MustParse(userScript))
	cancel()
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if res == nil {
		t.Fatal("mid-search cancel should return a partial result")
	}
	// The partial result is the constraint-checked fallback: the input.
	if res.ImprovementPct != 0 {
		t.Fatal("partial result claims improvement")
	}
	if res.Timings.Total <= 0 {
		t.Fatal("partial result missing timings")
	}
}

// TestStandardizerReusableAfterCancel cancels one search and immediately
// runs another on the same Standardizer: the memoized sampled sources and
// curated vocabulary must be unaffected by the abort.
func TestStandardizerReusableAfterCancel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SeqLength = 6
	st := newStandardizer(t, cfg)
	input := script.MustParse(userScript)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := st.StandardizeContext(ctx, input); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled run: %v", err)
	}
	res, err := st.Standardize(input)
	if err != nil {
		t.Fatalf("follow-up run: %v", err)
	}
	if res.ImprovementPct <= 0 {
		t.Fatalf("follow-up run found no improvement: %+v", res)
	}
}

func TestTraceEventsOrderedAndReconcile(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SeqLength = 6
	tr := obs.NewCollectTracer()
	cfg.Tracer = tr
	st := newStandardizer(t, cfg)
	res, err := st.Standardize(script.MustParse(userScript))
	if err != nil {
		t.Fatal(err)
	}
	events := tr.Events()
	if len(events) < 4 {
		t.Fatalf("too few events: %d", len(events))
	}
	if events[0].Kind != obs.EvCurateDone {
		t.Fatalf("first event = %s, want curate_done", events[0].Kind)
	}
	if events[1].Kind != obs.EvSearchStart {
		t.Fatalf("second event = %s, want search_start", events[1].Kind)
	}
	last := events[len(events)-1]
	if last.Kind != obs.EvSearchDone {
		t.Fatalf("last event = %s, want search_done", last.Kind)
	}
	// The closing event's duration is the search's total wall clock.
	if last.Dur != res.Timings.Total {
		t.Fatalf("search_done dur %s != Timings.Total %s", last.Dur, res.Timings.Total)
	}
	// Monotonic elapsed stamps (sequential search ⇒ emission order).
	var prev time.Duration
	var steps, verifies int
	var stepDur time.Duration
	for i, e := range events {
		if e.Elapsed < prev {
			t.Fatalf("event %d (%s) elapsed %s < previous %s", i, e.Kind, e.Elapsed, prev)
		}
		prev = e.Elapsed
		switch e.Kind {
		case obs.EvStepDone:
			steps++
			stepDur += e.Dur
		case obs.EvVerifyDone:
			verifies++
		}
	}
	if steps == 0 || verifies != 1 {
		t.Fatalf("steps=%d verifies=%d", steps, verifies)
	}
	// Summed phase durations stay within the total (they are a subset of it).
	if stepDur > res.Timings.Total {
		t.Fatalf("summed step durations %s exceed total %s", stepDur, res.Timings.Total)
	}
}

func TestMetricsMatchResult(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SeqLength = 6
	m := obs.NewMetrics()
	cfg.Metrics = m
	st := newStandardizer(t, cfg)
	res, err := st.Standardize(script.MustParse(userScript))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.Value(obs.MSearches), int64(1); got != want {
		t.Fatalf("searches = %d", got)
	}
	if got := m.Value(obs.MSearchesCanceled); got != 0 {
		t.Fatalf("canceled = %d", got)
	}
	if got, want := m.Value(obs.MCacheHits), res.CacheStats.Hits; got != want {
		t.Fatalf("cache hits metric %d != result %d", got, want)
	}
	if got, want := m.Value(obs.MCacheMisses), res.CacheStats.Misses; got != want {
		t.Fatalf("cache misses metric %d != result %d", got, want)
	}
	if got, want := m.Value(obs.MStatementsExecuted), res.CacheStats.StmtsExecuted; got != want {
		t.Fatalf("statements executed metric %d != result %d", got, want)
	}
	if got, want := m.Value(obs.MExecChecks), int64(res.ExecChecks); got != want {
		t.Fatalf("exec checks metric %d != result %d", got, want)
	}
	if m.Value(obs.MPhaseTotalNanos) != int64(res.Timings.Total) {
		t.Fatalf("total nanos metric %d != %d", m.Value(obs.MPhaseTotalNanos), int64(res.Timings.Total))
	}
	if m.Value(obs.MVerifications) == 0 || m.Value(obs.MCandidatesAdmitted) == 0 {
		t.Fatalf("verify/admit counters empty: %v", m.Names())
	}
}

// TestTracerDoesNotChangeResult guards the pay-for-what-you-use contract:
// tracing must observe the search, never steer it.
func TestTracerDoesNotChangeResult(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SeqLength = 6
	plain := newStandardizer(t, cfg)
	resPlain, err := plain.Standardize(script.MustParse(userScript))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Tracer = obs.NewCollectTracer()
	cfg.Metrics = obs.NewMetrics()
	traced := newStandardizer(t, cfg)
	resTraced, err := traced.Standardize(script.MustParse(userScript))
	if err != nil {
		t.Fatal(err)
	}
	if resPlain.Output.Source() != resTraced.Output.Source() {
		t.Fatalf("tracing changed the output:\n%s\nvs\n%s", resPlain.Output.Source(), resTraced.Output.Source())
	}
	if resPlain.REAfter != resTraced.REAfter {
		t.Fatalf("tracing changed RE: %f vs %f", resPlain.REAfter, resTraced.REAfter)
	}
}
