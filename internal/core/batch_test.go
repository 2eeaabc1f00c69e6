package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"lucidscript/internal/obs"
	"lucidscript/internal/script"
)

// batchJobs builds n distinct user scripts against the diabetes fixtures:
// each is the paper's Figure 1a sketch with a varying age filter, so every
// job exercises the full search but no two are the same statement sequence.
func batchJobs(t testing.TB, n int) []*script.Script {
	t.Helper()
	jobs := make([]*script.Script, n)
	for i := range jobs {
		src := fmt.Sprintf(`import pandas as pd
df = pd.read_csv("diabetes.csv")
df = df.fillna(df.median())
df = df[df["Age"].between(18, %d)]
df = pd.get_dummies(df)
`, 25+i)
		jobs[i] = script.MustParse(src)
	}
	return jobs
}

func TestNewQueueResolvesWorkers(t *testing.T) {
	st := newStandardizer(t, DefaultConfig())
	for _, tc := range []struct{ workers, want int }{{0, runtime.GOMAXPROCS(0)}, {3, 3}} {
		q := st.NewQueue(tc.workers, 0, 1)
		if got := q.Stats().Workers; got != tc.want {
			t.Errorf("Stats().Workers = %d with workers=%d, want %d", got, tc.workers, tc.want)
		}
		q.Close()
	}
}

func TestStandardizeBatchEmpty(t *testing.T) {
	st := newStandardizer(t, DefaultConfig())
	res, errs := st.StandardizeBatch(context.Background(), 2, 0, nil)
	if len(res) != 0 || len(errs) != 0 {
		t.Fatalf("empty batch returned %d results, %d errors", len(res), len(errs))
	}
}

// TestStandardizeBatchMatchesSequential is the determinism contract: each
// batch job's output must be byte-identical to a sequential Standardize of
// the same script on the same corpus, despite the shared session cache and
// arbitrary goroutine interleaving.
func TestStandardizeBatchMatchesSequential(t *testing.T) {
	st := newStandardizer(t, DefaultConfig())
	jobs := batchJobs(t, 6)

	want := make([]*Result, len(jobs))
	for i, su := range jobs {
		res, err := st.Standardize(su)
		if err != nil {
			t.Fatalf("sequential job %d: %v", i, err)
		}
		want[i] = res
	}

	got, errs := st.StandardizeBatch(context.Background(), 4, 0, jobs)
	if len(got) != len(jobs) || len(errs) != len(jobs) {
		t.Fatalf("batch returned %d results, %d errors for %d jobs", len(got), len(errs), len(jobs))
	}
	for i := range jobs {
		if errs[i] != nil {
			t.Fatalf("batch job %d: %v", i, errs[i])
		}
		if got[i] == nil {
			t.Fatalf("batch job %d: nil result", i)
		}
		if g, w := got[i].Script.Source(), want[i].Script.Source(); g != w {
			t.Errorf("job %d output diverges from sequential:\nbatch:\n%s\nsequential:\n%s", i, g, w)
		}
		if got[i].REBefore != want[i].REBefore || got[i].REAfter != want[i].REAfter {
			t.Errorf("job %d RE (%.6f -> %.6f) != sequential (%.6f -> %.6f)",
				i, got[i].REBefore, got[i].REAfter, want[i].REBefore, want[i].REAfter)
		}
		if len(got[i].Applied) != len(want[i].Applied) {
			t.Errorf("job %d applied %d transformations, sequential %d",
				i, len(got[i].Applied), len(want[i].Applied))
		}
	}
}

// TestStandardizeBatchSharesCache asserts the batch actually reuses the
// shared execution-prefix cache: across all jobs at least one statement
// execution must be a cache hit (every job starts with the same read_csv
// prefix), and per-job stats must be attributed to the job that saw them.
func TestStandardizeBatchSharesCache(t *testing.T) {
	st := newStandardizer(t, DefaultConfig())
	jobs := batchJobs(t, 4)
	res, errs := st.StandardizeBatch(context.Background(), 2, 0, jobs)
	var totalHits, totalExec int64
	for i := range jobs {
		if errs[i] != nil {
			t.Fatalf("job %d: %v", i, errs[i])
		}
		cs := res[i].CacheStats
		if cs.Hits != cs.StmtsSkipped {
			t.Errorf("job %d: Hits=%d != StmtsSkipped=%d", i, cs.Hits, cs.StmtsSkipped)
		}
		if cs.Misses != cs.StmtsExecuted {
			t.Errorf("job %d: Misses=%d != StmtsExecuted=%d", i, cs.Misses, cs.StmtsExecuted)
		}
		totalHits += cs.Hits
		totalExec += cs.StmtsExecuted
	}
	if totalExec == 0 {
		t.Fatal("no statements executed across the batch")
	}
	if totalHits == 0 {
		t.Error("shared session cache saw zero hits across 4 sibling jobs")
	}
}

// TestStandardizeBatchPanicIsolation submits one job that panics inside the
// search (a nil script makes dag.Build dereference nil) and asserts the
// panic is converted to that job's error while every other job completes.
func TestStandardizeBatchPanicIsolation(t *testing.T) {
	st := newStandardizer(t, DefaultConfig())
	jobs := batchJobs(t, 3)
	jobs[1] = nil // panics inside the job goroutine
	res, errs := st.StandardizeBatch(context.Background(), 2, 0, jobs)
	if errs[1] == nil || !errors.Is(errs[1], ErrJobPanicked) {
		t.Fatalf("job 1 error = %v, want ErrJobPanicked", errs[1])
	}
	if res[1] != nil {
		t.Fatalf("panicked job returned a result: %+v", res[1])
	}
	for _, i := range []int{0, 2} {
		if errs[i] != nil {
			t.Errorf("healthy job %d failed: %v", i, errs[i])
		}
		if res[i] == nil {
			t.Errorf("healthy job %d returned nil result", i)
		}
	}
}

// TestStandardizeBatchPerJobTimeout gives each job an unmeetable deadline
// and asserts every job individually reports ErrDeadlineExceeded instead of
// one expiry aborting the batch with a single error.
func TestStandardizeBatchPerJobTimeout(t *testing.T) {
	st := newStandardizer(t, DefaultConfig())
	jobs := batchJobs(t, 3)
	_, errs := st.StandardizeBatch(context.Background(), 2, time.Nanosecond, jobs)
	for i, err := range errs {
		if !errors.Is(err, ErrDeadlineExceeded) {
			t.Errorf("job %d error = %v, want ErrDeadlineExceeded", i, err)
		}
	}
}

func TestStandardizeBatchCanceledContext(t *testing.T) {
	st := newStandardizer(t, DefaultConfig())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, errs := st.StandardizeBatch(ctx, 2, 0, batchJobs(t, 3))
	for i, err := range errs {
		if !errors.Is(err, ErrCanceled) {
			t.Errorf("job %d error = %v, want ErrCanceled", i, err)
		}
	}
}

// TestStandardizeBatchTraceAttribution runs a traced batch and asserts
// every search event carries its job's 1-based index, so one shared tracer
// can untangle the interleaved streams.
func TestStandardizeBatchTraceAttribution(t *testing.T) {
	cfg := DefaultConfig()
	tr := obs.NewCollectTracer()
	cfg.Tracer = tr
	st := newStandardizer(t, cfg)
	jobs := batchJobs(t, 3)
	_, errs := st.StandardizeBatch(context.Background(), 2, 0, jobs)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	seen := map[int]bool{}
	for _, ev := range tr.Events() {
		if ev.Job < 1 || ev.Job > len(jobs) {
			t.Fatalf("event %s carries job index %d, want 1..%d", ev.Kind, ev.Job, len(jobs))
		}
		if ev.Kind == obs.EvSearchDone {
			seen[ev.Job] = true
		}
	}
	for j := 1; j <= len(jobs); j++ {
		if !seen[j] {
			t.Errorf("no search_done event attributed to job %d", j)
		}
	}
}
