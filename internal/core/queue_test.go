package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lucidscript/internal/faults"
	"lucidscript/internal/gen"
	"lucidscript/internal/obs"
)

// TestQueueMatchesSequential is the queue's determinism contract: a job
// submitted through the long-lived queue returns byte-identical output to
// a direct sequential Standardize of the same script.
func TestQueueMatchesSequential(t *testing.T) {
	cfg := DefaultConfig()
	st := newStandardizer(t, cfg)
	q := st.NewQueue(2, 0, 8)
	defer q.Close()

	jobs := batchJobs(t, 4)
	want := make([]string, len(jobs))
	for i, su := range jobs {
		res, err := st.Standardize(su)
		if err != nil {
			t.Fatalf("sequential %d: %v", i, err)
		}
		want[i] = res.Script.Source()
	}

	handles := make([]*QueuedJob, len(jobs))
	for i, su := range jobs {
		h, err := q.Submit(context.Background(), su)
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		if h.ID() != int64(i) {
			t.Fatalf("job %d got queue id %d", i, h.ID())
		}
		handles[i] = h
	}
	for i, h := range handles {
		res, err := h.Wait(context.Background())
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if res.Script.Source() != want[i] {
			t.Errorf("job %d queue output diverges from sequential", i)
		}
		if h.State() != JobDone {
			t.Errorf("job %d state = %v after Wait, want JobDone", i, h.State())
		}
	}

	st2 := q.Stats()
	if st2.Submitted != int64(len(jobs)) || st2.Completed != int64(len(jobs)) || st2.Failed != 0 {
		t.Errorf("stats = %+v, want %d submitted/completed, 0 failed", st2, len(jobs))
	}
}

// TestQueueFullRejects: admission control must reject, not block, when the
// buffer is at capacity — and a metrics registry must see the rejection.
func TestQueueFullRejects(t *testing.T) {
	cfg := DefaultConfig()
	// Stall the single worker deterministically so submitted jobs stay
	// buffered: every job sleeps before starting its search.
	cfg.Faults = faults.New(3, faults.Rule{
		Site: faults.SiteBatchJob, Kind: faults.KindDelay, Prob: 1, Delay: 200 * time.Millisecond,
	})
	cfg.Metrics = obs.NewMetrics()
	st := newStandardizer(t, cfg)
	q := st.NewQueue(1, 0, 1)
	defer q.Close()

	jobs := batchJobs(t, 3)
	first, err := q.Submit(context.Background(), jobs[0])
	if err != nil {
		t.Fatalf("Submit 0: %v", err)
	}
	// Wait until the worker picked the first job up, so the buffer is
	// empty and the second submission deterministically parks in it.
	for first.State() == JobQueued {
		time.Sleep(time.Millisecond)
	}
	if _, err := q.Submit(context.Background(), jobs[1]); err != nil {
		t.Fatalf("Submit 1: %v", err)
	}
	if _, err := q.Submit(context.Background(), jobs[2]); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Submit 2 err = %v, want ErrQueueFull", err)
	}
	if got := q.Stats().Rejected; got != 1 {
		t.Errorf("Stats().Rejected = %d, want 1", got)
	}
	if got := cfg.Metrics.Value(obs.MJobsRejected); got != 1 {
		t.Errorf("metric %s = %d, want 1", obs.MJobsRejected, got)
	}
}

// TestQueueCloseDrains: Close lets the in-flight job finish and fails the
// buffered one with ErrQueueClosed; later submissions see ErrQueueClosed.
func TestQueueCloseDrains(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Faults = faults.New(3, faults.Rule{
		Site: faults.SiteBatchJob, Kind: faults.KindDelay, Prob: 1, Delay: 150 * time.Millisecond,
	})
	st := newStandardizer(t, cfg)
	q := st.NewQueue(1, 0, 2)

	jobs := batchJobs(t, 2)
	inflight, err := q.Submit(context.Background(), jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	for inflight.State() == JobQueued {
		time.Sleep(time.Millisecond)
	}
	queued, err := q.Submit(context.Background(), jobs[1])
	if err != nil {
		t.Fatal(err)
	}

	q.Close()

	if res, err := inflight.Result(); err != nil || res == nil {
		t.Fatalf("in-flight job after Close: res=%v err=%v, want completed result", res, err)
	}
	if _, err := queued.Result(); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("queued job after Close err = %v, want ErrQueueClosed", err)
	}
	if _, err := q.Submit(context.Background(), jobs[0]); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("Submit after Close err = %v, want ErrQueueClosed", err)
	}
	// Close is idempotent.
	q.Close()
}

// TestQueueCancelQueuedJob: canceling a job that is still buffered makes
// it complete with ErrCanceled without ever running.
func TestQueueCancelQueuedJob(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Faults = faults.New(3, faults.Rule{
		Site: faults.SiteBatchJob, Kind: faults.KindDelay, Prob: 1, Delay: 150 * time.Millisecond,
	})
	st := newStandardizer(t, cfg)
	q := st.NewQueue(1, 0, 2)
	defer q.Close()

	jobs := batchJobs(t, 2)
	inflight, err := q.Submit(context.Background(), jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	for inflight.State() == JobQueued {
		time.Sleep(time.Millisecond)
	}
	queued, err := q.Submit(context.Background(), jobs[1])
	if err != nil {
		t.Fatal(err)
	}
	queued.Cancel()
	if _, err := queued.Wait(context.Background()); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled queued job err = %v, want ErrCanceled", err)
	}
	// The in-flight job is untouched.
	if _, err := inflight.Wait(context.Background()); err != nil {
		t.Fatalf("in-flight job: %v", err)
	}
}

// TestQueueWaitAbandonment: canceling the Wait context abandons only the
// wait; the job still completes.
func TestQueueWaitAbandonment(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Faults = faults.New(3, faults.Rule{
		Site: faults.SiteBatchJob, Kind: faults.KindDelay, Prob: 1, Delay: 100 * time.Millisecond,
	})
	st := newStandardizer(t, cfg)
	q := st.NewQueue(1, 0, 2)
	defer q.Close()

	h, err := q.Submit(context.Background(), batchJobs(t, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := h.Wait(ctx); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("abandoned Wait err = %v, want ErrDeadlineExceeded", err)
	}
	if res, err := h.Wait(context.Background()); err != nil || res == nil {
		t.Fatalf("job after abandoned wait: res=%v err=%v", res, err)
	}
}

// TestQueueConcurrentSubmitClose hammers Submit from many goroutines while
// Close races them: every accepted job must land (done channel closed)
// exactly once, with either a result or a typed error.
func TestQueueConcurrentSubmitClose(t *testing.T) {
	cfg := DefaultConfig()
	st := newStandardizer(t, cfg)
	q := st.NewQueue(2, 0, 4)

	jobs := batchJobs(t, 1)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var accepted []*QueuedJob
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				h, err := q.Submit(context.Background(), jobs[0])
				if err != nil {
					if !errors.Is(err, ErrQueueFull) && !errors.Is(err, ErrQueueClosed) {
						t.Errorf("Submit err = %v", err)
					}
					continue
				}
				mu.Lock()
				accepted = append(accepted, h)
				mu.Unlock()
			}
		}()
	}
	// Let some work start, then close concurrently with the submitters.
	time.Sleep(10 * time.Millisecond)
	q.Close()
	wg.Wait()

	for i, h := range accepted {
		select {
		case <-h.Done():
		case <-time.After(30 * time.Second):
			t.Fatalf("accepted job %d never landed", i)
		}
		if res, err := h.Result(); err != nil {
			if !errors.Is(err, ErrQueueClosed) && !errors.Is(err, ErrCanceled) {
				t.Errorf("job %d err = %v", i, err)
			}
		} else if res == nil {
			t.Errorf("job %d: nil result and nil error", i)
		}
	}
}

// TestQueueFaultInjection: a deterministic fault at the batch.job site
// fails exactly the keyed job with a typed, matchable error while its
// neighbors complete untouched.
func TestQueueFaultInjection(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Faults = faults.New(11, faults.Rule{
		Site: faults.SiteBatchJob, Key: "1", Kind: faults.KindError, Prob: 1,
	})
	st := newStandardizer(t, cfg)
	q := st.NewQueue(2, 0, 4)
	defer q.Close()

	jobs := batchJobs(t, 3)
	handles := make([]*QueuedJob, len(jobs))
	for i, su := range jobs {
		h, err := q.Submit(context.Background(), su)
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	for i, h := range handles {
		res, err := h.Wait(context.Background())
		if i == 1 {
			if !errors.Is(err, faults.ErrInjected) {
				t.Fatalf("job 1 err = %v, want ErrInjected in chain", err)
			}
			continue
		}
		if err != nil || res == nil {
			t.Fatalf("job %d: res=%v err=%v", i, res, err)
		}
	}
	if got := q.Stats().Failed; got != 1 {
		t.Errorf("Stats().Failed = %d, want 1", got)
	}
}

// TestQueueResultBeforeDoneBlocks pins the early-call contract: Result
// invoked before the job lands blocks until Done closes instead of
// panicking, so a status poller that observes JobDone (or just calls
// Result eagerly) can never crash in the store-to-close window.
func TestQueueResultBeforeDoneBlocks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Faults = faults.New(3, faults.Rule{
		Site: faults.SiteBatchJob, Kind: faults.KindDelay, Prob: 1, Delay: 100 * time.Millisecond,
	})
	st := newStandardizer(t, cfg)
	q := st.NewQueue(1, 0, 1)
	defer q.Close()

	h, err := q.Submit(context.Background(), batchJobs(t, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	// Called well before the delayed job can have finished.
	res, err := h.Result()
	if err != nil || res == nil {
		t.Errorf("Result() = %v, %v, want a result", res, err)
	}
	select {
	case <-h.Done():
	default:
		t.Error("Result returned before Done closed")
	}
}

// TestJobStateString pins the wire names.
func TestJobStateString(t *testing.T) {
	for state, want := range map[JobState]string{JobQueued: "queued", JobRunning: "running", JobDone: "done"} {
		if got := state.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", state, got, want)
		}
	}
}

// TestQueueSubmitObserved pins the running hook: a run job fires it once,
// when a worker picks the job up and before its outcome is readable, a job
// drained by Close never fires it, and the Running stat rises while a
// worker holds a job.
func TestQueueSubmitObserved(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Faults = faults.New(3, faults.Rule{
		Site: faults.SiteBatchJob, Kind: faults.KindDelay, Prob: 1, Delay: 150 * time.Millisecond,
	})
	st := newStandardizer(t, cfg)
	q := st.NewQueue(1, 0, 1)

	var fired atomic.Int32
	handle := make(chan *QueuedJob, 1)
	running := make(chan struct{})
	h, err := q.SubmitObserved(context.Background(), batchJobs(t, 1)[0], func() {
		if fired.Add(1) != 1 {
			return
		}
		// The hook precedes the outcome: Done is still open.
		select {
		case <-(<-handle).Done():
			t.Error("running hook fired after the outcome was recorded")
		default:
		}
		close(running)
	})
	if err != nil {
		t.Fatal(err)
	}
	handle <- h
	<-running
	if got := q.Stats().Running; got != 1 {
		t.Errorf("Stats().Running while job held = %d, want 1", got)
	}
	if _, err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := fired.Load(); got != 1 {
		t.Fatalf("running hook fired %d times, want 1", got)
	}
	if got := q.Stats().Running; got != 0 {
		t.Errorf("Stats().Running after completion = %d, want 0", got)
	}

	// A job drained by Close never runs, so its hook never fires. The
	// blocker holds the only worker (every job is delayed 150ms), so the
	// second job is still buffered when Close begins.
	blockerRunning := make(chan struct{})
	blocker, err := q.SubmitObserved(context.Background(), batchJobs(t, 1)[0], func() { close(blockerRunning) })
	if err != nil {
		t.Fatal(err)
	}
	<-blockerRunning
	var drainedFired atomic.Int32
	queued, err := q.SubmitObserved(context.Background(), batchJobs(t, 1)[0], func() { drainedFired.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	q.Close()
	if _, err := queued.Result(); !errors.Is(err, ErrQueueClosed) {
		t.Errorf("buffered job err = %v, want ErrQueueClosed", err)
	}
	if got := drainedFired.Load(); got != 0 {
		t.Errorf("drained job fired its hook %d times, want 0", got)
	}
	if _, err := blocker.Result(); err != nil && !errors.Is(err, ErrQueueClosed) {
		t.Errorf("blocker err = %v", err)
	}
}

// TestQueueSharedFreshVocab runs many searches at once against one Vocab
// whose id index nobody has built yet: every queue worker builds or waits
// for it on first use, then scores on it without a lock. Run under -race,
// it checks that first use is safe, and every queued Result equals the
// same job standardized sequentially against a Vocab of its own.
func TestQueueSharedFreshVocab(t *testing.T) {
	const n = 6
	g := gen.New(11)
	corpus, jobs, sources := g.Scripts(10), g.Scripts(n), g.Sources(120)

	want := make([]string, n)
	seq := New(corpus, sources, DefaultConfig())
	for i, su := range jobs {
		res, err := seq.Standardize(su)
		if err != nil {
			t.Fatalf("sequential %d: %v", i, err)
		}
		want[i] = resultFingerprint(res)
	}

	q := New(corpus, sources, DefaultConfig()).NewQueue(n, 0, n)
	defer q.Close()
	handles := make([]*QueuedJob, n)
	for i, su := range jobs {
		h, err := q.Submit(context.Background(), su)
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		handles[i] = h
	}
	for i, h := range handles {
		res, err := h.Wait(context.Background())
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if got := resultFingerprint(res); got != want[i] {
			t.Errorf("job %d: queued\n%s\nsequential\n%s", i, got, want[i])
		}
	}
}
