package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lucidscript"
	"lucidscript/internal/core"
	"lucidscript/internal/faults"
	"lucidscript/internal/gen"
	"lucidscript/internal/obs"
)

// genOptions is the fast-search option set every serve test builds its
// Systems with. Tests that need faults or timeouts copy and extend it.
func genOptions() lucidscript.Options {
	return lucidscript.Options{Tau: 0.9, SeqLength: 4, BeamSize: 3, MaxRows: 80}
}

// genSystem builds a System over the seeded generative corpus/dataset pair;
// every call with the same seed yields an identically-curated System, which
// is how tests compare served results against a direct in-process run.
func genSystem(t testing.TB, seed int64, opts lucidscript.Options) *lucidscript.System {
	t.Helper()
	g := gen.New(seed)
	sys, err := lucidscript.NewSystem(g.Scripts(8), g.Sources(120), opts)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// startServer mounts a Server on an httptest listener and returns it with a
// ready Client. The test server (not the job queues) is torn down on
// cleanup; tests that exercise Shutdown call it themselves.
func startServer(t testing.TB, systems map[string]*lucidscript.System, cfg Config) (*Server, *Client) {
	t.Helper()
	srv, err := NewServer(systems, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, NewClient(hs.URL, hs.Client())
}

// TestServeLifecycle is the core e2e round trip: submit → poll → result,
// with the served result byte-identical to a direct System.Standardize on
// an identically-built System, and the served output hash equal to the
// direct OutputHash — the acceptance criterion that the service and the
// library produce the same standardized script AND the same output table.
func TestServeLifecycle(t *testing.T) {
	sys := genSystem(t, 42, genOptions())
	_, client := startServer(t, map[string]*lucidscript.System{"gen": sys}, Config{Workers: 2})

	direct := genSystem(t, 42, genOptions())
	jobs := gen.New(7).Scripts(3)
	ctx := context.Background()

	for i, su := range jobs {
		want, err := direct.Standardize(su)
		if err != nil {
			t.Fatalf("direct %d: %v", i, err)
		}
		wantHash, err := direct.OutputHash(want.Script)
		if err != nil {
			t.Fatalf("direct hash %d: %v", i, err)
		}

		sub, err := client.Submit(ctx, "gen", su.Source(), nil)
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		if sub.ID == "" || sub.Dataset != "gen" {
			t.Fatalf("submit status = %+v", sub)
		}
		switch sub.State {
		case StateQueued, StateRunning, StateDone:
		default:
			t.Fatalf("submit state = %q", sub.State)
		}
		st, err := client.Wait(ctx, sub.ID, 5*time.Millisecond)
		if err != nil {
			t.Fatalf("Wait %d: %v", i, err)
		}
		if st.State != StateDone {
			t.Fatalf("job %d state = %q (error %q, code %q)", i, st.State, st.Error, st.Code)
		}
		if st.Result == nil {
			t.Fatalf("job %d done with nil result", i)
		}
		if st.Result.Script != want.Script.Source() {
			t.Errorf("job %d served script diverges from direct Standardize:\nserved:\n%s\ndirect:\n%s",
				i, st.Result.Script, want.Script.Source())
		}
		if st.Result.OutputHash != wantHash {
			t.Errorf("job %d output hash = %q, want %q", i, st.Result.OutputHash, wantHash)
		}
		if st.Result.REBefore != want.REBefore || st.Result.REAfter != want.REAfter {
			t.Errorf("job %d RE (%v → %v) != direct (%v → %v)",
				i, st.Result.REBefore, st.Result.REAfter, want.REBefore, want.REAfter)
		}
		if st.FinishedAt == nil || st.FinishedAt.Before(st.SubmittedAt) {
			t.Errorf("job %d finished_at = %v (submitted %v)", i, st.FinishedAt, st.SubmittedAt)
		}
		if st.Result.Timings.TotalMS <= 0 {
			t.Errorf("job %d total_ms = %v, want > 0", i, st.Result.Timings.TotalMS)
		}
	}
}

// TestServeWireExplanations pins the v1 wire strings of a served result:
// transformations[i] is Applied[i].String() and explanations[i] is
// Explain(res)[i].String() of a direct Standardize of the same script on
// an identically-built System. At least one job must apply edits, so the
// comparison is never vacuous.
func TestServeWireExplanations(t *testing.T) {
	sys := genSystem(t, 42, genOptions())
	_, client := startServer(t, map[string]*lucidscript.System{"gen": sys}, Config{Workers: 2})
	direct := genSystem(t, 42, genOptions())
	ctx := context.Background()

	edited := 0
	for i, su := range gen.New(7).Scripts(4) {
		want, err := direct.Standardize(su)
		if err != nil {
			t.Fatalf("direct %d: %v", i, err)
		}
		var wantTr, wantEx []string
		for _, tr := range want.Applied {
			wantTr = append(wantTr, tr.String())
		}
		for _, ex := range direct.Explain(want) {
			wantEx = append(wantEx, ex.String())
		}
		if len(wantEx) != len(wantTr) {
			t.Fatalf("job %d: %d explanations for %d transformations", i, len(wantEx), len(wantTr))
		}
		if len(wantTr) > 0 {
			edited++
		}

		sub, err := client.Submit(ctx, "gen", su.Source(), nil)
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		st, err := client.Wait(ctx, sub.ID, 5*time.Millisecond)
		if err != nil {
			t.Fatalf("Wait %d: %v", i, err)
		}
		if st.State != StateDone || st.Result == nil {
			t.Fatalf("job %d state = %q (error %q)", i, st.State, st.Error)
		}
		if got := strings.Join(st.Result.Transformations, "\n"); got != strings.Join(wantTr, "\n") {
			t.Errorf("job %d transformations:\nserved:\n%s\ndirect:\n%s", i, got, strings.Join(wantTr, "\n"))
		}
		if got := strings.Join(st.Result.Explanations, "\n"); got != strings.Join(wantEx, "\n") {
			t.Errorf("job %d explanations:\nserved:\n%s\ndirect:\n%s", i, got, strings.Join(wantEx, "\n"))
		}
	}
	if edited == 0 {
		t.Fatal("no job applied a transformation; the wire comparison is vacuous")
	}
}

// TestServeCurationPaidOnce is the acceptance criterion that a served
// dataset pays corpus curation exactly once no matter how many requests
// arrive: eight submissions, one core.Curate call (the one NewSystem made).
func TestServeCurationPaidOnce(t *testing.T) {
	before := core.CurateCalls()
	sys := genSystem(t, 42, genOptions())
	_, client := startServer(t, map[string]*lucidscript.System{"gen": sys}, Config{Workers: 2, QueueDepth: 16})

	jobs := gen.New(9).Scripts(8)
	ctx := context.Background()
	ids := make([]string, len(jobs))
	for i, su := range jobs {
		st, err := client.Submit(ctx, "gen", su.Source(), nil)
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		ids[i] = st.ID
	}
	for i, id := range ids {
		st, err := client.Wait(ctx, id, 5*time.Millisecond)
		if err != nil {
			t.Fatalf("Wait %d: %v", i, err)
		}
		if st.State != StateDone {
			t.Fatalf("job %d state = %q (error %q)", i, st.State, st.Error)
		}
	}
	if got := core.CurateCalls() - before; got != 1 {
		t.Errorf("%d requests cost %d curation passes, want exactly 1", len(jobs), got)
	}
}

// TestServeNotFound covers both 404 shapes: unknown job id and unknown
// dataset, each with its own machine-readable code.
func TestServeNotFound(t *testing.T) {
	sys := genSystem(t, 42, genOptions())
	_, client := startServer(t, map[string]*lucidscript.System{"gen": sys}, Config{})
	ctx := context.Background()

	_, err := client.Job(ctx, "j-no-such")
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown job err = %v, want ErrNotFound", err)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != CodeNotFound {
		t.Fatalf("unknown job APIError = %+v, want code %q", apiErr, CodeNotFound)
	}

	if _, err := client.Cancel(ctx, "j-no-such"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cancel unknown job err = %v, want ErrNotFound", err)
	}

	_, err = client.Submit(ctx, "nope", `import pandas as pd`+"\n"+`df = pd.read_csv("data.csv")`+"\n", nil)
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown dataset err = %v, want ErrNotFound", err)
	}
	if !errors.As(err, &apiErr) || apiErr.Code != CodeUnknownDataset {
		t.Fatalf("unknown dataset APIError = %+v, want code %q", apiErr, CodeUnknownDataset)
	}
}

// TestServeBadRequest covers the 400 surface: malformed JSON, a script that
// does not parse, and an invalid per-job timeout.
func TestServeBadRequest(t *testing.T) {
	sys := genSystem(t, 42, genOptions())
	srv, client := startServer(t, map[string]*lucidscript.System{"gen": sys}, Config{})
	ctx := context.Background()

	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON status = %d, want 400", resp.StatusCode)
	}

	var apiErr *APIError
	_, err = client.Submit(ctx, "gen", "df = df.this_is_not_lsl(((", nil)
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest || apiErr.Code != CodeBadRequest {
		t.Errorf("unparseable script err = %v, want 400 %s", err, CodeBadRequest)
	}

	good := gen.New(3).ScriptSource()
	for _, timeout := range []string{"bogus", "-3s", "0s"} {
		_, err = client.Submit(ctx, "gen", good, &JobOptions{Timeout: timeout})
		if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
			t.Errorf("timeout %q err = %v, want 400", timeout, err)
		}
	}
}

// TestServeQueueFull429 drives admission control over the edge: one worker
// held by a delay fault, a one-slot buffer, and submissions until a 429
// with a Retry-After hint comes back.
func TestServeQueueFull429(t *testing.T) {
	opts := genOptions()
	opts.Faults = faults.New(5, faults.Rule{
		Site: faults.SiteBatchJob, Kind: faults.KindDelay, Prob: 1, Delay: 400 * time.Millisecond,
	})
	sys := genSystem(t, 42, opts)
	retryAfter := 1500 * time.Millisecond
	_, client := startServer(t, map[string]*lucidscript.System{"gen": sys},
		Config{Workers: 1, QueueDepth: 1, RetryAfter: retryAfter})

	ctx := context.Background()
	src := gen.New(3).ScriptSource()
	// Worker capacity 1 + buffer capacity 1: among three quick submissions
	// at least one must be shed. Poll a few times to absorb pickup timing.
	var overloaded error
	deadline := time.Now().Add(5 * time.Second)
	for overloaded == nil && time.Now().Before(deadline) {
		for i := 0; i < 3; i++ {
			if _, err := client.Submit(ctx, "gen", src, nil); err != nil {
				overloaded = err
				break
			}
		}
	}
	if !errors.Is(overloaded, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", overloaded)
	}
	var apiErr *APIError
	if !errors.As(overloaded, &apiErr) {
		t.Fatalf("no APIError in chain: %v", overloaded)
	}
	if apiErr.Code != CodeQueueFull {
		t.Errorf("code = %q, want %q", apiErr.Code, CodeQueueFull)
	}
	// The body's retry_after_ms carries the configured hint exactly; the
	// Retry-After header rounds it up to whole seconds (2 for 1.5s).
	if apiErr.RetryAfter != retryAfter {
		t.Errorf("RetryAfter = %v, want %v", apiErr.RetryAfter, retryAfter)
	}
}

// TestServeRetryAfterHeader pins the header form of the 429 (integer
// seconds, rounded up) straight off the wire.
func TestServeRetryAfterHeader(t *testing.T) {
	opts := genOptions()
	opts.Faults = faults.New(5, faults.Rule{
		Site: faults.SiteBatchJob, Kind: faults.KindDelay, Prob: 1, Delay: 400 * time.Millisecond,
	})
	sys := genSystem(t, 42, opts)
	srv, err := NewServer(map[string]*lucidscript.System{"gen": sys},
		Config{Workers: 1, QueueDepth: 1, RetryAfter: 1500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	src := gen.New(3).ScriptSource()
	body := `{"dataset":"gen","script":` + jsonString(src) + `}`
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			if got := resp.Header.Get("Retry-After"); got != "2" {
				t.Errorf("Retry-After = %q, want %q (1.5s rounded up)", got, "2")
			}
			return
		}
	}
	t.Fatal("never saw a 429")
}

// TestServeCancelMidSearch submits a job held by a delay fault, waits for
// it to be running, cancels it over HTTP, and checks the terminal status is
// canceled with the canceled code.
func TestServeCancelMidSearch(t *testing.T) {
	opts := genOptions()
	opts.Faults = faults.New(5, faults.Rule{
		Site: faults.SiteBatchJob, Kind: faults.KindDelay, Prob: 1, Delay: 300 * time.Millisecond,
	})
	sys := genSystem(t, 42, opts)
	_, client := startServer(t, map[string]*lucidscript.System{"gen": sys}, Config{Workers: 1})

	ctx := context.Background()
	sub, err := client.Submit(ctx, "gen", gen.New(3).ScriptSource(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for {
		st, err := client.Job(ctx, sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == StateRunning {
			break
		}
		if st.State != StateQueued {
			t.Fatalf("state = %q before cancel", st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := client.Cancel(ctx, sub.ID); err != nil {
		t.Fatal(err)
	}
	st, err := client.Wait(ctx, sub.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled || st.Code != CodeCanceled {
		t.Fatalf("canceled job state/code = %q/%q, want %q/%q", st.State, st.Code, StateCanceled, CodeCanceled)
	}
	if st.Error == "" {
		t.Error("canceled job has empty error")
	}
	// Canceling a finished job is a no-op, not an error.
	again, err := client.Cancel(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if again.State != StateCanceled {
		t.Errorf("re-cancel state = %q", again.State)
	}
}

// TestServeJobTimeout sets a per-job deadline shorter than the injected
// delay and expects a failed job with the deadline code.
func TestServeJobTimeout(t *testing.T) {
	opts := genOptions()
	opts.Faults = faults.New(5, faults.Rule{
		Site: faults.SiteBatchJob, Kind: faults.KindDelay, Prob: 1, Delay: 200 * time.Millisecond,
	})
	sys := genSystem(t, 42, opts)
	_, client := startServer(t, map[string]*lucidscript.System{"gen": sys}, Config{Workers: 1})

	ctx := context.Background()
	sub, err := client.Submit(ctx, "gen", gen.New(3).ScriptSource(), &JobOptions{Timeout: "50ms"})
	if err != nil {
		t.Fatal(err)
	}
	st, err := client.Wait(ctx, sub.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed || st.Code != CodeDeadlineExceeded {
		t.Fatalf("timed-out job state/code = %q/%q, want %q/%q",
			st.State, st.Code, StateFailed, CodeDeadlineExceeded)
	}
}

// pauseOnce blocks the job that emits the first event of one kind until
// the test releases it, so the test can cancel that job at a known point.
type pauseOnce struct {
	kind              obs.EventKind
	once              sync.Once
	reached, released chan struct{}
}

func (p *pauseOnce) Emit(e obs.Event) {
	if e.Kind == p.kind {
		p.once.Do(func() {
			close(p.reached)
			<-p.released
		})
	}
}

// TestServeCancelSampled cancels a job on sampled sources after its first
// beam step and once its search is done: either way it lands canceled with
// no output hash, so it made no full-data run after the cancel.
func TestServeCancelSampled(t *testing.T) {
	for _, kind := range []obs.EventKind{obs.EvStepDone, obs.EvSearchDone} {
		t.Run(string(kind), func(t *testing.T) {
			pause := &pauseOnce{kind: kind, reached: make(chan struct{}), released: make(chan struct{})}
			opts := genOptions()
			opts.Tracer = pause
			sys := genSystem(t, 42, opts)
			_, client := startServer(t, map[string]*lucidscript.System{"gen": sys}, Config{Workers: 1})
			ctx := context.Background()
			sub, err := client.Submit(ctx, "gen", gen.New(3).ScriptSource(), nil)
			if err != nil {
				t.Fatal(err)
			}
			<-pause.reached
			_, err = client.Cancel(ctx, sub.ID)
			close(pause.released)
			if err != nil {
				t.Fatal(err)
			}
			st, err := client.Wait(ctx, sub.ID, 5*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if st.State != StateCanceled || st.Result == nil {
				t.Fatalf("state %q, result %v; want canceled with a partial result", st.State, st.Result)
			}
			if st.Result.OutputHash != "" || st.Result.OutputHashError != "" {
				t.Errorf("canceled job output hash %q, error %q; want neither", st.Result.OutputHash, st.Result.OutputHashError)
			}
		})
	}
}

// TestServeHealthzAndMetrics checks the observability surface: healthz
// reports per-dataset queue snapshots and corpus sizes, and /metrics speaks
// Prometheus text with the queue and HTTP counters present.
func TestServeHealthzAndMetrics(t *testing.T) {
	metrics := lucidscript.NewMetrics()
	opts := genOptions()
	opts.Metrics = metrics
	sys := genSystem(t, 42, opts)
	_, client := startServer(t, map[string]*lucidscript.System{"gen": sys},
		Config{Workers: 2, QueueDepth: 4, Metrics: metrics})

	ctx := context.Background()
	sub, err := client.Submit(ctx, "gen", gen.New(3).ScriptSource(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Wait(ctx, sub.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	h, err := client.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Errorf("healthz status = %q, want ok", h.Status)
	}
	dh, ok := h.Datasets["gen"]
	if !ok {
		t.Fatalf("healthz datasets = %v, missing gen", h.Datasets)
	}
	if dh.Workers != 2 || dh.QueueCapacity != 4 {
		t.Errorf("dataset health = %+v, want 2 workers, capacity 4", dh)
	}
	if dh.Submitted < 1 || dh.Completed < 1 {
		t.Errorf("dataset health = %+v, want ≥1 submitted and completed", dh)
	}
	if dh.CorpusScripts == 0 {
		t.Error("corpus_scripts = 0")
	}

	text, err := client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"lucidscript_queue_jobs_submitted_total",
		"lucidscript_queue_jobs_completed_total",
		"lucidscript_http_requests_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %s:\n%s", want, text)
		}
	}
}

// TestServeTwoDatasets hosts two independently-curated datasets and checks
// jobs route to the right one.
func TestServeTwoDatasets(t *testing.T) {
	a := genSystem(t, 42, genOptions())
	b := genSystem(t, 1042, genOptions())
	_, client := startServer(t, map[string]*lucidscript.System{"alpha": a, "beta": b}, Config{Workers: 1})

	ctx := context.Background()
	src := gen.New(3).ScriptSource()
	for _, name := range []string{"alpha", "beta"} {
		sub, err := client.Submit(ctx, name, src, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		st, err := client.Wait(ctx, sub.ID, 5*time.Millisecond)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st.State != StateDone || st.Dataset != name {
			t.Errorf("%s: state=%q dataset=%q", name, st.State, st.Dataset)
		}
	}
	h, err := client.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Datasets) != 2 {
		t.Errorf("healthz datasets = %v, want alpha and beta", h.Datasets)
	}
}

// TestNewServerValidation pins the constructor's error paths.
func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(nil, Config{}); err == nil {
		t.Error("NewServer(nil) did not error")
	}
	if _, err := NewServer(map[string]*lucidscript.System{"x": nil}, Config{}); err == nil {
		t.Error("NewServer with nil System did not error")
	}
}

// jsonString marshals a Go string as a JSON string literal.
func jsonString(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// TestServeOutputHashSampled checks that the served output hash equals a
// direct OutputHash both when a job searched on the full table and when
// MaxRows sampled it, so the job ran its winner on the full table for it.
func TestServeOutputHashSampled(t *testing.T) {
	for _, tc := range []struct {
		name    string
		maxRows int
	}{
		{"unsampled", 200},
		{"sampled", 80},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := genOptions()
			opts.MaxRows = tc.maxRows
			sys := genSystem(t, 42, opts)
			_, client := startServer(t, map[string]*lucidscript.System{"gen": sys}, Config{Workers: 2})
			ctx := context.Background()
			for i, su := range gen.New(7).Scripts(3) {
				sub, err := client.Submit(ctx, "gen", su.Source(), nil)
				if err != nil {
					t.Fatalf("Submit %d: %v", i, err)
				}
				st, err := client.Wait(ctx, sub.ID, 5*time.Millisecond)
				if err != nil {
					t.Fatalf("Wait %d: %v", i, err)
				}
				if st.State != StateDone || st.Result == nil {
					t.Fatalf("job %d state = %q (error %q)", i, st.State, st.Error)
				}
				script, err := lucidscript.ParseScript(st.Result.Script)
				if err != nil {
					t.Fatal(err)
				}
				want, err := sys.OutputHash(script)
				if err != nil {
					t.Fatal(err)
				}
				if st.Result.OutputHash != want {
					t.Errorf("job %d output hash = %q, want %q", i, st.Result.OutputHash, want)
				}
			}
		})
	}
}

// TestServeVerifyMemoCounters checks that /metrics exports the Δ_J
// verification counters at 0 before any job, and that a second job of the
// same script on the same dataset settles every Δ_J check from the frame
// memos the first left on the shared cached frames: it builds no value set.
func TestServeVerifyMemoCounters(t *testing.T) {
	metrics := lucidscript.NewMetrics()
	opts := genOptions()
	opts.Metrics = metrics
	sys := genSystem(t, 42, opts)
	_, client := startServer(t, map[string]*lucidscript.System{"gen": sys}, Config{Workers: 2, Metrics: metrics})
	ctx := context.Background()
	names := []string{obs.MJaccardMemoHits, obs.MJaccardBoundRejects, obs.MValueSetsBuilt}
	text, err := client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if line := "lucidscript_" + name + " 0\n"; !strings.Contains(text, line) {
			t.Errorf("metrics exposition lacks %q:\n%s", line, text)
		}
	}
	src := gen.New(7).Scripts(1)[0].Source()
	run := func() map[string]int64 {
		t.Helper()
		before := map[string]int64{}
		for _, name := range names {
			before[name] = metrics.Value(name)
		}
		sub, err := client.Submit(ctx, "gen", src, nil)
		if err != nil {
			t.Fatal(err)
		}
		st, err := client.Wait(ctx, sub.ID, 5*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone {
			t.Fatalf("job state = %q (error %q)", st.State, st.Error)
		}
		delta := map[string]int64{}
		for _, name := range names {
			delta[name] = metrics.Value(name) - before[name]
		}
		return delta
	}
	if first := run(); first[obs.MValueSetsBuilt] == 0 {
		t.Fatalf("the first job built no value set (%v): it checked no Δ_J", first)
	}
	second := run()
	if second[obs.MValueSetsBuilt] != 0 {
		t.Errorf("the second job built %d value sets, want 0", second[obs.MValueSetsBuilt])
	}
	if second[obs.MJaccardMemoHits] == 0 {
		t.Errorf("the second job read no Jaccard memo (%v)", second)
	}
}
