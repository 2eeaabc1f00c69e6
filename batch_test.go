package lucidscript

import (
	"errors"
	"testing"

	"lucidscript/internal/gen"
	"lucidscript/internal/obs"
)

func TestStandardizeBatchFacade(t *testing.T) {
	metrics := NewMetrics()
	sys := newTestSystem(t, Options{Tau: 0.5, SeqLength: 8, BatchWorkers: 4, Metrics: metrics})
	var jobs []*Script
	for _, src := range []string{
		`import pandas as pd
df = pd.read_csv("diabetes.csv")
df = df.fillna(df.median())
df = pd.get_dummies(df)
`,
		`import pandas as pd
df = pd.read_csv("diabetes.csv")
df = df.dropna()
df = pd.get_dummies(df)
`,
	} {
		s, err := ParseScript(src)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, s)
	}

	res, err := sys.StandardizeBatch(jobs)
	if err != nil {
		t.Fatalf("StandardizeBatch: %v", err)
	}
	if len(res) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(res), len(jobs))
	}
	// A batch runs on a job queue, so it moves the queue's ledger.
	for name, want := range map[string]int64{
		obs.MJobsSubmitted: int64(len(jobs)), obs.MJobsCompleted: int64(len(jobs)),
		obs.MJobsFailed: 0, obs.MQueueDepth: 0,
	} {
		if got := metrics.Value(name); got != want {
			t.Errorf("%s = %d after a batch of %d, want %d", name, got, len(jobs), want)
		}
	}
	for i, r := range res {
		seq, err := sys.Standardize(jobs[i])
		if err != nil {
			t.Fatalf("sequential job %d: %v", i, err)
		}
		if r.Script.Source() != seq.Script.Source() {
			t.Errorf("job %d batch output diverges from sequential", i)
		}
		if r.ImprovementPct != seq.ImprovementPct {
			t.Errorf("job %d improvement %.4f != sequential %.4f", i, r.ImprovementPct, seq.ImprovementPct)
		}
	}
}

func TestStandardizeBatchFacadeErrors(t *testing.T) {
	sys := newTestSystem(t, Options{Tau: 0.5, SeqLength: 6})
	good, err := ParseScript(`import pandas as pd
df = pd.read_csv("diabetes.csv")
df = df.fillna(df.median())
df = pd.get_dummies(df)
`)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []*Script{good, nil, good} // nil job panics inside the engine

	res, err := sys.StandardizeBatch(jobs)
	if err == nil {
		t.Fatal("batch with a panicking job returned nil error")
	}
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("error type = %T, want *BatchError", err)
	}
	if len(be.Errs) != len(jobs) {
		t.Fatalf("BatchError.Errs has %d entries for %d jobs", len(be.Errs), len(jobs))
	}
	if !errors.Is(err, ErrJobPanicked) {
		t.Fatalf("errors.Is(err, ErrJobPanicked) = false; err = %v", err)
	}
	if be.Errs[0] != nil || be.Errs[2] != nil {
		t.Errorf("healthy jobs carry errors: %v, %v", be.Errs[0], be.Errs[2])
	}
	if be.Errs[1] == nil || res[1] != nil {
		t.Errorf("panicked job: err=%v res=%v, want error and nil result", be.Errs[1], res[1])
	}
	for _, i := range []int{0, 2} {
		if res[i] == nil {
			t.Errorf("healthy job %d returned nil result", i)
		}
	}
	if be.Error() == "" {
		t.Error("BatchError.Error() is empty")
	}
}

// TestStandardizeBatchGeneratedStress is the generative stress test: 32
// random-but-valid scripts standardized concurrently over a shared corpus
// and session cache must come out byte-identical to 32 sequential
// standardizations. Run under -race this doubles as the data-race gate for
// the whole batch path.
func TestStandardizeBatchGeneratedStress(t *testing.T) {
	g := gen.New(1234)
	corpus := g.Scripts(10)
	sources := g.Sources(150)
	jobs := g.Scripts(32)

	opts := Options{Tau: 0.9, SeqLength: 4, BeamSize: 3, MaxRows: 80, BatchWorkers: 8}
	sys, err := NewSystem(corpus, sources, opts)
	if err != nil {
		t.Fatal(err)
	}

	res, err := sys.StandardizeBatch(jobs)
	if err != nil {
		t.Fatalf("StandardizeBatch: %v", err)
	}

	seqSys, err := NewSystem(corpus, sources, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, su := range jobs {
		seq, err := seqSys.Standardize(su)
		if err != nil {
			t.Fatalf("sequential job %d: %v", i, err)
		}
		if res[i] == nil {
			t.Fatalf("batch job %d returned nil result", i)
		}
		if got, want := res[i].Script.Source(), seq.Script.Source(); got != want {
			t.Errorf("job %d batch output diverges from sequential:\nbatch:\n%s\nsequential:\n%s",
				i, got, want)
		}
		if res[i].REBefore != seq.REBefore || res[i].REAfter != seq.REAfter {
			t.Errorf("job %d RE (%.6f -> %.6f) != sequential (%.6f -> %.6f)",
				i, res[i].REBefore, res[i].REAfter, seq.REBefore, seq.REAfter)
		}
	}
}
