package lucidscript

import (
	"context"
	"fmt"
	"testing"

	"lucidscript/internal/corpusgen"
	"lucidscript/internal/gen"
)

// memoDataset is one corpus with its jobs. build makes a System over its
// own copy of the sources, so two Systems share no frame.
type memoDataset struct {
	name  string
	build func(t *testing.T, opts Options) *System
	jobs  []*Script
}

// memoDatasets are gen seeds 1-6 (three jobs each, 120-row sources) and
// 20 light-mix Sales scripts at RowScale 0.02.
func memoDatasets(t *testing.T) []memoDataset {
	t.Helper()
	var out []memoDataset
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		out = append(out, memoDataset{
			name: fmt.Sprintf("gen seed %d", seed),
			build: func(t *testing.T, opts Options) *System {
				g := gen.New(seed)
				sys, err := NewSystem(g.Scripts(10), g.Sources(120), opts)
				if err != nil {
					t.Fatal(err)
				}
				return sys
			},
			jobs: gen.New(seed).Scripts(3),
		})
	}
	comp, err := corpusgen.Get("Sales")
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := comp.GenerateScaled(corpusgen.ScaleConfig{Seed: 2, NumScripts: 20, MinimalRatio: 0.5, ImputeSplitRatio: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	sales := memoDataset{name: "Sales", build: func(t *testing.T, opts Options) *System {
		data, err := comp.Generate(corpusgen.GenOptions{Seed: 1, RowScale: 0.02})
		if err != nil {
			t.Fatal(err)
		}
		sys, err := NewSystem(data.ScriptsOnly(), data.Sources, opts)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}}
	for _, g := range scaled {
		sales.jobs = append(sales.jobs, g.Script)
	}
	return append(out, sales)
}

// TestVerifyMemosMatchFreshRuns checks that the frame memos change no
// result: every job run twice through one JobQueue, whose workers share a
// session cache and so the memos on its frames, equals a Standardize on a
// fresh System, and the queue did read memos.
func TestVerifyMemosMatchFreshRuns(t *testing.T) {
	opts := Options{Tau: 0.9, SeqLength: 4}
	hits := int64(0)
	for _, d := range memoDatasets(t) {
		qopts := opts
		qopts.Metrics = NewMetrics()
		jq := d.build(t, qopts).NewJobQueue(2, 2*len(d.jobs))
		var queued []*QueuedJob
		for _, su := range append(d.jobs, d.jobs...) {
			job, err := jq.Submit(context.Background(), su)
			if err != nil {
				t.Fatalf("%s: %v", d.name, err)
			}
			queued = append(queued, job)
		}
		fresh := d.build(t, opts)
		for i, job := range queued {
			got, err := job.Wait(context.Background())
			if err != nil {
				t.Fatalf("%s job %d: %v", d.name, i, err)
			}
			want, err := fresh.Standardize(d.jobs[i%len(d.jobs)])
			if err != nil {
				t.Fatalf("%s job %d: %v", d.name, i, err)
			}
			if got.Script.Source() != want.Script.Source() || got.REAfter != want.REAfter ||
				got.IntentValue != want.IntentValue || got.OutputHash != want.OutputHash {
				t.Fatalf("%s job %d: queued (RE %v, intent %v, hash %s):\n%s\nfresh (RE %v, intent %v, hash %s):\n%s",
					d.name, i, got.REAfter, got.IntentValue, got.OutputHash, got.Script.Source(),
					want.REAfter, want.IntentValue, want.OutputHash, want.Script.Source())
			}
		}
		jq.Close()
		hits += qopts.Metrics.Value(MetricJaccardMemoHits)
	}
	if hits == 0 {
		t.Fatal("no Δ_J check in the queued runs read a frame memo")
	}
}
