package lucidscript

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lucidscript/internal/corpusgen"
)

var updateGolden = flag.Bool("update", false, "rewrite golden snapshot files")

// goldenCases pins three of the synthetic competitions. Seeds and scales
// are fixed, so the curated vocabulary, the beam search, and therefore the
// snapshot are bit-reproducible.
var goldenCases = []struct {
	competition string
	jobs        int
}{
	{"Titanic", 2},
	{"Medical", 2},
	{"NLP", 1},
}

// TestGoldenSnapshots locks the end-to-end behavior of the standardizer:
// for each pinned competition it standardizes a fixed batch of corpus
// scripts and compares the full textual outcome — input and output script
// text, RE before/after, improvement, and the intent value Δ_J — against
// testdata/golden. Run with -update to rewrite the snapshots after an
// intentional behavior change.
func TestGoldenSnapshots(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.competition, func(t *testing.T) {
			comp, err := corpusgen.Get(tc.competition)
			if err != nil {
				t.Fatal(err)
			}
			gen, err := comp.Generate(corpusgen.GenOptions{Seed: 7, RowScale: 0.1, NumScripts: 12})
			if err != nil {
				t.Fatal(err)
			}
			sys, err := NewSystem(gen.ScriptsOnly(), gen.Sources,
				Options{Tau: 0.8, SeqLength: 5, BeamSize: 3, MaxRows: 120, Seed: 7, BatchWorkers: 2})
			if err != nil {
				t.Fatal(err)
			}
			jobs := gen.Sample(tc.jobs, 21)
			res, err := sys.StandardizeBatch(jobs)
			if err != nil {
				t.Fatalf("StandardizeBatch: %v", err)
			}

			var b strings.Builder
			fmt.Fprintf(&b, "competition: %s\n", tc.competition)
			for i, r := range res {
				fmt.Fprintf(&b, "\n== job %d ==\ninput:\n%s", i, jobs[i].Source())
				fmt.Fprintf(&b, "output:\n%s", r.Script.Source())
				fmt.Fprintf(&b, "re: %.4f -> %.4f (improvement %.4f%%)\n", r.REBefore, r.REAfter, r.ImprovementPct)
				fmt.Fprintf(&b, "intent: %.4f\n", r.IntentValue)
				fmt.Fprintf(&b, "transformations: %d\n", len(r.Applied))
			}
			got := b.String()

			path := filepath.Join("testdata", "golden", strings.ToLower(tc.competition)+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run go test -run TestGoldenSnapshots -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("snapshot diverges from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
			}
		})
	}
}
