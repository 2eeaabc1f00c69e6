package leakage

import (
	"strings"
	"testing"

	"lucidscript/internal/core"
	"lucidscript/internal/corpusgen"
	"lucidscript/internal/intent"
	"lucidscript/internal/interp"
	"lucidscript/internal/script"
)

const base = `import pandas as pd
df = pd.read_csv("diabetes.csv")
df = df.fillna(df.mean())
df = pd.get_dummies(df)
y = df["Outcome"]
X = df.drop("Outcome", axis=1)
`

func TestInjectKinds(t *testing.T) {
	s := script.MustParse(base)
	for _, k := range Kinds() {
		inj, err := Inject(s, "Outcome", k, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(inj.Lines) == 0 {
			t.Fatalf("%v: no ground-truth lines", k)
		}
		if inj.Script.NumStmts() != s.NumStmts()+len(inj.Lines) {
			t.Fatalf("%v: statement count %d", k, inj.Script.NumStmts())
		}
		// Snippet placed before the y assignment.
		src := inj.Script.Source()
		yPos := strings.Index(src, `y = df["Outcome"]`)
		for _, l := range inj.Lines {
			if p := strings.Index(src, l); p < 0 || p > yPos {
				t.Fatalf("%v: line %q not before target split", k, l)
			}
		}
	}
}

func TestInjectedScriptsExecute(t *testing.T) {
	c, _ := corpusgen.Get("Medical")
	gen, err := c.Generate(corpusgen.GenOptions{Seed: 3, RowScale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	s := script.MustParse(base)
	for _, k := range Kinds() {
		inj, err := Inject(s, "Outcome", k, 5)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := interp.Run(inj.Script, gen.Sources, interp.Options{Seed: 1}); err != nil {
			t.Fatalf("%v: injected script does not execute: %v\n%s", k, err, inj.Script.Source())
		}
	}
}

func TestRemovedDetection(t *testing.T) {
	s := script.MustParse(base)
	inj, err := Inject(s, "Outcome", TargetCopy, 3)
	if err != nil {
		t.Fatal(err)
	}
	if inj.Removed(inj.Script) {
		t.Fatal("unmodified injected script should not count as removed")
	}
	if !inj.Removed(s) {
		t.Fatal("original script has no injected lines")
	}
	if inj.RemovedCount(inj.Script) != 0 || inj.RemovedCount(s) != len(inj.Lines) {
		t.Fatal("RemovedCount wrong")
	}
}

func TestKindString(t *testing.T) {
	if TargetCopy.String() != "target-copy" || NoisyDup.String() != "noisy-duplicate" || Derived.String() != "derived" {
		t.Fatal("kind names")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown kind should render")
	}
}

func TestInjectDeterministic(t *testing.T) {
	s := script.MustParse(base)
	a, _ := Inject(s, "Outcome", NoisyDup, 7)
	b, _ := Inject(s, "Outcome", NoisyDup, 7)
	if a.Script.Source() != b.Script.Source() {
		t.Fatal("injection not deterministic")
	}
	c, _ := Inject(s, "Outcome", NoisyDup, 8)
	if a.Script.Source() == c.Script.Source() {
		t.Fatal("seeds should vary the sample size")
	}
}

// End-to-end: LS standardization removes the injected leakage because the
// leaked atoms are absent from the corpus (high RE contribution).
func TestStandardizationDetectsLeakage(t *testing.T) {
	c, _ := corpusgen.Get("Medical")
	gen, err := c.Generate(corpusgen.GenOptions{Seed: 3, RowScale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.SeqLength = 8
	cfg.Constraint = intent.Constraint{
		Measure: intent.MeasureModel,
		Tau:     5,
		Model:   intent.ModelConfig{Target: "Outcome"},
	}
	st := core.New(gen.ScriptsOnly(), gen.Sources, cfg)
	inj, err := Inject(script.MustParse(base), "Outcome", NoisyDup, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Standardize(inj.Script)
	if err != nil {
		t.Fatal(err)
	}
	if !inj.Removed(res.Script) {
		t.Fatalf("leakage not removed:\n%s", res.Script.Source())
	}
}
