package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"lucidscript/internal/corpusgen"
	"lucidscript/internal/dag"
	"lucidscript/internal/frame"
	"lucidscript/internal/gen"
	"lucidscript/internal/intent"
	"lucidscript/internal/script"
)

func TestExplainResult(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SeqLength = 8
	cfg.Constraint.Tau = 0.5
	st := newStandardizer(t, cfg)
	res, err := st.Standardize(script.MustParse(userScript))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Applied) == 0 {
		t.Skip("no transformations applied in this configuration")
	}
	exps := st.ExplainResult(res)
	if len(exps) != len(res.Applied) {
		t.Fatalf("explanations = %d, applied = %d", len(exps), len(res.Applied))
	}
	// The deltas must telescope to the overall RE change.
	total := 0.0
	for _, e := range exps {
		total += e.REDelta
		if e.CorpusFrequency < 0 || e.CorpusFrequency > 1 {
			t.Fatalf("frequency out of range: %+v", e)
		}
		if e.Rationale == "" {
			t.Fatalf("empty rationale: %+v", e)
		}
		if !strings.Contains(e.String(), "corpus frequency") {
			t.Fatalf("String() = %q", e.String())
		}
	}
	if math.Abs(total-(res.REAfter-res.REBefore)) > 1e-9 {
		t.Fatalf("deltas sum to %v, want %v", total, res.REAfter-res.REBefore)
	}
}

// TestExplainReplaysSearchPath: replaying the recorded path (Applied from
// Input) reproduces Result.Output, and the explanations' RE deltas
// telescope to the overall RE change. The cases are jobs over generated
// corpora plus a Titanic job whose output reads test.csv before train.csv:
// lemmatizing that output afresh swaps the frame names df and df2, so
// explanations rebuilt from the output, not from the input, scored
// different lines than the search did.
func TestExplainReplaysSearchPath(t *testing.T) {
	type job struct {
		name string
		st   *Standardizer
		su   *script.Script
	}
	cfg := DefaultConfig()
	cfg.SeqLength = 4
	cfg.MaxRows = 80
	cfg.Constraint.Tau = 0.5
	var jobs []job
	for seed := int64(1); seed <= 6; seed++ {
		g := gen.New(seed)
		st := New(g.Scripts(10), g.Sources(120), cfg)
		for i, su := range g.Scripts(3) {
			jobs = append(jobs, job{fmt.Sprintf("gen seed %d job %d", seed, i), st, su})
		}
	}
	comp, err := corpusgen.Get("Titanic")
	if err != nil {
		t.Fatal(err)
	}
	titanic, err := comp.Generate(corpusgen.GenOptions{Seed: 7, RowScale: 0.1, NumScripts: 12})
	if err != nil {
		t.Fatal(err)
	}
	tcfg := DefaultConfig()
	tcfg.SeqLength, tcfg.MaxRows, tcfg.Seed = 5, 120, 7
	tcfg.Constraint.Tau = 0.8
	jobs = append(jobs, job{"titanic", New(titanic.ScriptsOnly(), titanic.Sources, tcfg), titanic.Sample(1, 21)[0]})

	transformed := 0
	for _, j := range jobs {
		res, err := j.st.Standardize(j.su)
		if err != nil {
			t.Fatalf("%s: %v", j.name, err)
		}
		lines := res.Input
		for _, tr := range res.Applied {
			lines = applyLines(lines, tr)
		}
		if got, want := dag.ToScript(lines).Source(), res.Output.Source(); got != want {
			t.Fatalf("%s: replay gives\n%s\nwant\n%s", j.name, got, want)
		}
		total := 0.0
		for _, e := range j.st.ExplainResult(res) {
			total += e.REDelta
		}
		if math.Abs(total-(res.REAfter-res.REBefore)) > 1e-9 {
			t.Fatalf("%s: deltas sum to %v, want %v", j.name, total, res.REAfter-res.REBefore)
		}
		if len(res.Applied) > 0 {
			transformed++
		}
	}
	if transformed < len(jobs)/2 {
		t.Fatalf("only %d of %d jobs applied a transformation; the replay went mostly unchecked", transformed, len(jobs))
	}
}

func TestExplainEmptyResult(t *testing.T) {
	st := newStandardizer(t, DefaultConfig())
	if exps := st.ExplainResult(&Result{}); exps != nil {
		t.Fatalf("explanations for empty result: %v", exps)
	}
}

func TestRationaleShapes(t *testing.T) {
	st := newStandardizer(t, DefaultConfig())
	cases := map[string]string{
		"df = df.fillna(df.mean())":         "imputation",
		"df = pd.get_dummies(df)":           "encoding",
		`y = df["Outcome"]`:                 "target split",
		`df = df[df["SkinThickness"] < 80]`: "filter",
		"import numpy as np":                "import",
		`df = df.drop("Outcome", axis=1)`:   "pruning",
	}
	for src, want := range cases {
		stmt := mustStmt(t, src)
		tr := Transformation{Type: TransformAdd, Atom: newLine(stmt)}
		got := st.rationale(tr)
		if !strings.Contains(got, want) {
			t.Errorf("rationale(%q) = %q, want mention of %q", src, got, want)
		}
	}
	// Delete of an unseen atom gets the out-of-the-ordinary rationale.
	del := Transformation{Type: TransformDelete, Atom: newLine(mustStmt(t, `df["leak"] = df["Outcome"] * 3`))}
	if got := st.rationale(del); !strings.Contains(got, "out-of-the-ordinary") {
		t.Fatalf("delete rationale = %q", got)
	}
}

func TestParetoFrontier(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SeqLength = 6
	st := newStandardizer(t, cfg)
	taus := []float64{0.2, 0.5, 0.9, 1.0}
	pts, err := st.ParetoFrontier(script.MustParse(userScript), taus)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(taus) {
		t.Fatalf("points = %d", len(pts))
	}
	// Jaccard measure: improvement non-increasing as τ tightens.
	for i := 1; i < len(pts); i++ {
		if pts[i].ImprovementPct > pts[i-1].ImprovementPct+1e-9 {
			t.Fatalf("frontier not monotone: %+v", pts)
		}
	}
	for i, p := range pts {
		if p.Tau != taus[i] {
			t.Fatalf("tau mismatch: %+v", pts)
		}
	}
}

func TestStandardizeGridSeqPrefixExactness(t *testing.T) {
	// A grid run at seqs {2, 6} must give for seq=2 exactly what a plain
	// seq=2 run gives (the beam trajectory is budget-oblivious).
	cfg := DefaultConfig()
	cfg.SeqLength = 6
	cfg.Constraint.Tau = 0.5
	st := newStandardizer(t, cfg)
	su := script.MustParse(userScript)
	grid, err := st.StandardizeGrid(su, []int{2, 6}, []intent.Constraint{cfg.Constraint})
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.SeqLength = 2
	st2 := newStandardizer(t, cfg2)
	solo, err := st2.Standardize(su)
	if err != nil {
		t.Fatal(err)
	}
	if grid[0][0].Output.Source() != solo.Output.Source() {
		t.Fatalf("grid seq=2 differs from solo seq=2:\n%s\nvs\n%s",
			grid[0][0].Output.Source(), solo.Output.Source())
	}
	if grid[1][0].ImprovementPct < grid[0][0].ImprovementPct-1e-9 {
		t.Fatal("longer budget must not hurt")
	}
}

func TestNewWeightedChangesDistribution(t *testing.T) {
	sources := mapSources(t)
	rare := script.MustParse("import pandas as pd\ndf = pd.read_csv(\"diabetes.csv\")\ndf = df.dropna()\n")
	common := script.MustParse("import pandas as pd\ndf = pd.read_csv(\"diabetes.csv\")\ndf = df.fillna(df.mean())\n")
	corpus := []*script.Script{rare, common}
	plain := NewWeighted(corpus, nil, sources, DefaultConfig())
	weighted := NewWeighted(corpus, []int{10, 1}, sources, DefaultConfig())
	// Under the weighted corpus, the "rare" script's steps dominate, so its
	// RE must be lower there than under the unweighted corpus.
	g := script.MustParse(rare.Source())
	if weighted.Corpus.Vocab.RE(buildG(g)) >= plain.Corpus.Vocab.RE(buildG(g)) {
		t.Fatal("weighting should pull the distribution toward heavy scripts")
	}
	if weighted.Corpus.Vocab.NumScripts != 11 {
		t.Fatalf("weighted NumScripts = %d", weighted.Corpus.Vocab.NumScripts)
	}
}

// Helpers bridging test shorthand to the dag package.
func newLine(st script.Stmt) dag.LineInfo { return dag.NewLineInfo(st) }

func buildG(s *script.Script) *dag.Graph { return dag.Build(s) }

func mapSources(t *testing.T) map[string]*frame.Frame {
	t.Helper()
	return map[string]*frame.Frame{"diabetes.csv": diabetesFrame(t, 80)}
}
