package core

import (
	"errors"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"lucidscript/internal/dag"
	"lucidscript/internal/frame"
	"lucidscript/internal/intent"
	"lucidscript/internal/interp"
	"lucidscript/internal/script"
)

// diabetesFrame synthesizes a small Pima-style dataset: a few nulls in
// Glucose, a handful of outlier SkinThickness values, binary Outcome.
func diabetesFrame(t testing.TB, n int) *frame.Frame {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	var b strings.Builder
	b.WriteString("Pregnancies,Glucose,SkinThickness,Age,Outcome\n")
	for i := 0; i < n; i++ {
		preg := rng.Intn(10)
		glucose := ""
		if rng.Float64() > 0.1 {
			glucose = strconv.Itoa(80 + rng.Intn(80))
		}
		skin := rng.Intn(50)
		if rng.Float64() < 0.05 {
			skin = 85 + rng.Intn(20) // abnormal outliers
		}
		age := 18 + rng.Intn(50)
		outcome := 0
		if glucose != "" {
			if g, _ := strconv.Atoi(glucose); g > 120 {
				outcome = 1
			}
		} else if rng.Float64() < 0.5 {
			outcome = 1
		}
		b.WriteString(strconv.Itoa(preg) + "," + glucose + "," + strconv.Itoa(skin) + "," +
			strconv.Itoa(age) + "," + strconv.Itoa(outcome) + "\n")
	}
	f, err := frame.ReadCSVString(b.String())
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// medicalCorpus mirrors the paper's running example: most scripts impute
// with the mean, filter SkinThickness outliers, and one-hot encode.
func medicalCorpus(t testing.TB) []*script.Script {
	t.Helper()
	srcs := []string{
		`import pandas as pd
df = pd.read_csv("diabetes.csv")
df = df.fillna(df.mean())
df = df[df["SkinThickness"] < 80]
df = pd.get_dummies(df)
y = df["Outcome"]
`,
		`import pandas as pd
df = pd.read_csv("diabetes.csv")
df = df.fillna(df.mean())
df = df[df["SkinThickness"] < 80]
df = pd.get_dummies(df)
`,
		`import pandas as pd
df = pd.read_csv("diabetes.csv")
df = df.fillna(df.mean())
df = pd.get_dummies(df)
y = df["Outcome"]
`,
		`import pandas as pd
df = pd.read_csv("diabetes.csv")
df = df[df["SkinThickness"] < 80]
df = pd.get_dummies(df)
`,
		`import pandas as pd
df = pd.read_csv("diabetes.csv")
df = df.fillna(df.mean())
df = df[df["SkinThickness"] < 80]
df = pd.get_dummies(df)
y = df["Outcome"]
`,
		`import pandas as pd
df = pd.read_csv("diabetes.csv")
df = df.dropna()
df = pd.get_dummies(df)
`,
	}
	var out []*script.Script
	for _, s := range srcs {
		out = append(out, script.MustParse(s))
	}
	return out
}

// userScript is the paper's Figure 1a sketch: median imputation plus an
// age filter, missing the corpus-standard outlier handling.
const userScript = `import pandas as pd
df = pd.read_csv("diabetes.csv")
df = df.fillna(df.median())
df = df[df["Age"].between(18, 25)]
df = pd.get_dummies(df)
`

func newStandardizer(t testing.TB, cfg Config) *Standardizer {
	t.Helper()
	sources := map[string]*frame.Frame{"diabetes.csv": diabetesFrame(t, 120)}
	return New(medicalCorpus(t), sources, cfg)
}

func TestAutoConfigTable2(t *testing.T) {
	cases := []struct {
		scripts, edges, wantSeq, wantK int
	}{
		{62, 748, 16, 3},
		{62, 200, 16, 1},
		{8, 400, 8, 3},
		{8, 200, 8, 1},
	}
	for _, c := range cases {
		seq, k := AutoConfig(c.scripts, c.edges)
		if seq != c.wantSeq || k != c.wantK {
			t.Fatalf("AutoConfig(%d,%d) = (%d,%d), want (%d,%d)",
				c.scripts, c.edges, seq, k, c.wantSeq, c.wantK)
		}
	}
}

func TestStandardizeImprovesRE(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SeqLength = 8
	st := newStandardizer(t, cfg)
	res, err := st.Standardize(script.MustParse(userScript))
	if err != nil {
		t.Fatal(err)
	}
	if res.ImprovementPct <= 0 {
		t.Fatalf("improvement = %v, want > 0", res.ImprovementPct)
	}
	if res.REAfter >= res.REBefore {
		t.Fatalf("RE did not decrease: %v -> %v", res.REBefore, res.REAfter)
	}
	// Output must execute.
	srcs := map[string]*frame.Frame{"diabetes.csv": diabetesFrame(t, 120)}
	if err := interp.CheckExecutes(res.Output, srcs, interp.Options{Seed: 1}); err != nil {
		t.Fatalf("output script does not execute: %v\n%s", err, res.Output.Source())
	}
}

func TestStandardizeRespectsJaccard(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SeqLength = 8
	cfg.Constraint = intent.Constraint{Measure: intent.MeasureJaccard, Tau: 0.9}
	st := newStandardizer(t, cfg)
	su := script.MustParse(userScript)
	res, err := st.Standardize(su)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output.Source() != dag.Build(su).Script.Source() {
		// A modification was accepted: the measured Jaccard must satisfy τ.
		if res.IntentValue < 0.9 {
			t.Fatalf("intent value %v violates τ=0.9", res.IntentValue)
		}
	}
}

func TestStandardizeAddsCommonStep(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SeqLength = 8
	cfg.Constraint.Tau = 0.5 // lenient: allow the outlier filter through
	st := newStandardizer(t, cfg)
	res, err := st.Standardize(script.MustParse(userScript))
	if err != nil {
		t.Fatal(err)
	}
	out := res.Output.Source()
	if !strings.Contains(out, "df = df.fillna(df.mean())") &&
		!strings.Contains(out, `df = df[df["SkinThickness"] < 80]`) &&
		!strings.Contains(out, `y = df["Outcome"]`) {
		t.Fatalf("no corpus-common step added:\n%s", out)
	}
}

func TestStandardizeDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SeqLength = 4
	a, err := newStandardizer(t, cfg).Standardize(script.MustParse(userScript))
	if err != nil {
		t.Fatal(err)
	}
	b, err := newStandardizer(t, cfg).Standardize(script.MustParse(userScript))
	if err != nil {
		t.Fatal(err)
	}
	if a.Output.Source() != b.Output.Source() {
		t.Fatalf("non-deterministic:\n%s\nvs\n%s", a.Output.Source(), b.Output.Source())
	}
}

func TestStandardizeInputMustExecute(t *testing.T) {
	st := newStandardizer(t, DefaultConfig())
	bad := script.MustParse(`import pandas as pd
df = pd.read_csv("nope.csv")
`)
	_, err := st.Standardize(bad)
	if !errors.Is(err, ErrInputScriptFails) {
		t.Fatalf("err = %v, want ErrInputScriptFails", err)
	}
}

func TestLateCheckingStillExecutable(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SeqLength = 6
	cfg.EarlyCheck = false
	st := newStandardizer(t, cfg)
	res, err := st.Standardize(script.MustParse(userScript))
	if err != nil {
		t.Fatal(err)
	}
	srcs := map[string]*frame.Frame{"diabetes.csv": diabetesFrame(t, 120)}
	if err := interp.CheckExecutes(res.Output, srcs, interp.Options{Seed: 1}); err != nil {
		t.Fatalf("late-checked output does not execute: %v", err)
	}
}

func TestDiversityOffRuns(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SeqLength = 4
	cfg.Diversity = false
	st := newStandardizer(t, cfg)
	res, err := st.Standardize(script.MustParse(userScript))
	if err != nil {
		t.Fatal(err)
	}
	if res.ImprovementPct < 0 {
		t.Fatalf("improvement = %v", res.ImprovementPct)
	}
}

func TestLongerSequencesDoNotHurt(t *testing.T) {
	base := DefaultConfig()
	base.Constraint.Tau = 0.5
	imp := map[int]float64{}
	for _, seq := range []int{2, 8} {
		cfg := base
		cfg.SeqLength = seq
		res, err := newStandardizer(t, cfg).Standardize(script.MustParse(userScript))
		if err != nil {
			t.Fatal(err)
		}
		imp[seq] = res.ImprovementPct
	}
	if imp[8] < imp[2]-1e-9 {
		t.Fatalf("seq=8 (%v) worse than seq=2 (%v)", imp[8], imp[2])
	}
}

func TestMonotonicityOfAppliedPositions(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SeqLength = 8
	cfg.Constraint.Tau = 0.5
	st := newStandardizer(t, cfg)
	res, err := st.Standardize(script.MustParse(userScript))
	if err != nil {
		t.Fatal(err)
	}
	low := 0
	for _, tr := range res.Applied {
		if tr.Pos < low {
			t.Fatalf("transformation %v violates monotonicity (low water %d)", tr, low)
		}
		if tr.Type == TransformAdd {
			low = tr.Pos + 1
		} else {
			low = tr.Pos - 1
			if low < 0 {
				low = 0
			}
		}
	}
}

func TestTimingsPopulated(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SeqLength = 4
	st := newStandardizer(t, cfg)
	res, err := st.Standardize(script.MustParse(userScript))
	if err != nil {
		t.Fatal(err)
	}
	if res.Timings.Total <= 0 || res.Timings.GetSteps <= 0 {
		t.Fatalf("timings not populated: %+v", res.Timings)
	}
	if res.ExecChecks == 0 {
		t.Fatal("no execution checks recorded")
	}
}

func TestProtectedLines(t *testing.T) {
	imp := dag.NewLineInfo(mustStmt(t, "import pandas as pd"))
	if !protectedLine(imp) {
		t.Fatal("import should be protected")
	}
	rc := dag.NewLineInfo(mustStmt(t, `df = pd.read_csv("x.csv")`))
	if !protectedLine(rc) {
		t.Fatal("read_csv should be protected")
	}
	fn := dag.NewLineInfo(mustStmt(t, "df = df.dropna()"))
	if protectedLine(fn) {
		t.Fatal("dropna should not be protected")
	}
}

func mustStmt(t *testing.T, src string) script.Stmt {
	t.Helper()
	st, err := script.ParseStmt(src)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestEarliestInsertPos(t *testing.T) {
	lines := []dag.LineInfo{
		dag.NewLineInfo(mustStmt(t, "import pandas as pd")),
		dag.NewLineInfo(mustStmt(t, `df = pd.read_csv("x.csv")`)),
	}
	atom := dag.NewLineInfo(mustStmt(t, "df = df.dropna()"))
	if got := earliestInsertPos(lines, atom); got != 2 {
		t.Fatalf("pos = %d, want 2", got)
	}
	orphan := dag.NewLineInfo(mustStmt(t, "df2 = df2.dropna()"))
	if got := earliestInsertPos(lines, orphan); got != -1 {
		t.Fatalf("orphan pos = %d, want -1", got)
	}
	importAtom := dag.NewLineInfo(mustStmt(t, "import numpy as np"))
	if got := earliestInsertPos(lines, importAtom); got != 0 {
		t.Fatalf("no-reads pos = %d, want 0", got)
	}
}

func TestCandidateApply(t *testing.T) {
	st := newStandardizer(t, DefaultConfig())
	g := dag.Build(script.MustParse(userScript))
	c := &candidate{lines: g.Lines, re: st.Corpus.Vocab.RELines(g.Lines)}
	atom := st.Corpus.Vocab.Lines["df = df.fillna(df.mean())"]
	added := c.apply(Transformation{Type: TransformAdd, Atom: atom, Pos: 2}, st.Corpus.Vocab)
	if len(added.lines) != len(c.lines)+1 {
		t.Fatal("add did not grow the script")
	}
	if added.lowWater != 3 {
		t.Fatalf("lowWater = %d", added.lowWater)
	}
	del := c.apply(Transformation{Type: TransformDelete, Atom: c.lines[2], Pos: 2}, st.Corpus.Vocab)
	if len(del.lines) != len(c.lines)-1 {
		t.Fatal("delete did not shrink the script")
	}
	if del.lowWater != 1 {
		t.Fatalf("delete lowWater = %d (deletes allow one step back)", del.lowWater)
	}
	// The original candidate is untouched.
	if len(c.lines) != g.Script.NumStmts() {
		t.Fatal("apply mutated the parent candidate")
	}
}

func TestGetStepsRankedByRE(t *testing.T) {
	st := newStandardizer(t, DefaultConfig())
	g := dag.Build(script.MustParse(userScript))
	c := &candidate{lines: g.Lines, re: st.Corpus.Vocab.RELines(g.Lines)}
	steps := getSteps(c, st.Corpus.Vocab)
	if len(steps) == 0 {
		t.Fatal("no steps enumerated")
	}
	for i := 1; i < len(steps); i++ {
		if steps[i].RE < steps[i-1].RE-1e-12 {
			t.Fatal("steps not sorted by RE")
		}
	}
	// The best step should reduce RE relative to the current script.
	if steps[0].RE >= c.re {
		t.Fatalf("best step RE %v should beat current %v", steps[0].RE, c.re)
	}
}

func TestKMeansBasic(t *testing.T) {
	vecs := [][]float64{{0, 0}, {0, 0.1}, {5, 5}, {5, 5.1}}
	assign := kmeans(vecs, 2, 10)
	if assign[0] != assign[1] || assign[2] != assign[3] || assign[0] == assign[2] {
		t.Fatalf("kmeans assignment = %v", assign)
	}
	if got := kmeans(nil, 3, 5); len(got) != 0 {
		t.Fatal("empty kmeans")
	}
	one := kmeans([][]float64{{1}}, 3, 5)
	if len(one) != 1 || one[0] != 0 {
		t.Fatalf("single-point kmeans = %v", one)
	}
}

func TestTransformationString(t *testing.T) {
	tr := Transformation{Type: TransformAdd, Pos: 3, Atom: dag.LineInfo{Key: "df = df.dropna()"}}
	s := tr.String()
	if !strings.Contains(s, "add") || !strings.Contains(s, "@3") || !strings.Contains(s, "dropna") {
		t.Fatalf("String() = %q", s)
	}
	if TransformDelete.String() != "delete" {
		t.Fatal("delete name")
	}
}

func TestVerifyFallsBackToOriginal(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SeqLength = 4
	// Impossible constraint: model measure with an absent target column in a
	// modified frame — use τ_J slightly above anything achievable by
	// row-changing candidates AND forbid intent-neutral wins by requiring
	// exact identity plus a corpus whose common steps all change the table.
	cfg.Constraint = intent.Constraint{Measure: intent.MeasureJaccard, Tau: 1.0}
	sources := map[string]*frame.Frame{"diabetes.csv": diabetesFrame(t, 60)}
	corpus := []*script.Script{
		script.MustParse("import pandas as pd\ndf = pd.read_csv(\"diabetes.csv\")\ndf = df[df[\"Age\"] < 40]\n"),
		script.MustParse("import pandas as pd\ndf = pd.read_csv(\"diabetes.csv\")\ndf = df[df[\"Age\"] < 40]\n"),
	}
	st := New(corpus, sources, cfg)
	su := script.MustParse("import pandas as pd\ndf = pd.read_csv(\"diabetes.csv\")\ndf = df.fillna(df.median())\n")
	res, err := st.Standardize(su)
	if err != nil {
		t.Fatal(err)
	}
	// The age filter removes rows, so τ_J=1.0 rejects every candidate and
	// the original script must come back.
	if res.ImprovementPct != 0 {
		t.Fatalf("expected fallback, got improvement %v:\n%s", res.ImprovementPct, res.Output.Source())
	}
}

func TestModelConstraintRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SeqLength = 4
	cfg.Constraint = intent.Constraint{
		Measure: intent.MeasureModel,
		Tau:     5,
		Model:   intent.ModelConfig{Target: "Outcome"},
	}
	st := newStandardizer(t, cfg)
	res, err := st.Standardize(script.MustParse(userScript))
	if err != nil {
		t.Fatal(err)
	}
	if res.ImprovementPct < 0 {
		t.Fatalf("improvement = %v", res.ImprovementPct)
	}
}
