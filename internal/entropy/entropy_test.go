package entropy

import (
	"math"
	"testing"
	"testing/quick"

	"lucidscript/internal/dag"
	"lucidscript/internal/script"
)

func corpusGraphs(t *testing.T, srcs ...string) []*dag.Graph {
	t.Helper()
	var gs []*dag.Graph
	for _, s := range srcs {
		gs = append(gs, dag.Build(script.MustParse(s)))
	}
	return gs
}

const (
	s1 = "import pandas as pd\ndf = pd.read_csv(\"d.csv\")\ndf = df.fillna(df.mean())\ndf = df[df[\"SkinThickness\"] < 80]\ndf = pd.get_dummies(df)\n"
	s2 = "import pandas as pd\ndf = pd.read_csv(\"d.csv\")\ndf = df[df[\"SkinThickness\"] < 80]\ndf = pd.get_dummies(df)\n"
	s3 = "import pandas as pd\ndf = pd.read_csv(\"d.csv\")\ndf = df.fillna(df.mean())\ndf = pd.get_dummies(df)\n"
)

func TestBuildVocabCounts(t *testing.T) {
	gs := corpusGraphs(t, s1, s2, s3)
	v := BuildVocab(gs)
	if v.NumScripts != 3 {
		t.Fatalf("scripts = %d", v.NumScripts)
	}
	if v.LineCounts["import pandas as pd"] != 3 {
		t.Fatalf("import count = %d", v.LineCounts["import pandas as pd"])
	}
	if v.LineCounts["df = df.fillna(df.mean())"] != 2 {
		t.Fatalf("fillna count = %d", v.LineCounts["df = df.fillna(df.mean())"])
	}
	if v.TotalEdges == 0 || v.NumUniqueEdges() == 0 || v.NumUniqueLines() == 0 || v.NumUniqueUnigrams() == 0 {
		t.Fatal("empty vocab")
	}
	// read_csv→fillna edge appears in s1 and s3.
	key := dag.Edge{From: `df = pd.read_csv("d.csv")`, To: "df = df.fillna(df.mean())"}.Key()
	if v.EdgeCounts[key] != 2 {
		t.Fatalf("edge count = %d", v.EdgeCounts[key])
	}
}

func TestMeanPosRange(t *testing.T) {
	v := BuildVocab(corpusGraphs(t, s1, s2, s3))
	for k, p := range v.MeanPos {
		if p < 0 || p > 1 {
			t.Fatalf("MeanPos[%q] = %v", k, p)
		}
	}
	// import is always first.
	if v.MeanPos["import pandas as pd"] != 0 {
		t.Fatalf("import pos = %v", v.MeanPos["import pandas as pd"])
	}
}

func TestRENonNegativeAndOrdering(t *testing.T) {
	v := BuildVocab(corpusGraphs(t, s1, s2, s3))
	// A script matching common corpus steps should score lower (more
	// standard) than one using a rare composition.
	common := dag.Build(script.MustParse(s1))
	rare := dag.Build(script.MustParse(
		"import pandas as pd\ndf = pd.read_csv(\"d.csv\")\ndf = df.fillna(df.median())\n"))
	reCommon, reRare := v.RE(common), v.RE(rare)
	if reCommon < 0 || reRare < 0 {
		t.Fatalf("negative RE: %v %v", reCommon, reRare)
	}
	if reCommon >= reRare {
		t.Fatalf("common script should be more standard: common=%v rare=%v", reCommon, reRare)
	}
}

func TestREFiniteOnUnseenEdges(t *testing.T) {
	v := BuildVocab(corpusGraphs(t, s1))
	g := dag.Build(script.MustParse("import pandas as pd\ndf = pd.read_csv(\"other.csv\")\ndf = df.dropna()\n"))
	re := v.RE(g)
	if math.IsInf(re, 0) || math.IsNaN(re) {
		t.Fatalf("RE not finite on unseen edges: %v", re)
	}
	if re <= 0 {
		t.Fatalf("fully-unseen script should have positive RE, got %v", re)
	}
}

func TestREEmptyScript(t *testing.T) {
	v := BuildVocab(corpusGraphs(t, s1, s2))
	re := v.RELines(nil)
	if math.IsNaN(re) || math.IsInf(re, 0) {
		t.Fatalf("empty-script RE = %v", re)
	}
	empty := BuildVocab(nil)
	if got := empty.RELines(nil); got != 0 {
		t.Fatalf("empty/empty RE = %v", got)
	}
}

func TestAddingCommonStepLowersRE(t *testing.T) {
	// Mirror of Example 4.6: adding the common step moves P toward Q.
	v := BuildVocab(corpusGraphs(t, s1, s1, s3))
	before := dag.Build(script.MustParse(s2)) // missing fillna
	after := dag.Build(script.MustParse(s1))  // has fillna
	if v.RE(after) >= v.RE(before) {
		t.Fatalf("adding the corpus-common step should lower RE: before=%v after=%v",
			v.RE(before), v.RE(after))
	}
}

func TestRELinesMatchesRE(t *testing.T) {
	v := BuildVocab(corpusGraphs(t, s1, s2, s3))
	g := dag.Build(script.MustParse(s2))
	if math.Abs(v.RE(g)-v.RELines(g.Lines)) > 1e-12 {
		t.Fatal("RELines must agree with RE")
	}
}

func TestImprovement(t *testing.T) {
	if got := Improvement(2, 1); math.Abs(got-50) > 1e-9 {
		t.Fatalf("improvement = %v", got)
	}
	if got := Improvement(0, 1); got != 0 {
		t.Fatalf("zero-orig improvement = %v", got)
	}
	if got := Improvement(1, 2); got >= 0 {
		t.Fatalf("worsening should be negative, got %v", got)
	}
}

func TestSortedLineKeysDeterministic(t *testing.T) {
	v := BuildVocab(corpusGraphs(t, s1, s2, s3))
	a := v.SortedLineKeys()
	b := v.SortedLineKeys()
	if len(a) == 0 {
		t.Fatal("no keys")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("non-deterministic ordering")
		}
	}
	// Most frequent first.
	if v.LineCounts[a[0]] < v.LineCounts[a[len(a)-1]] {
		t.Fatal("keys not sorted by count")
	}
}

// Property: RE is non-negative for arbitrary scripts vs this corpus.
func TestRENonNegativeProperty(t *testing.T) {
	v := BuildVocab(corpusGraphs(t, s1, s2, s3))
	pool := []string{
		"import pandas as pd",
		`df = pd.read_csv("d.csv")`,
		"df = df.fillna(df.mean())",
		"df = df.dropna()",
		`df = df[df["SkinThickness"] < 80]`,
		"df = pd.get_dummies(df)",
		`df["Z"] = df["Z"].fillna(0)`,
	}
	f := func(pick []uint8) bool {
		var lines []dag.LineInfo
		for _, p := range pick {
			st, err := script.ParseStmt(pool[int(p)%len(pool)])
			if err != nil {
				return false
			}
			lines = append(lines, dag.NewLineInfo(st))
		}
		re := v.RELines(lines)
		return re >= -1e-9 && !math.IsNaN(re) && !math.IsInf(re, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
