package lucidscript

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"lucidscript/internal/registry"
)

const testCSV = `Glucose,SkinThickness,Age,Outcome
148,35,50,1
85,29,31,0
183,,32,1
89,23,21,0
137,35,33,1
116,25,30,0
78,32,26,1
115,,29,0
197,45,53,1
125,96,54,1
110,37,30,0
168,15,34,1
139,90,57,0
189,23,59,1
166,19,51,1
100,47,32,1
`

const corpusScript = `import pandas as pd
df = pd.read_csv("diabetes.csv")
df = df.fillna(df.mean())
df = df[df["SkinThickness"] < 80]
df = pd.get_dummies(df)
y = df["Outcome"]
`

func newTestSystem(t *testing.T, opts Options) *System {
	t.Helper()
	data, err := ReadCSV(strings.NewReader(testCSV))
	if err != nil {
		t.Fatal(err)
	}
	var corpus []*Script
	for i := 0; i < 5; i++ {
		s, err := ParseScript(corpusScript)
		if err != nil {
			t.Fatal(err)
		}
		corpus = append(corpus, s)
	}
	sys, err := NewSystem(corpus, map[string]*Frame{"diabetes.csv": data}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(nil, nil, Options{}); !errors.Is(err, ErrEmptyCorpus) {
		t.Fatalf("err = %v", err)
	}
	data, _ := ReadCSV(strings.NewReader(testCSV))
	s, _ := ParseScript(corpusScript)
	if _, err := NewSystem([]*Script{s}, map[string]*Frame{"diabetes.csv": data},
		Options{Measure: IntentModel}); err == nil {
		t.Fatal("IntentModel without TargetColumn should error")
	}
	if _, err := NewSystem([]*Script{s}, map[string]*Frame{"diabetes.csv": data},
		Options{Measure: "bogus"}); err == nil {
		t.Fatal("unknown measure should error")
	}
}

func TestStandardizeViaFacade(t *testing.T) {
	sys := newTestSystem(t, Options{Tau: 0.5, SeqLength: 8})
	input, err := ParseScript(`import pandas as pd
df = pd.read_csv("diabetes.csv")
df = df.fillna(df.median())
df = pd.get_dummies(df)
`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Standardize(input)
	if err != nil {
		t.Fatal(err)
	}
	if res.ImprovementPct <= 0 {
		t.Fatalf("improvement = %v", res.ImprovementPct)
	}
	if res.REAfter >= res.REBefore {
		t.Fatal("RE did not drop")
	}
	if len(res.Transformations) == 0 {
		t.Fatal("no transformations reported")
	}
	if res.Script == nil || res.Script.NumStmts() == 0 {
		t.Fatal("empty output script")
	}
}

func TestFacadeModelMeasure(t *testing.T) {
	sys := newTestSystem(t, Options{
		Measure:      IntentModel,
		Tau:          10,
		TargetColumn: "Outcome",
		SeqLength:    4,
	})
	input, _ := ParseScript(`import pandas as pd
df = pd.read_csv("diabetes.csv")
`)
	res, err := sys.Standardize(input)
	if err != nil {
		t.Fatal(err)
	}
	if res.ImprovementPct < 0 {
		t.Fatalf("improvement = %v", res.ImprovementPct)
	}
}

func TestFacadeAutoConfig(t *testing.T) {
	sys := newTestSystem(t, Options{Auto: true})
	stats := sys.Stats()
	if stats.Scripts != 5 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.UniqueEdges == 0 || stats.UniqueNgrams == 0 || stats.UniqueUnigrams == 0 {
		t.Fatalf("empty stats: %+v", stats)
	}
}

func TestFacadeRE(t *testing.T) {
	sys := newTestSystem(t, Options{})
	common, _ := ParseScript(corpusScript)
	rare, _ := ParseScript(`import pandas as pd
df = pd.read_csv("diabetes.csv")
df = df.fillna(df.median())
`)
	if sys.RE(common) >= sys.RE(rare) {
		t.Fatal("corpus script should be more standard than a rare one")
	}
}

func TestLemmatizeFacade(t *testing.T) {
	s, _ := ParseScript("import pandas\ntrain = pandas.read_csv(\"x.csv\")\ntrain = train.dropna()\n")
	lem := Lemmatize(s)
	if !strings.Contains(lem.Source(), "df = df.dropna()") {
		t.Fatalf("lemmatize = %q", lem.Source())
	}
}

func TestImprovementHelper(t *testing.T) {
	if Improvement(2, 1) != 50 {
		t.Fatal("Improvement")
	}
}

func TestFacadeInputFailure(t *testing.T) {
	sys := newTestSystem(t, Options{})
	bad, _ := ParseScript(`import pandas as pd
df = pd.read_csv("missing.csv")
`)
	if _, err := sys.Standardize(bad); err == nil {
		t.Fatal("missing source should error")
	}
}

func TestReadCSVFacade(t *testing.T) {
	f, err := ReadCSV(strings.NewReader("a,b\n1,2\n"))
	if err != nil || f.NumRows() != 1 {
		t.Fatalf("ReadCSV: %v", err)
	}
	if _, err := ReadCSVFile("/nonexistent/file.csv"); err == nil {
		t.Fatal("missing file should error")
	}
}

func TestNewSystemFromRegistryMatchesNewSystem(t *testing.T) {
	opts := Options{Tau: 0.5, SeqLength: 6}
	sys := newTestSystem(t, opts)
	var members []registry.Script
	for i := 0; i < 5; i++ {
		members = append(members, registry.Script{ID: fmt.Sprintf("s%d", i), Source: corpusScript})
	}
	dir := t.TempDir()
	if _, err := registry.Create(dir, members); err != nil {
		t.Fatal(err)
	}
	// A warm open, as a later session would do: curation is not re-run.
	reg, err := registry.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := ReadCSV(strings.NewReader(testCSV))
	loaded, err := NewSystemFromRegistry(reg, map[string]*Frame{"diabetes.csv": data}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Stats() != sys.Stats() {
		t.Fatalf("stats differ: %+v vs %+v", loaded.Stats(), sys.Stats())
	}
	input, _ := ParseScript(`import pandas as pd
df = pd.read_csv("diabetes.csv")
df = df.fillna(df.median())
`)
	a, err := sys.Standardize(input)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.Standardize(input)
	if err != nil {
		t.Fatal(err)
	}
	if a.Script.Source() != b.Script.Source() {
		t.Fatalf("registry system differs:\n%s\nvs\n%s", a.Script.Source(), b.Script.Source())
	}
}
