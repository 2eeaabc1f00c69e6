package corpusgen

import (
	"testing"

	"lucidscript/internal/dag"
	"lucidscript/internal/entropy"
	"lucidscript/internal/interp"
)

func TestNamesAndGet(t *testing.T) {
	names := Names()
	if len(names) != 6 {
		t.Fatalf("names = %v", names)
	}
	for _, n := range names {
		c, err := Get(n)
		if err != nil {
			t.Fatal(err)
		}
		if c.Name != n {
			t.Fatalf("Get(%q).Name = %q", n, c.Name)
		}
	}
	if _, err := Get("Nope"); err == nil {
		t.Fatal("unknown competition should error")
	}
	if len(All()) != 6 {
		t.Fatal("All should return 6")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	c, _ := Get("Medical")
	a, err := c.Generate(GenOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Generate(GenOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	fa, fb := a.Sources[c.File], b.Sources[c.File]
	if fa.NumRows() != fb.NumRows() {
		t.Fatal("row counts differ")
	}
	if fa.Digest() != fb.Digest() {
		t.Fatal("data not deterministic")
	}
	for i := range a.Scripts {
		if a.Scripts[i].Script.Source() != b.Scripts[i].Script.Source() {
			t.Fatal("scripts not deterministic")
		}
		if a.Scripts[i].Votes != b.Scripts[i].Votes {
			t.Fatal("votes not deterministic")
		}
	}
}

func TestGenerateDifferentSeedsDiffer(t *testing.T) {
	c, _ := Get("Medical")
	a, _ := c.Generate(GenOptions{Seed: 5})
	b, _ := c.Generate(GenOptions{Seed: 6})
	same := true
	for i := range a.Scripts {
		if a.Scripts[i].Script.Source() != b.Scripts[i].Script.Source() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical corpora")
	}
}

func TestAllCompetitionScriptsExecute(t *testing.T) {
	for _, c := range All() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			g, err := c.Generate(GenOptions{Seed: 3, RowScale: 0.02, MinRows: 300})
			if err != nil {
				t.Fatal(err)
			}
			if len(g.Scripts) != c.NumScripts {
				t.Fatalf("scripts = %d, want %d", len(g.Scripts), c.NumScripts)
			}
			for i, gs := range g.Scripts {
				if _, err := interp.Run(gs.Script, g.Sources, interp.Options{Seed: 1}); err != nil {
					t.Fatalf("script %d does not execute: %v\n%s", i, err, gs.Script.Source())
				}
			}
		})
	}
}

func TestGeneratedDataShape(t *testing.T) {
	c, _ := Get("Medical")
	g, err := c.Generate(GenOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	f := g.Sources["diabetes.csv"]
	if f.NumRows() != 700 {
		t.Fatalf("rows = %d, want 700 (full scale)", f.NumRows())
	}
	if f.NumCols() != 9 {
		t.Fatalf("cols = %d, want 9 (8 features + Outcome)", f.NumCols())
	}
	out, _ := f.Column("Outcome")
	ones := 0
	for i := 0; i < out.Len(); i++ {
		if out.Float(i) == 1 {
			ones++
		}
	}
	if ones < 70 || ones > 630 {
		t.Fatalf("label balance = %d/%d", ones, out.Len())
	}
	skin, _ := f.Column("SkinThickness")
	if skin.Max() < 80 {
		t.Fatal("expected SkinThickness outliers above 80")
	}
	glucose, _ := f.Column("Glucose")
	if glucose.NullCount() == 0 {
		t.Fatal("expected nulls in Glucose")
	}
}

func TestRowScaleAndMinRows(t *testing.T) {
	c, _ := Get("Sales")
	g, err := c.Generate(GenOptions{Seed: 2, RowScale: 0.001, MinRows: 500})
	if err != nil {
		t.Fatal(err)
	}
	rows := g.Sources[c.File].NumRows()
	if rows != 744 {
		t.Fatalf("rows = %d, want 744 (0.001 × 744300)", rows)
	}
	g2, _ := c.Generate(GenOptions{Seed: 2, RowScale: 0.0001, MinRows: 500})
	if g2.Sources[c.File].NumRows() != 500 {
		t.Fatalf("MinRows floor not applied: %d", g2.Sources[c.File].NumRows())
	}
}

func TestNumScriptsOverride(t *testing.T) {
	c, _ := Get("NLP")
	g, err := c.Generate(GenOptions{Seed: 2, RowScale: 0.02, NumScripts: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Scripts) != 5 {
		t.Fatalf("scripts = %d", len(g.Scripts))
	}
}

func TestCorpusStepPopularity(t *testing.T) {
	c, _ := Get("Medical")
	g, err := c.Generate(GenOptions{Seed: 7, RowScale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, gs := range g.Scripts {
		seen := map[string]bool{}
		for _, st := range gs.Script.Stmts {
			k := st.Source()
			if !seen[k] {
				counts[k]++
				seen[k] = true
			}
		}
	}
	mean := counts["df = df.fillna(df.mean())"]
	median := counts["df = df.fillna(df.median())"]
	if mean <= median {
		t.Fatalf("mean fill (%d) should be more common than median fill (%d)", mean, median)
	}
	skin := counts[`df = df[df["SkinThickness"] < 80]`]
	if skin == 0 {
		t.Fatal("outlier filter missing from corpus")
	}
}

func TestLowRankedAndSample(t *testing.T) {
	c, _ := Get("Medical")
	g, _ := c.Generate(GenOptions{Seed: 7, RowScale: 0.5})
	low := g.LowRanked(0.3)
	want := int(float64(len(g.Scripts)) * 0.3)
	if len(low) != want {
		t.Fatalf("low-ranked = %d, want %d", len(low), want)
	}
	sampled := g.Sample(10, 1)
	if len(sampled) != 10 {
		t.Fatalf("sample = %d", len(sampled))
	}
	all := g.Sample(1000, 1)
	if len(all) != len(g.Scripts) {
		t.Fatal("oversample should return all")
	}
}

func TestVotesTrackQuality(t *testing.T) {
	c, _ := Get("Titanic")
	g, _ := c.Generate(GenOptions{Seed: 4, RowScale: 0.1})
	// Votes are quality plus bounded noise, so the mean quality of the
	// bottom-30%-by-votes slice must sit below the overall mean.
	idx := make([]int, len(g.Scripts))
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && g.Scripts[idx[j]].Votes < g.Scripts[idx[j-1]].Votes; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	n := int(float64(len(idx)) * 0.3)
	lowQ, allQ := 0.0, 0.0
	for i, k := range idx {
		if i < n {
			lowQ += g.Scripts[k].Quality
		}
		allQ += g.Scripts[k].Quality
	}
	if lowQ/float64(n) >= allQ/float64(len(idx)) {
		t.Fatalf("bottom-by-votes mean quality %.2f should be below overall %.2f",
			lowQ/float64(n), allQ/float64(len(idx)))
	}
}

func TestTable3ShapeOrdering(t *testing.T) {
	// Titanic should have the richest vocabulary and NLP the smallest,
	// mirroring Table 3's ordering.
	vocabSize := func(name string) int {
		c, _ := Get(name)
		g, err := c.Generate(GenOptions{Seed: 3, RowScale: 0.01, MinRows: 250})
		if err != nil {
			t.Fatal(err)
		}
		var graphs []*dag.Graph
		for _, s := range g.ScriptsOnly() {
			graphs = append(graphs, dag.Build(s))
		}
		return entropy.BuildVocab(graphs).NumUniqueEdges()
	}
	ti := vocabSize("Titanic")
	nl := vocabSize("NLP")
	if ti <= nl {
		t.Fatalf("Titanic vocab (%d) should exceed NLP (%d)", ti, nl)
	}
}
