package core

import (
	"testing"

	"lucidscript/internal/corpusgen"
	"lucidscript/internal/dag"
)

// BenchmarkGetSteps ranks the first transformations of 16 Sales job
// scripts (the light mix: half minimal, half impute-and-split) against the
// Sales corpus: RE scoring of every add and delete, with the chained-delete
// lookahead, which is the search's get_steps phase.
func BenchmarkGetSteps(b *testing.B) {
	comp, err := corpusgen.Get("Sales")
	if err != nil {
		b.Fatal(err)
	}
	corpus, err := comp.Generate(corpusgen.GenOptions{Seed: 1, RowScale: 0.02})
	if err != nil {
		b.Fatal(err)
	}
	v := Curate(corpus.ScriptsOnly(), nil).Vocab
	jobs, err := comp.GenerateScaled(corpusgen.ScaleConfig{Seed: 2, NumScripts: 16, MinimalRatio: 0.5, ImputeSplitRatio: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	cands := make([]*candidate, len(jobs))
	for i, j := range jobs {
		lines := dag.Build(j.Script).Lines
		cands[i] = newCandidate(lines, v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cands {
			getStepsOpt(c, v, true)
		}
	}
}
