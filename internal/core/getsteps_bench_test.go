package core

import (
	"testing"

	"lucidscript/internal/corpusgen"
	"lucidscript/internal/dag"
	"lucidscript/internal/entropy"
)

// The benchmarks store their results here, so the calls cannot be elided.
var (
	stepsSink    []step
	clustersSink [][]step
)

// salesStepJobs returns the Sales corpus vocabulary and the lemmatized
// lines of 16 Sales job scripts (the light mix: half minimal, half
// impute-and-split).
func salesStepJobs(b *testing.B) (*entropy.Vocab, [][]dag.LineInfo) {
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
	lines := make([][]dag.LineInfo, len(jobs))
	for i, j := range jobs {
		lines[i] = dag.Build(j.Script).Lines
	}
	return v, lines
}

// BenchmarkGetSteps ranks the first transformations of 16 Sales job
// scripts against the Sales corpus: RE scoring of every add and delete,
// with the chained-delete lookahead, which is the search's get_steps
// phase. Each job is ranked through a fresh Scorer, as a search's first
// extension is, so interning is not pre-warmed.
func BenchmarkGetSteps(b *testing.B) {
	v, jobs := salesStepJobs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, lines := range jobs {
			sc := v.NewScorer()
			stepsSink = getStepsOpt(newCandidate(lines, sc), sc, true)
		}
	}
}

// BenchmarkClusterSteps groups the ranked first transformations of the same
// 16 Sales job scripts into the search's diversity clusters by K-means over
// their edge vectors. Each job has its own Scorer, which has interned what
// that job's GetSteps showed it and nothing more, as in a search: the
// clustering embeds the very edits GetSteps scored. Ranking is outside the
// timer.
func BenchmarkClusterSteps(b *testing.B) {
	v, jobs := salesStepJobs(b)
	scorers := make([]*entropy.Scorer, len(jobs))
	cands := make([]*candidate, len(jobs))
	steps := make([][]step, len(jobs))
	for i, lines := range jobs {
		scorers[i] = v.NewScorer()
		cands[i] = newCandidate(lines, scorers[i])
		steps[i] = getStepsOpt(cands[i], scorers[i], true)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, c := range cands {
			clustersSink = clusterSteps(c, steps[j], diversityClusters, scorers[j])
		}
	}
}
