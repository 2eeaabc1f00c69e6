package core

import (
	"testing"

	"lucidscript/internal/corpusgen"
	"lucidscript/internal/intent"
)

// titanicWorkload builds the seed Titanic standardization workload from the
// generated corpus: the first script is the user input, the rest the corpus.
func titanicWorkload(t testing.TB) (*Standardizer, func(Config) *Standardizer, *corpusgen.Generated) {
	t.Helper()
	comp, err := corpusgen.Get("Titanic")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := comp.Generate(corpusgen.GenOptions{Seed: 3, RowScale: 0.01, MinRows: 80, NumScripts: 16})
	if err != nil {
		t.Fatal(err)
	}
	build := func(cfg Config) *Standardizer {
		return New(gen.ScriptsOnly()[1:], gen.Sources, cfg)
	}
	return build(DefaultConfig()), build, gen
}

// TestExecCacheEquivalence: with the prefix cache on vs. off the output
// script is byte-identical — and the cache cuts interpreter statement
// executions by at least 2× on the Titanic workload.
func TestExecCacheEquivalence(t *testing.T) {
	_, build, gen := titanicWorkload(t)
	input := gen.ScriptsOnly()[0]
	cfg := DefaultConfig()
	cfg.SeqLength = 8

	on := cfg
	on.ExecCache = true
	off := cfg
	off.ExecCache = false

	resOn, err := build(on).Standardize(input)
	if err != nil {
		t.Fatalf("cache on: %v", err)
	}
	resOff, err := build(off).Standardize(input)
	if err != nil {
		t.Fatalf("cache off: %v", err)
	}
	if got, want := resOn.Output.Source(), resOff.Output.Source(); got != want {
		t.Fatalf("cache changed the output\non:\n%s\noff:\n%s", got, want)
	}
	if resOn.REAfter != resOff.REAfter || resOn.IntentValue != resOff.IntentValue {
		t.Fatalf("cache changed scores: on=(%v,%v) off=(%v,%v)",
			resOn.REAfter, resOn.IntentValue, resOff.REAfter, resOff.IntentValue)
	}

	st := resOn.CacheStats
	total := st.StmtsExecuted + st.StmtsSkipped
	if st.StmtsExecuted == 0 || total < 2*st.StmtsExecuted {
		t.Fatalf("cache below 2x: executed %d of %d statements (%+v)", st.StmtsExecuted, total, st)
	}
	t.Logf("%d/%d statements executed (%.1fx reduction), %d hits, %d misses",
		st.StmtsExecuted, total, float64(total)/float64(st.StmtsExecuted), st.Hits, st.Misses)

	if off := resOff.CacheStats; off.Hits != 0 || off.Misses != 0 {
		t.Fatalf("cache-off run reported cache stats %+v", off)
	}
}

// TestModelKeyCollisionFree: the old encoding dropped Protected entirely and
// didn't guard separators inside string fields, so distinct model configs
// could share a verify-cache key (silently reusing a wrong accuracy).
func TestModelKeyCollisionFree(t *testing.T) {
	configs := []intent.ModelConfig{
		{Target: "y", Epochs: 120},
		{Target: "y", Epochs: 120, Protected: "sex"},
		{Target: "y", Epochs: 120, Protected: "race"},
		// Unquoted, both would encode as y/sex//120.
		{Target: "y/sex", Epochs: 120},
		{Target: "y", Epochs: 120, Protected: "sex/"},
		{Target: "y", Epochs: 60},
	}
	seen := map[string]int{}
	for i, m := range configs {
		k := modelKey(m)
		if j, dup := seen[k]; dup {
			t.Fatalf("configs %d and %d collide on key %q", j, i, k)
		}
		seen[k] = i
	}
}
