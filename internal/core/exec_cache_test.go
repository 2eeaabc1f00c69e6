package core

import (
	"context"
	"testing"

	"lucidscript/internal/corpusgen"
	"lucidscript/internal/intent"
	"lucidscript/internal/script"
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

// standardizeUncached is Standardize on the uncached reference path:
// every candidate runs through a plain interp.RunContext.
func standardizeUncached(st *Standardizer, su *script.Script) (*Result, error) {
	ctx := context.Background()
	grid, err := st.standardizeGridSession(ctx, nil, su,
		[]int{st.Config.SeqLength}, []intent.Constraint{st.Config.Constraint})
	return st.jobResult(ctx, grid, err)
}

// TestExecCacheEquivalence: with the prefix cache on vs. off the output
// script is byte-identical — and the cache cuts interpreter statement
// executions by at least 2× on the Titanic workload.
func TestExecCacheEquivalence(t *testing.T) {
	_, build, gen := titanicWorkload(t)
	input := gen.ScriptsOnly()[0]
	cfg := DefaultConfig()
	cfg.SeqLength = 8

	resOn, err := build(cfg).Standardize(input)
	if err != nil {
		t.Fatalf("cache on: %v", err)
	}
	resOff, err := standardizeUncached(build(cfg), input)
	if err != nil {
		t.Fatalf("cache off: %v", err)
	}
	if got, want := resOn.Script.Source(), resOff.Script.Source(); got != want {
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

// benchStandardizeTitanic runs the seed Titanic workload end to end with
// the execution-prefix cache on or off (the uncached reference path); the
// pair quantifies the cache's speedup (see DESIGN.md "Execution caching"
// for recorded numbers).
func benchStandardizeTitanic(b *testing.B, cache bool) {
	c, err := corpusgen.Get("Titanic")
	if err != nil {
		b.Fatal(err)
	}
	// Enough rows that interpreter execution (not search bookkeeping)
	// dominates, as in real workloads.
	gen, err := c.Generate(corpusgen.GenOptions{Seed: 3, MinRows: 4000, NumScripts: 16})
	if err != nil {
		b.Fatal(err)
	}
	scripts := gen.ScriptsOnly()
	input := scripts[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh Standardizer per iteration so each run starts with a cold
		// cache (the cache lives for one StandardizeGrid call anyway).
		cfg := DefaultConfig()
		cfg.SeqLength = 8
		cfg.Constraint.Tau = 0.5
		st := New(scripts[1:], gen.Sources, cfg)
		standardize := st.Standardize
		if !cache {
			standardize = func(su *script.Script) (*Result, error) { return standardizeUncached(st, su) }
		}
		res, err := standardize(input)
		if err != nil {
			b.Fatal(err)
		}
		if cache && res.CacheStats.StmtsSkipped == 0 {
			b.Fatal("exec cache reported no skipped statements")
		}
	}
}

func BenchmarkStandardizeExecCacheOn(b *testing.B) { benchStandardizeTitanic(b, true) }

func BenchmarkStandardizeExecCacheOff(b *testing.B) { benchStandardizeTitanic(b, false) }

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
