package interp

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"lucidscript/internal/corpusgen"
	"lucidscript/internal/frame"
	"lucidscript/internal/script"
)

// frameRepr renders a frame (or nil) for equality checks.
func frameRepr(f *frame.Frame) string {
	if f == nil {
		return "<nil>"
	}
	return f.String()
}

func seriesRepr(s *frame.Series) string {
	if s == nil {
		return "<nil>"
	}
	var b strings.Builder
	b.WriteString(s.Name())
	for i := 0; i < s.Len(); i++ {
		b.WriteByte('\n')
		if !s.IsValid(i) {
			b.WriteString("<null>")
			continue
		}
		b.WriteString(s.StringAt(i))
	}
	return b.String()
}

// assertSameResult compares a cached run against a plain Run: identical
// error strings, or identical Main/X/Y contents.
func assertSameResult(t *testing.T, label string, plain *Result, plainErr error, cached *Result, cachedErr error) {
	t.Helper()
	if (plainErr == nil) != (cachedErr == nil) {
		t.Fatalf("%s: plain err=%v, cached err=%v", label, plainErr, cachedErr)
	}
	if plainErr != nil {
		if plainErr.Error() != cachedErr.Error() {
			t.Fatalf("%s: error mismatch\nplain:  %v\ncached: %v", label, plainErr, cachedErr)
		}
		return
	}
	if got, want := frameRepr(cached.Main), frameRepr(plain.Main); got != want {
		t.Fatalf("%s: Main mismatch\nplain:\n%s\ncached:\n%s", label, want, got)
	}
	if got, want := frameRepr(cached.X), frameRepr(plain.X); got != want {
		t.Fatalf("%s: X mismatch\nplain:\n%s\ncached:\n%s", label, want, got)
	}
	if got, want := seriesRepr(cached.Y), seriesRepr(plain.Y); got != want {
		t.Fatalf("%s: Y mismatch\nplain:\n%s\ncached:\n%s", label, want, got)
	}
}

// TestSessionCacheMatchesRunCorpus pushes a whole generated Titanic corpus
// (heavy prefix sharing: every script starts with the same read_csv) through
// one shared cache and checks each result against a fresh plain Run.
func TestSessionCacheMatchesRunCorpus(t *testing.T) {
	comp, err := corpusgen.Get("Titanic")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := comp.Generate(corpusgen.GenOptions{Seed: 3, RowScale: 0.01, MinRows: 60})
	if err != nil {
		t.Fatal(err)
	}
	srcs := SampleSources(gen.Sources, 40, 5) // exercise pre-sampling too
	opts := Options{Seed: 5}
	cache := NewSessionCache(srcs, opts, 0)
	for i, gs := range gen.Scripts {
		plain, plainErr := Run(gs.Script, srcs, opts)
		cached, cachedErr := cache.Run(gs.Script)
		assertSameResult(t, fmt.Sprintf("script %d", i), plain, plainErr, cached, cachedErr)
	}
	st := cache.Stats()
	if st.Hits == 0 {
		t.Fatalf("corpus scripts share prefixes but cache recorded no hits: %+v", st)
	}
	if st.StmtsExecuted+st.StmtsSkipped != st.Hits+st.Misses {
		t.Fatalf("counter mismatch: %+v", st)
	}
}

// TestSessionCacheRNG checks that RNG-dependent ops (df.sample) behave
// identically through the cache: forked environments must replay the seeded
// stream from the exact draw count of their prefix.
func TestSessionCacheRNG(t *testing.T) {
	sources := titanicSources(t)
	prefix := `import pandas as pd
df = pd.read_csv("train.csv")
df = df.sample(frac=0.5)
`
	variants := []string{
		prefix + `df["Fare"] = df["Fare"].fillna(0)
df = df.sample(frac=0.5)
`,
		prefix + `df = df.sample(frac=0.5)
`,
		prefix + `df["Age"] = df["Age"].fillna(df["Age"].mean())
df = df.sample(frac=0.5)
`,
	}
	opts := Options{Seed: 7}
	cache := NewSessionCache(sources, opts, 0)
	// Run twice: second pass is all hits and must reproduce the first.
	for pass := 0; pass < 2; pass++ {
		for i, src := range variants {
			s, err := script.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			plain, plainErr := Run(s, sources, opts)
			cached, cachedErr := cache.Run(s)
			assertSameResult(t, fmt.Sprintf("pass %d variant %d", pass, i), plain, plainErr, cached, cachedErr)
		}
	}
}

// TestSessionCacheForkIsolation diverges two scripts after a shared prefix
// with in-place-looking assignments (df["c"] = ..., df.loc[...] = ...) and
// re-runs the first: if any op mutated a frame reachable from the shared
// prefix, the re-run would observe the other branch's writes.
func TestSessionCacheForkIsolation(t *testing.T) {
	sources := titanicSources(t)
	prefix := `import pandas as pd
df = pd.read_csv("train.csv")
df["Age"] = df["Age"].fillna(0)
`
	a := prefix + `df["Flag"] = 1.0
`
	b := prefix + `df["Flag"] = 2.0
df.loc[df["Age"] > 30, "Age"] = 99
`
	opts := Options{Seed: 1}
	cache := NewSessionCache(sources, opts, 0)
	parse := func(src string) *script.Script {
		s, err := script.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	first, err := cache.Run(parse(a))
	if err != nil {
		t.Fatal(err)
	}
	want := frameRepr(first.Main)
	if _, err := cache.Run(parse(b)); err != nil {
		t.Fatal(err)
	}
	again, err := cache.Run(parse(a))
	if err != nil {
		t.Fatal(err)
	}
	if got := frameRepr(again.Main); got != want {
		t.Fatalf("branch b leaked into cached prefix of a\nbefore:\n%s\nafter:\n%s", want, got)
	}
	// The prefix statements must not re-execute on the re-run.
	st := cache.Stats()
	if st.Hits == 0 {
		t.Fatalf("expected prefix hits, got %+v", st)
	}
}

// TestSessionCacheErrors checks failing statements are cached with the same
// error text a plain Run produces, and that repeats are hits not re-runs.
func TestSessionCacheErrors(t *testing.T) {
	sources := titanicSources(t)
	src := `import pandas as pd
df = pd.read_csv("train.csv")
df["Oops"] = df["Missing"].fillna(0)
`
	s, err := script.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Seed: 1}
	cache := NewSessionCache(sources, opts, 0)
	_, plainErr := Run(s, sources, opts)
	if plainErr == nil {
		t.Fatal("script should fail")
	}
	_, err1 := cache.Run(s)
	if err1 == nil || err1.Error() != plainErr.Error() {
		t.Fatalf("cached error = %v, want %v", err1, plainErr)
	}
	before := cache.Stats()
	_, err2 := cache.Run(s)
	if err2 == nil || err2.Error() != plainErr.Error() {
		t.Fatalf("repeat cached error = %v, want %v", err2, plainErr)
	}
	after := cache.Stats()
	if after.Misses != before.Misses {
		t.Fatalf("repeat of failing script re-executed: before %+v after %+v", before, after)
	}
}

// TestSessionCacheEviction bounds the trie very tightly and checks the cache
// stays correct while evicting.
func TestSessionCacheEviction(t *testing.T) {
	sources := titanicSources(t)
	opts := Options{Seed: 1}
	cache := NewSessionCache(sources, opts, 6)
	view := cache.SoleView()
	for i := 0; i < 8; i++ {
		src := fmt.Sprintf(`import pandas as pd
df = pd.read_csv("train.csv")
df["V%d"] = %d
`, i, i)
		s, err := script.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		plain, plainErr := Run(s, sources, opts)
		cached, cachedErr := view.RunContext(context.Background(), s)
		assertSameResult(t, fmt.Sprintf("script %d", i), plain, plainErr, cached, cachedErr)
	}
	st := cache.Stats()
	if st.Evictions == 0 {
		t.Fatalf("expected evictions with maxNodes=6: %+v", st)
	}
	// The sole view's stats are the cache's own, evictions included.
	if vs := view.Stats(); vs != st {
		t.Fatalf("sole view stats %+v, cache stats %+v", vs, st)
	}
	// Evicted prefixes must still produce correct results when re-run.
	src := `import pandas as pd
df = pd.read_csv("train.csv")
df["V0"] = 0
`
	s, err := script.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	plain, plainErr := Run(s, sources, opts)
	cached, cachedErr := cache.Run(s)
	assertSameResult(t, "re-run after eviction", plain, plainErr, cached, cachedErr)
}

// TestSessionCacheConcurrent hammers one cache from many goroutines (run
// under -race); every result must still match a plain Run.
func TestSessionCacheConcurrent(t *testing.T) {
	sources := titanicSources(t)
	opts := Options{Seed: 7}
	variants := []string{
		`import pandas as pd
df = pd.read_csv("train.csv")
df["Age"] = df["Age"].fillna(0)
df["Fare"] = df["Fare"].fillna(df["Fare"].mean())
`,
		`import pandas as pd
df = pd.read_csv("train.csv")
df["Age"] = df["Age"].fillna(0)
df = df.sample(frac=0.5)
`,
		`import pandas as pd
df = pd.read_csv("train.csv")
df["Age"] = df["Age"].fillna(0)
df.loc[df["Age"] > 30, "Age"] = 99
`,
		`import pandas as pd
df = pd.read_csv("train.csv")
df["Oops"] = df["Missing"].fillna(0)
`,
	}
	scripts := make([]*script.Script, len(variants))
	plains := make([]*Result, len(variants))
	plainErrs := make([]error, len(variants))
	for i, src := range variants {
		s, err := script.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		scripts[i] = s
		plains[i], plainErrs[i] = Run(s, sources, opts)
	}
	cache := NewSessionCache(sources, opts, 0)
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 8; rep++ {
				i := (g + rep) % len(scripts)
				cached, cachedErr := cache.Run(scripts[i])
				if (plainErrs[i] == nil) != (cachedErr == nil) {
					errc <- fmt.Errorf("script %d: plain err=%v cached err=%v", i, plainErrs[i], cachedErr)
					return
				}
				if cachedErr != nil {
					if cachedErr.Error() != plainErrs[i].Error() {
						errc <- fmt.Errorf("script %d: error mismatch: %v vs %v", i, cachedErr, plainErrs[i])
					}
					continue
				}
				if frameRepr(cached.Main) != frameRepr(plains[i].Main) {
					errc <- fmt.Errorf("script %d: Main mismatch under concurrency", i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestEstSavedTime sanity-checks the extrapolation arithmetic.
func TestEstSavedTime(t *testing.T) {
	st := CacheStats{StmtsExecuted: 4, StmtsSkipped: 8, ExecTime: 400}
	if got := st.EstSavedTime(); got != 800 {
		t.Fatalf("EstSavedTime = %d, want 800", got)
	}
	if got := (CacheStats{}).EstSavedTime(); got != 0 {
		t.Fatalf("zero stats EstSavedTime = %d, want 0", got)
	}
}
