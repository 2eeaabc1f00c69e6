package interp

import (
	"context"
	"errors"
	"testing"

	"lucidscript/internal/script"
)

const ctxTestScript = `import pandas as pd
df = pd.read_csv("train.csv")
df["Age"] = df["Age"].fillna(df["Age"].mean())
df = df[df["Fare"] < 60]
y = df["Survived"]
`

func TestRunContextCanceled(t *testing.T) {
	sources := titanicSources(t)
	s, err := script.Parse(ctxTestScript)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, s, sources, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext after cancel: %v, want context.Canceled", err)
	}
	// Background context still runs fine.
	if _, err := RunContext(context.Background(), s, sources, Options{}); err != nil {
		t.Fatalf("RunContext background: %v", err)
	}
}

// TestSessionCacheCanceledLeavesTrieConsistent cancels a cached run and
// then re-runs the same script: the abort must not have cached the
// cancellation, and the completed run must match a plain interpreter run.
func TestSessionCacheCanceledLeavesTrieConsistent(t *testing.T) {
	sources := titanicSources(t)
	s, err := script.Parse(ctxTestScript)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Seed: 7}
	cache := NewSessionCache(sources, opts, 0)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cache.RunContext(ctx, s); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled RunContext: %v", err)
	}
	if _, err := cache.NewView().RunContext(ctx, s); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled view RunContext: %v", err)
	}

	// The canceled runs must not have inserted failure nodes: a subsequent
	// uncanceled run completes and matches a plain Run exactly.
	plain, plainErr := Run(s, sources, opts)
	cached, cachedErr := cache.Run(s)
	assertSameResult(t, "after cancel", plain, plainErr, cached, cachedErr)

	// And a second pass is pure hits — the trie holds only real statements.
	before := cache.Stats()
	if _, err := cache.Run(s); err != nil {
		t.Fatal(err)
	}
	after := cache.Stats()
	if after.Misses != before.Misses {
		t.Fatalf("re-run caused %d new misses; cancellation polluted the trie", after.Misses-before.Misses)
	}
}

// TestSessionCacheCancelMidRun cancels between statements via a context
// that trips after the first Err() poll, exercising the mid-script abort
// path rather than the pre-canceled fast path.
func TestSessionCacheCancelMidRun(t *testing.T) {
	sources := titanicSources(t)
	s, err := script.Parse(ctxTestScript)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewSessionCache(sources, Options{Seed: 7}, 0)
	ctx := &cancelAfter{Context: context.Background(), polls: 3}
	_, runErr := cache.RunContext(ctx, s)
	if !errors.Is(runErr, context.Canceled) {
		t.Fatalf("mid-run cancel: %v", runErr)
	}
	// The statements executed before the trip stay cached and correct.
	plain, plainErr := Run(s, sources, Options{Seed: 7})
	cached, cachedErr := cache.Run(s)
	assertSameResult(t, "after mid-run cancel", plain, plainErr, cached, cachedErr)
}

// cancelAfter reports context.Canceled from Err after a fixed number of
// polls, deterministically simulating a cancellation racing the run loop.
type cancelAfter struct {
	context.Context
	polls int
}

func (c *cancelAfter) Err() error {
	if c.polls <= 0 {
		return context.Canceled
	}
	c.polls--
	return nil
}
