// Package faults is a deterministic, seeded fault-injection hook for chaos
// testing the standardization pipeline. Production code threads a nil
// *Injector through its options (a nil receiver makes every Fire call a
// single pointer check), while chaos tests install an Injector with seeded
// rules that fire errors, panics, delays, or resource exhaustion at named
// sites in the interpreter, the execution-prefix cache, corpus curation,
// and the job queue.
//
// Decisions are a pure function of (seed, site, key): whether a given
// Fire(site, key) call fires does not depend on timing, goroutine
// interleaving, or how many other sites fired before it. That makes chaos
// runs reproducible under -race and lets a test compare a faulted run
// against a fault-free run knowing exactly which work items were hit.
package faults

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"sync"
	"time"
)

// ErrInjected marks every error produced (or panicked) by an Injector, so
// isolation layers can distinguish injected chaos from genuine failures —
// the execution-prefix cache, for example, must never memoize an injected
// failure as if the statement were truly broken.
var ErrInjected = errors.New("faults: injected fault")

// The named injection sites wired into the pipeline. A Rule with an empty
// Site matches all of them.
const (
	// SiteInterpExec fires before each statement of an uncached interpreter
	// run; the key is the statement source text.
	SiteInterpExec = "interp.exec"
	// SiteCacheStep fires before each statement executed through a
	// SessionCache trie miss; the key is the statement source text.
	SiteCacheStep = "cache.step"
	// SiteCurateScript fires once per corpus script during curation; the
	// key is the script's decimal index.
	SiteCurateScript = "curate.script"
	// SiteBatchJob fires once per batch or queued job before it starts; the
	// key is the job's decimal index.
	SiteBatchJob = "batch.job"
)

// Kind selects what an injected fault does.
type Kind uint8

const (
	// KindError makes Fire return an error wrapping ErrInjected.
	KindError Kind = iota
	// KindPanic makes Fire panic with an error value wrapping ErrInjected,
	// exercising the real recover paths.
	KindPanic
	// KindDelay makes Fire sleep for the rule's Delay, then return nil —
	// for shaking out timeout and cancellation races.
	KindDelay
	// KindExhaust makes Fire return a Fault the site translates into its
	// resource-exhaustion error (the interpreter wraps it in
	// ErrResourceExhausted), exercising budget-quarantine paths without
	// actually burning memory.
	KindExhaust
)

// String names the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindPanic:
		return "panic"
	case KindDelay:
		return "delay"
	case KindExhaust:
		return "exhaust"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Rule arms one fault at a set of call sites. A rule fires for a given
// (site, key) pair when the pair's deterministic hash (salted by the
// injector seed and the rule's position) lands below Prob.
type Rule struct {
	// Site restricts the rule to one named site; empty matches every site.
	Site string
	// Key restricts the rule to one exact key; empty matches every key.
	Key string
	// Kind selects the fault behavior.
	Kind Kind
	// Prob is the firing probability per distinct (site, key) pair, in
	// [0, 1]. A Rule with an exact Key usually wants Prob 1.
	Prob float64
	// Delay is how long KindDelay sleeps.
	Delay time.Duration
}

// Fault describes one fired injection. Err always wraps ErrInjected.
type Fault struct {
	Kind Kind
	Err  error
}

// Injector evaluates rules at Fire call sites. The zero of *Injector (nil)
// is the production no-op: Fire on a nil receiver returns nil after a
// single comparison. Safe for concurrent use.
type Injector struct {
	seed  int64
	rules []Rule

	mu    sync.Mutex
	fired map[string]int64 // site → number of faults fired
}

// New returns an injector that evaluates the rules in order (the first
// matching rule that fires wins) with decisions salted by seed.
func New(seed int64, rules ...Rule) *Injector {
	return &Injector{seed: seed, rules: rules, fired: map[string]int64{}}
}

// Fire evaluates the rules for one (site, key) pair. It returns nil when no
// rule fires, panics for KindPanic, sleeps then returns nil for KindDelay,
// and returns a *Fault (whose Err wraps ErrInjected) for KindError and
// KindExhaust. A nil receiver always returns nil.
func (in *Injector) Fire(site, key string) *Fault {
	if in == nil {
		return nil
	}
	for ri, r := range in.rules {
		if r.Site != "" && r.Site != site {
			continue
		}
		if r.Key != "" && r.Key != key {
			continue
		}
		if !in.decide(ri, site, key, r.Prob) {
			continue
		}
		in.count(site)
		err := fmt.Errorf("%w: %s at %s (key %q)", ErrInjected, r.Kind, site, key)
		switch r.Kind {
		case KindPanic:
			panic(err)
		case KindDelay:
			time.Sleep(r.Delay)
			return nil
		default:
			return &Fault{Kind: r.Kind, Err: err}
		}
	}
	return nil
}

// decide maps (seed, rule index, site, key) onto [0,1) deterministically.
func (in *Injector) decide(rule int, site, key string, prob float64) bool {
	if prob <= 0 {
		return false
	}
	if prob >= 1 {
		return true
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d\x00%d\x00%s\x00%s", in.seed, rule, site, key)
	u := float64(h.Sum64()>>11) / float64(uint64(1)<<53) // uniform in [0,1)
	if math.IsNaN(u) {
		return false
	}
	return u < prob
}

func (in *Injector) count(site string) {
	in.mu.Lock()
	in.fired[site]++
	in.mu.Unlock()
}

// Counts returns how many faults fired per site so far.
func (in *Injector) Counts() map[string]int64 {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[string]int64, len(in.fired))
	for k, v := range in.fired {
		out[k] = v
	}
	return out
}

// Total returns the total number of faults fired across all sites.
func (in *Injector) Total() int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	var n int64
	for _, v := range in.fired {
		n += v
	}
	return n
}

// Sites returns the sites that fired at least once, sorted.
func (in *Injector) Sites() []string {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]string, 0, len(in.fired))
	for k := range in.fired {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
