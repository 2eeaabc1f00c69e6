package interp

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"lucidscript/internal/faults"
	"lucidscript/internal/frame"
	"lucidscript/internal/script"
)

// CacheStats counts what a SessionCache did. Hits/Misses are per-statement
// trie lookups; StmtsSkipped/StmtsExecuted mirror them so the search layer
// can report how much interpreter work the prefix cache avoided.
type CacheStats struct {
	Hits          int64
	Misses        int64
	Evictions     int64
	StmtsExecuted int64
	StmtsSkipped  int64
	// ExecTime is the wall time spent actually executing statements
	// (cache misses only).
	ExecTime time.Duration
}

// EstSavedTime extrapolates the execution time the cache avoided, assuming
// skipped statements would have cost the mean observed per-statement time.
func (c CacheStats) EstSavedTime() time.Duration {
	if c.StmtsExecuted == 0 {
		return 0
	}
	per := float64(c.ExecTime) / float64(c.StmtsExecuted)
	return time.Duration(per * float64(c.StmtsSkipped))
}

// trieNode is one executed statement prefix. The path from the root spells
// the exact statement texts executed so far; env is the (immutable) forked
// environment after executing that prefix, or nil when the prefix fails,
// in which case err holds the failure.
type trieNode struct {
	key      string
	parent   *trieNode
	children map[string]*trieNode
	env      *Env
	err      error
	lastUsed int64
	// detached marks a node that is no longer reachable from the root:
	// evicted, or created under an evicted node by a run that still held
	// it. Nothing is ever inserted under a detached node, so the node
	// count only ever covers the reachable trie.
	detached bool
}

// SessionCache executes scripts statement-by-statement through a trie of
// previously executed prefixes: a candidate script only pays for the
// statements after its first divergence from any earlier candidate. Safe for
// concurrent use; statement execution happens outside the lock.
//
// Correctness rests on two properties the interpreter now guarantees:
// execution is deterministic (fixed sources, seeded replayable RNG), and no
// operation mutates a frame or series reachable from an earlier environment
// (assignments rebind variables to fresh frames instead). Equal prefix text
// therefore implies an equal environment, and cached environments stay valid
// forever.
type SessionCache struct {
	mu       sync.Mutex
	root     *trieNode
	maxNodes int
	nodes    int
	clock    int64
	stats    CacheStats
	// limits mirrors the root environment's governor for the per-run
	// MaxSteps check (which is positional, not per-statement, and so
	// cannot live inside exec).
	limits *Limits
}

// DefaultCacheSize bounds the trie when the caller passes maxNodes <= 0.
const DefaultCacheSize = 8192

// NewSessionCache builds a cache over the given sources; opts.Seed seeds
// every execution.
func NewSessionCache(sources map[string]*frame.Frame, opts Options, maxNodes int) *SessionCache {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if maxNodes <= 0 {
		maxNodes = DefaultCacheSize
	}
	return &SessionCache{
		root:     &trieNode{env: newEnv(sources, opts.Seed, opts.Limits, opts.Faults)},
		maxNodes: maxNodes,
		limits:   opts.Limits,
	}
}

// Run executes the script, reusing every previously executed prefix.
// The result is identical to interp.Run with the same sources and options.
func (c *SessionCache) Run(s *script.Script) (*Result, error) {
	return c.RunContext(context.Background(), s)
}

// RunContext is Run with statement-granularity cancellation: the context is
// checked before every statement, so a deadline aborts mid-candidate. A
// canceled run returns an error wrapping ctx.Err() and never writes a
// cancellation into the trie — every cached prefix node always holds a
// fully executed (or genuinely failed) statement, so the cache stays
// consistent and reusable after an abort.
func (c *SessionCache) RunContext(ctx context.Context, s *script.Script) (*Result, error) {
	return c.runContext(ctx, s, stmtKeys(s), nil)
}

// stmtKeys renders every statement once: the trie keys of a run.
func stmtKeys(s *script.Script) []string {
	keys := make([]string, len(s.Stmts))
	for i, st := range s.Stmts {
		keys[i] = st.Source()
	}
	return keys
}

// runContext is RunContext on pre-rendered statements (keys[i] is
// s.Stmts[i].Source()) with optional per-view stats attribution: when view
// is non-nil, every statement's hit/miss delta is also folded into the
// view's private counters (the shared totals always accumulate).
func (c *SessionCache) runContext(ctx context.Context, s *script.Script, keys []string, view *CacheView) (*Result, error) {
	node := c.root
	for i, st := range s.Stmts {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("interp: canceled before line %d (%s): %w", i+1, keys[i], err)
		}
		if err := c.limits.checkStep(i); err != nil {
			return nil, &StmtError{Line: i + 1, Stmt: keys[i], Err: err}
		}
		next, delta, err := c.step(node, i, st, keys[i])
		if view != nil {
			view.add(delta)
		}
		if err != nil {
			return nil, err
		}
		node = next
	}
	// Fork so the caller never holds a reference to a cached environment.
	c.mu.Lock()
	env := node.env.fork()
	c.mu.Unlock()
	return env.result(), nil
}

// Stats returns a snapshot of the counters.
func (c *SessionCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// step advances one statement from node, returning the child node for st,
// whose rendering is key, and the per-statement stats delta (one hit or one miss with its exec time).
// On a hit the cached child is returned; on a miss the parent environment is
// forked and the statement executed outside the lock, then inserted. When two
// goroutines race on the same miss, the first insert wins and the loser's
// result is discarded — determinism makes them interchangeable.
func (c *SessionCache) step(node *trieNode, line int, st script.Stmt, key string) (*trieNode, CacheStats, error) {
	c.mu.Lock()
	c.clock++
	if child, ok := node.children[key]; ok {
		child.lastUsed = c.clock
		c.stats.Hits++
		c.stats.StmtsSkipped++
		c.mu.Unlock()
		return child, CacheStats{Hits: 1, StmtsSkipped: 1}, child.err
	}
	c.stats.Misses++
	c.stats.StmtsExecuted++
	env := node.env.fork()
	c.mu.Unlock()

	start := time.Now()
	execErr := env.execGoverned(faults.SiteCacheStep, st)
	elapsed := time.Since(start)
	if execErr != nil {
		execErr = &StmtError{Line: line + 1, Stmt: key, Err: execErr}
		env = nil
	}
	delta := CacheStats{Misses: 1, StmtsExecuted: 1, ExecTime: elapsed}

	// An injected fault must never be memoized: unlike a genuine failure it
	// is not a property of the statement, so caching it would poison the
	// prefix for every later candidate (the same rule that keeps context
	// cancellations out of the trie). Genuine panics and budget violations
	// ARE cached — execution is deterministic, so the statement would fail
	// identically on every re-run.
	if execErr != nil && errors.Is(execErr, faults.ErrInjected) {
		c.mu.Lock()
		c.stats.ExecTime += elapsed
		c.mu.Unlock()
		return nil, delta, execErr
	}

	c.mu.Lock()
	c.stats.ExecTime += elapsed
	c.clock++
	if node.detached {
		// The parent was evicted while this statement ran outside the
		// lock: hand the executed child back uncached, so the run can go
		// on without growing an unreachable subtree.
		c.mu.Unlock()
		return &trieNode{key: key, env: env, err: execErr, detached: true}, delta, execErr
	}
	if child, ok := node.children[key]; ok {
		// Lost the race; keep the first-inserted node.
		child.lastUsed = c.clock
		c.mu.Unlock()
		return child, delta, child.err
	}
	child := &trieNode{key: key, parent: node, env: env, err: execErr, lastUsed: c.clock}
	if node.children == nil {
		node.children = make(map[string]*trieNode)
	}
	node.children[key] = child
	c.nodes++
	if c.nodes > c.maxNodes {
		c.evictLocked()
	}
	c.mu.Unlock()
	return child, delta, child.err
}

// CacheView is a per-caller handle on a SessionCache, and the surface the
// search layer runs candidates through: runs through a view hit the same
// trie (so concurrent jobs share each other's prefixes) while the view's
// Stats only count this caller's traffic. Evictions are a property of the
// shared cache, not of any one view, so a shared view's Evictions stays 0 —
// read the underlying cache's Stats for them. Safe for concurrent use.
type CacheView struct {
	c *SessionCache
	// sole marks the only view of its cache (SoleView), whose Stats are
	// the cache's own, evictions included.
	sole  bool
	mu    sync.Mutex
	stats CacheStats
}

// NewView returns a view whose Stats attribute traffic to this caller only.
func (c *SessionCache) NewView() *CacheView { return &CacheView{c: c} }

// SoleView returns the view of a cache that no other caller runs through:
// its Stats report the cache's evictions too. Call it at most once per
// cache, in place of NewView.
func (c *SessionCache) SoleView() *CacheView { return &CacheView{c: c, sole: true} }

func (v *CacheView) add(d CacheStats) {
	v.mu.Lock()
	v.stats.Hits += d.Hits
	v.stats.Misses += d.Misses
	v.stats.StmtsExecuted += d.StmtsExecuted
	v.stats.StmtsSkipped += d.StmtsSkipped
	v.stats.ExecTime += d.ExecTime
	v.mu.Unlock()
}

// RunContext executes the script through the shared cache, attributing the
// per-statement traffic to this view.
func (v *CacheView) RunContext(ctx context.Context, s *script.Script) (*Result, error) {
	return v.c.runContext(ctx, s, stmtKeys(s), v)
}

// RunKeyed is RunContext for a caller that already holds every statement's
// rendering: keys[i] must be s.Stmts[i].Source(), the statement's trie key.
func (v *CacheView) RunKeyed(ctx context.Context, s *script.Script, keys []string) (*Result, error) {
	return v.c.runContext(ctx, s, keys, v)
}

// Stats returns a snapshot of this view's traffic counters.
func (v *CacheView) Stats() CacheStats {
	v.mu.Lock()
	s := v.stats
	v.mu.Unlock()
	if v.sole {
		s.Evictions = v.c.Stats().Evictions
	}
	return s
}

// evictLocked drops least-recently-used leaves until the trie is at 90% of
// capacity. Only leaves are evicted (an interior node's environment is still
// the fork source for its children); the root never goes away. Called with
// c.mu held.
func (c *SessionCache) evictLocked() {
	target := c.maxNodes * 9 / 10
	for c.nodes > target {
		var leaves []*trieNode
		c.walkLeaves(c.root, func(n *trieNode) { leaves = append(leaves, n) })
		if len(leaves) == 0 {
			return
		}
		sort.Slice(leaves, func(i, j int) bool { return leaves[i].lastUsed < leaves[j].lastUsed })
		for _, v := range leaves {
			if c.nodes <= target {
				break
			}
			delete(v.parent.children, v.key)
			v.detached = true
			c.nodes--
			c.stats.Evictions++
		}
		// Evicting leaves can expose new leaves; loop until at target.
	}
}

// CheckInvariants walks the whole trie under the cache lock and verifies
// the structural invariants every operation must preserve:
//
//  1. every node holds an environment XOR an error — a fully executed
//     statement or a genuine deterministic failure, never both or neither;
//  2. no cached error is a context cancellation or an injected fault
//     (aborted runs and chaos injections must never poison the trie);
//  3. parent/key links are consistent and the node-count bookkeeping
//     matches the walked trie and respects the configured cap.
//
// It returns the first violation found, or nil. Chaos and property tests
// call it after hammering a shared cache; it is exported (rather than
// test-local) so tests in other packages can assert the same invariants.
func (c *SessionCache) CheckInvariants() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	walked := 0
	var walk func(n *trieNode) error
	walk = func(n *trieNode) error {
		if n != c.root {
			walked++
			if (n.env == nil) == (n.err == nil) {
				return fmt.Errorf("node %q: env=%v err=%v, want exactly one", n.key, n.env != nil, n.err)
			}
			if n.err != nil && (errors.Is(n.err, context.Canceled) || errors.Is(n.err, context.DeadlineExceeded)) {
				return fmt.Errorf("node %q caches a context error: %v", n.key, n.err)
			}
			if n.err != nil && errors.Is(n.err, faults.ErrInjected) {
				return fmt.Errorf("node %q caches an injected fault: %v", n.key, n.err)
			}
		}
		for key, ch := range n.children {
			if ch.key != key || ch.parent != n {
				return fmt.Errorf("node %q: broken parent/key links", key)
			}
			if err := walk(ch); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(c.root); err != nil {
		return err
	}
	if walked != c.nodes {
		return fmt.Errorf("walked %d nodes, bookkeeping says %d", walked, c.nodes)
	}
	if c.nodes > c.maxNodes {
		return fmt.Errorf("trie holds %d nodes, cap is %d", c.nodes, c.maxNodes)
	}
	return nil
}

func (c *SessionCache) walkLeaves(n *trieNode, fn func(*trieNode)) {
	if len(n.children) == 0 {
		if n != c.root {
			fn(n)
		}
		return
	}
	for _, ch := range n.children {
		c.walkLeaves(ch, fn)
	}
}
