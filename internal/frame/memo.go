package frame

import (
	"sync"
	"sync/atomic"
)

// memo holds what verification derives from a frame's cells, computed on
// first use and kept for the frame's lifetime. It relies on the
// immutability contract (DESIGN.md §9): the cells of a frame's columns
// never change, so neither does anything derived from them. A structural
// edit (AddColumn, SetColumn) drops the memo, so the frame's next use
// starts a fresh one under a new id. It is safe for concurrent use: the
// execution-prefix cache hands one frame to many searches.
type memo struct {
	// id is the frame's identity, process-unique and never reused: the
	// key other frames memoize their Jaccard index against this one by.
	id uint64

	mu       sync.Mutex
	digest   string
	distinct int                // ValueSet().Len(), -1 until a set is built
	jaccard  map[uint64]float64 // exact Jaccard index by reference frame id
}

// lastMemoID is the last frame identity handed out.
var lastMemoID atomic.Uint64

// memo returns the frame's memo, starting it on first use.
func (f *Frame) memo() *memo {
	if m := f.m.Load(); m != nil {
		return m
	}
	m := &memo{id: lastMemoID.Add(1), distinct: -1}
	if f.m.CompareAndSwap(nil, m) {
		return m
	}
	return f.m.Load()
}

// dropMemo forgets everything derived from the frame and its identity.
func (f *Frame) dropMemo() {
	if f.m.Load() != nil {
		f.m.Store(nil)
	}
}

// DistinctCount returns ValueSet().Len() when a value set of the frame has
// been built, and false when none has.
func (f *Frame) DistinctCount() (int, bool) {
	m := f.memo()
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.distinct, m.distinct >= 0
}

// MemoJaccard returns the Jaccard index of the frame's value set against
// ref's, when StoreJaccard recorded one.
func (f *Frame) MemoJaccard(ref *Frame) (float64, bool) {
	id := ref.memo().id
	m := f.memo()
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jaccard[id]
	return j, ok
}

// StoreJaccard records j as the exact Jaccard index of the frame's value
// set against ref's. The key is ref's identity, so the memo keeps ref
// itself unreachable from f.
func (f *Frame) StoreJaccard(ref *Frame, j float64) {
	id := ref.memo().id
	m := f.memo()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.jaccard == nil {
		m.jaccard = map[uint64]float64{}
	}
	m.jaccard[id] = j
}
