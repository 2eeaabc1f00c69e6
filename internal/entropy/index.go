package entropy

import (
	"math"
	"sort"

	"lucidscript/internal/dag"
)

// index is a Vocab's id form, built once on its first use. Corpus edge ids
// are assigned in sorted key order, so ascending id order is the sorted-key
// order the RE sum runs in (see Scorer.reEdges).
type index struct {
	// edgeKeys are the corpus edge keys, sorted: an edge's id is its
	// position here.
	edgeKeys []string
	edgeIDs  map[string]int32
	// q holds float64(count)+Epsilon per corpus edge id: the smoothed
	// numerator of Q(x).
	q []float64
	// emptyRE is the RE of a script with no edges.
	emptyRE float64
	// lineKeys is SortedLineKeys' order.
	lineKeys []string
}

func (v *Vocab) index() *index {
	v.ixOnce.Do(func() { v.ix = buildIndex(v) })
	return v.ix
}

func buildIndex(v *Vocab) *index {
	ix := &index{
		edgeKeys: make([]string, 0, len(v.EdgeCounts)),
		edgeIDs:  make(map[string]int32, len(v.EdgeCounts)),
		q:        make([]float64, len(v.EdgeCounts)),
		lineKeys: make([]string, 0, len(v.LineCounts)),
	}
	for k := range v.EdgeCounts {
		ix.edgeKeys = append(ix.edgeKeys, k)
	}
	sort.Strings(ix.edgeKeys)
	for id, k := range ix.edgeKeys {
		ix.edgeIDs[k] = int32(id)
		ix.q[id] = float64(v.EdgeCounts[k]) + Epsilon
	}
	// An empty script is a uniform P over the sample space, which is then
	// the corpus edges alone: maximally uninformative. (The paper leaves
	// this case undefined.)
	if n := float64(len(ix.edgeKeys)); n > 0 {
		qTotal := float64(v.TotalEdges) + Epsilon*n
		px := 1.0 / n
		for _, q := range ix.q {
			ix.emptyRE += px * math.Log(px/(q/qTotal))
		}
	}
	for k := range v.LineCounts {
		ix.lineKeys = append(ix.lineKeys, k)
	}
	sort.Slice(ix.lineKeys, func(i, j int) bool {
		a, b := ix.lineKeys[i], ix.lineKeys[j]
		if v.LineCounts[a] != v.LineCounts[b] {
			return v.LineCounts[a] > v.LineCounts[b]
		}
		return a < b
	})
	return ix
}

// Scorer scores line-atom sequences against a Vocab on interned ids. It
// interns one search's line atoms, the variables they read and write, and
// the (from, to) atom pairs of their data-flow edges, building each pair's
// key string once. An edge the corpus never saw gets an id past the corpus
// range. A Scorer is not safe for concurrent use: give each search its
// own. Its Vocab's index is shared and read without a lock.
type Scorer struct {
	v       *Vocab
	ix      *index
	atomIDs map[string]int32
	atoms   []atom
	varIDs  map[string]int32
	// pairs maps a (from, to) atom-id pair to its edge id.
	pairs map[uint64]int32
	// unseen holds the edges past the corpus range, indexed by id minus
	// the corpus size, and unseenIDs their ids by key.
	unseen    []unseenEdge
	unseenIDs map[string]int32

	// Scratch, reused across calls.
	lastPos  []int32  // per variable: position of its nearest earlier writer
	lastGen  []uint32 // per variable: the EdgesOf call lastPos belongs to
	gen      uint32
	writers  []int32 // writer positions already linked into the current line
	counts   []int32 // per edge id: its multiplicity in the scored script
	distinct []int32
	edges    []int32
	seq      []int32
}

type atom struct {
	key           string
	reads, writes []int32
}

// unseenEdge is an edge the corpus never saw. rank is the number of corpus
// keys that sort before its key.
type unseenEdge struct {
	key  string
	rank int32
}

// NewScorer returns a Scorer over v.
func (v *Vocab) NewScorer() *Scorer {
	ix := v.index()
	return &Scorer{
		v:         v,
		ix:        ix,
		atomIDs:   map[string]int32{},
		varIDs:    map[string]int32{},
		pairs:     map[uint64]int32{},
		unseenIDs: map[string]int32{},
		counts:    make([]int32, len(ix.edgeKeys)),
	}
}

// Vocab returns the vocabulary the Scorer scores against.
func (s *Scorer) Vocab() *Vocab { return s.v }

// Intern returns the id of a line atom, assigning the next one on first
// sight. Atoms are identified by key.
func (s *Scorer) Intern(li dag.LineInfo) int32 {
	if id, ok := s.atomIDs[li.Key]; ok {
		return id
	}
	id := int32(len(s.atoms))
	s.atomIDs[li.Key] = id
	s.atoms = append(s.atoms, atom{key: li.Key, reads: s.vars(li.Reads), writes: s.vars(li.Writes)})
	return id
}

// InternAll returns the ids of a line-atom sequence, in a new slice.
func (s *Scorer) InternAll(lines []dag.LineInfo) []int32 {
	ids := make([]int32, len(lines))
	for i, li := range lines {
		ids[i] = s.Intern(li)
	}
	return ids
}

func (s *Scorer) vars(names []string) []int32 {
	ids := make([]int32, len(names))
	for i, n := range names {
		id, ok := s.varIDs[n]
		if !ok {
			id = int32(len(s.varIDs))
			s.varIDs[n] = id
			s.lastPos = append(s.lastPos, 0)
			s.lastGen = append(s.lastGen, 0)
		}
		ids[i] = id
	}
	return ids
}

// IsCorpusEdge reports whether an edge id names a corpus edge. Corpus edge
// ids are 0..Vocab.NumUniqueEdges()-1, in sorted key order.
func (s *Scorer) IsCorpusEdge(e int32) bool { return int(e) < len(s.ix.edgeKeys) }

// EdgesOf appends to dst the edge ids of an atom-id sequence: dag.EdgesOf's
// rule on ids. For every variable a line reads, an edge comes from the
// nearest earlier line that writes it, once per writer line.
func (s *Scorer) EdgesOf(seq []int32, dst []int32) []int32 {
	s.gen++
	if s.gen == 0 { // wrapped: stale generations could collide
		clear(s.lastGen)
		s.gen = 1
	}
	for i, l := range seq {
		a := &s.atoms[l]
		s.writers = s.writers[:0]
	reads:
		for _, r := range a.reads {
			if s.lastGen[r] != s.gen {
				continue
			}
			w := s.lastPos[r]
			for _, seen := range s.writers {
				if seen == w {
					continue reads
				}
			}
			s.writers = append(s.writers, w)
			dst = append(dst, s.edge(seq[w], l))
		}
		for _, w := range a.writes {
			s.lastPos[w], s.lastGen[w] = int32(i), s.gen
		}
	}
	return dst
}

// edge returns the id of the edge between two atoms.
func (s *Scorer) edge(from, to int32) int32 {
	pk := uint64(uint32(from))<<32 | uint64(uint32(to))
	if id, ok := s.pairs[pk]; ok {
		return id
	}
	key := dag.Edge{From: s.atoms[from].key, To: s.atoms[to].key}.Key()
	id, ok := s.ix.edgeIDs[key]
	if !ok {
		// Keyed by string, not pair: two pairs can render to one key.
		if id, ok = s.unseenIDs[key]; !ok {
			id = int32(len(s.ix.edgeKeys) + len(s.unseen))
			s.unseenIDs[key] = id
			s.unseen = append(s.unseen, unseenEdge{key: key, rank: int32(sort.SearchStrings(s.ix.edgeKeys, key))})
			s.counts = append(s.counts, 0)
		}
	}
	s.pairs[pk] = id
	return id
}

// RE is the smoothed relative entropy of an atom-id sequence.
func (s *Scorer) RE(seq []int32) float64 {
	s.edges = s.EdgesOf(seq, s.edges[:0])
	return s.reEdges(s.edges)
}

// RELines interns a line-atom sequence and returns its RE.
func (s *Scorer) RELines(lines []dag.LineInfo) float64 {
	s.seq = s.seq[:0]
	for _, li := range lines {
		s.seq = append(s.seq, s.Intern(li))
	}
	return s.RE(s.seq)
}

// reEdges is the smoothed RE of an edge-id multiset P against the corpus
// distribution Q, with additive ε-smoothing over the union sample space
// (corpus edges plus the script's). Only the space's size enters the
// smoothing, so it is counted, never built. The terms are summed in
// sorted-key order, so the result does not depend on the order ids were
// assigned in: a corpus id's position is its key's, and an unseen edge
// sits after the rank corpus keys below it, its ties broken by key.
func (s *Scorer) reEdges(edges []int32) float64 {
	if len(edges) == 0 {
		return s.ix.emptyRE
	}
	spaceN := len(s.ix.edgeKeys)
	s.distinct = s.distinct[:0]
	for _, e := range edges {
		if s.counts[e] == 0 {
			s.distinct = append(s.distinct, e)
			if !s.IsCorpusEdge(e) {
				spaceN++
			}
		}
		s.counts[e]++
	}
	// Insertion sort: a script has few distinct edges.
	for i := 1; i < len(s.distinct); i++ {
		e, j := s.distinct[i], i
		for ; j > 0 && s.before(e, s.distinct[j-1]); j-- {
			s.distinct[j] = s.distinct[j-1]
		}
		s.distinct[j] = e
	}
	qTotal := float64(s.v.TotalEdges) + Epsilon*float64(spaceN)
	pTotal := float64(len(edges))
	re := 0.0
	for _, e := range s.distinct {
		q := Epsilon // an unseen edge's count is 0
		if s.IsCorpusEdge(e) {
			q = s.ix.q[e]
		}
		px := float64(s.counts[e]) / pTotal
		qx := q / qTotal
		re += px * math.Log(px/qx)
		s.counts[e] = 0
	}
	return re
}

// before reports whether edge a's key sorts before edge b's. Corpus ids
// are in key order; an unseen edge of rank r sorts between corpus ids r-1
// and r, so only two unseen edges of one rank compare their keys.
func (s *Scorer) before(a, b int32) bool {
	ra, rb := s.order(a), s.order(b)
	if ra != rb {
		return ra < rb
	}
	n := int32(len(s.ix.edgeKeys))
	return s.unseen[a-n].key < s.unseen[b-n].key
}

// order places an edge on the corpus id line: corpus id c at 2c+1, an
// unseen edge of rank r at 2r.
func (s *Scorer) order(e int32) int64 {
	n := int32(len(s.ix.edgeKeys))
	if e < n {
		return 2*int64(e) + 1
	}
	return 2 * int64(s.unseen[e-n].rank)
}
