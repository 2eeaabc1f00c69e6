// Package entropy implements the paper's standardization measure: the
// relative entropy (KL divergence) between a script's data-preparation-step
// distribution P(x) and the corpus distribution Q(x), both defined over the
// data-flow edge vocabulary of the DAG representation (Definition 4.1).
//
// The paper's RE is infinite when the script contains an edge with Q(x)=0;
// we apply additive ε-smoothing over the union sample space so RE stays
// finite while preserving the paper's orderings (see DESIGN.md).
package entropy

import (
	"sync"

	"lucidscript/internal/dag"
)

// Epsilon is the additive smoothing pseudo-count applied to Q(x).
const Epsilon = 0.5

// Vocab holds the search-space statistics curated offline from a corpus
// (Section 5.1): atom and edge vocabularies with counts, plus the relative
// position of each line atom inside its source scripts (used to place add
// transformations).
type Vocab struct {
	// EdgeCounts maps edge keys to occurrence counts across the corpus.
	EdgeCounts map[string]int
	// TotalEdges is the sum over EdgeCounts.
	TotalEdges int
	// LineCounts maps line-atom keys to occurrence counts.
	LineCounts map[string]int
	// UnigramCounts maps 1-gram atom keys to occurrence counts.
	UnigramCounts map[string]int
	// Lines maps a line-atom key to a representative LineInfo, usable as an
	// insertable statement (all corpus scripts are lemmatized, so the atom is
	// directly transplantable).
	Lines map[string]dag.LineInfo
	// MeanPos maps a line-atom key to its mean relative position in [0,1]
	// across the corpus scripts that contain it.
	MeanPos map[string]float64
	// NumScripts is the corpus size.
	NumScripts int

	// ixOnce builds ix, the id form of the fields above, on first use. A
	// Vocab is therefore not modified after it is first scored against.
	ixOnce sync.Once
	ix     *index
}

// BuildVocab curates the search space from corpus DAGs with every script
// weighted equally.
func BuildVocab(graphs []*dag.Graph) *Vocab {
	return BuildVocabWeighted(graphs, nil)
}

// ScriptStats is the per-script contribution to the corpus distributions:
// the script's atom-key sequences plus its corpus weight. It is everything
// the vocabulary fold needs, decoupled from the DAG it came from, so a
// persistent registry can cache one ScriptStats per corpus member and
// re-fold after membership changes without re-lemmatizing anything.
type ScriptStats struct {
	// Weight is the script's corpus weight; non-positive folds as 1.
	Weight int
	// LineKeys are the script's line-atom keys in statement order (the
	// order matters: relative atom positions feed MeanPos).
	LineKeys []string
	// EdgeKeys are the script's data-flow edge keys (a multiset).
	EdgeKeys []string
	// UnigramKeys are the script's 1-gram atom keys.
	UnigramKeys []string
}

// StatsOf extracts one script's fold contribution from its DAG.
func StatsOf(g *dag.Graph, weight int) ScriptStats {
	st := ScriptStats{
		Weight:      weight,
		LineKeys:    make([]string, len(g.Lines)),
		EdgeKeys:    make([]string, len(g.Edges)),
		UnigramKeys: g.Unigrams,
	}
	for i, li := range g.Lines {
		st.LineKeys[i] = li.Key
	}
	for i, e := range g.Edges {
		st.EdgeKeys[i] = e.Key()
	}
	return st
}

// BuildVocabWeighted curates the search space with per-script integer
// weights (Section 8 suggests weighting scripts by expert authorship or
// Kaggle vote counts). A weight w makes the script count as w copies in
// every distribution; nil weights or non-positive entries default to 1.
func BuildVocabWeighted(graphs []*dag.Graph, weights []int) *Vocab {
	stats := make([]ScriptStats, len(graphs))
	atoms := map[string]dag.LineInfo{}
	for gi, g := range graphs {
		w := 1
		if gi < len(weights) && weights[gi] > 0 {
			w = weights[gi]
		}
		stats[gi] = StatsOf(g, w)
		for _, li := range g.Lines {
			if _, ok := atoms[li.Key]; !ok {
				atoms[li.Key] = li
			}
		}
	}
	return BuildVocabFromStats(stats, func(key string) dag.LineInfo { return atoms[key] })
}

// BuildVocabFromStats folds per-script stats into a fresh Vocab. It is the
// single fold both curation paths share: BuildVocabWeighted delegates here,
// and the corpus registry re-folds its cached stats here after incremental
// membership changes — so the incremental result is byte-identical to a
// from-scratch curation of the same scripts in the same order (the
// floating-point MeanPos accumulation runs the exact same operation
// sequence). atom supplies the representative LineInfo of a line-atom key,
// called once per key the fold meets; an atom key is its canonical
// lemmatized source, so the representative is the same whichever script
// contributed it.
func BuildVocabFromStats(stats []ScriptStats, atom func(key string) dag.LineInfo) *Vocab {
	v := &Vocab{
		EdgeCounts:    map[string]int{},
		LineCounts:    map[string]int{},
		UnigramCounts: map[string]int{},
		Lines:         map[string]dag.LineInfo{},
		MeanPos:       map[string]float64{},
		NumScripts:    0,
	}
	posSum := map[string]float64{}
	posN := map[string]int{}
	for _, st := range stats {
		w := st.Weight
		if w <= 0 {
			w = 1
		}
		v.NumScripts += w
		for _, ek := range st.EdgeKeys {
			v.EdgeCounts[ek] += w
			v.TotalEdges += w
		}
		n := len(st.LineKeys)
		for i, lk := range st.LineKeys {
			v.LineCounts[lk] += w
			if _, ok := v.Lines[lk]; !ok {
				v.Lines[lk] = atom(lk)
			}
			if n > 1 {
				posSum[lk] += float64(w) * float64(i) / float64(n-1)
			}
			posN[lk] += w
		}
		for _, u := range st.UnigramKeys {
			v.UnigramCounts[u] += w
		}
	}
	for k, n := range posN {
		v.MeanPos[k] = posSum[k] / float64(n)
	}
	return v
}

// NumUniqueEdges returns |V_E'|, the edge vocabulary size.
func (v *Vocab) NumUniqueEdges() int { return len(v.EdgeCounts) }

// NumUniqueLines returns the number of distinct line (n-gram) atoms.
func (v *Vocab) NumUniqueLines() int { return len(v.LineCounts) }

// NumUniqueUnigrams returns the number of distinct 1-gram atoms.
func (v *Vocab) NumUniqueUnigrams() int { return len(v.UnigramCounts) }

// SortedLineKeys returns the line-atom keys ordered by descending corpus
// count, ties broken lexicographically, for deterministic enumeration. The
// slice is computed once per Vocab and shared: callers must not modify it.
func (v *Vocab) SortedLineKeys() []string { return v.index().lineKeys }

// RE computes the smoothed relative entropy of a script DAG w.r.t. the
// corpus (Definition 4.1).
func (v *Vocab) RE(g *dag.Graph) float64 { return v.RELines(g.Lines) }

// RELines computes the smoothed relative entropy of a line-atom sequence,
// deriving its edges first. A search scoring many sequences holds one
// Scorer instead.
func (v *Vocab) RELines(lines []dag.LineInfo) float64 { return v.NewScorer().RELines(lines) }

// Improvement returns the paper's "% improvement" of a modified script over
// the original: (RE(s_u) - RE(ŝ_u)) / RE(s_u) × 100.
func Improvement(reOrig, reNew float64) float64 {
	if reOrig == 0 {
		return 0
	}
	return (reOrig - reNew) / reOrig * 100
}
