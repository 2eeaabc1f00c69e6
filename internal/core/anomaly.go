package core

import (
	"fmt"
	"sort"
	"strings"

	"lucidscript/internal/dag"
	"lucidscript/internal/script"
)

// Anomaly flags one out-of-the-ordinary step in a script: an atom that is
// rare or absent in the corpus, with the standardness gain its removal
// would yield. Section 6.6 shows that such steps are where target leakage
// and similar mistakes live; this report surfaces them without modifying
// the script.
type Anomaly struct {
	// Line is the 1-based position in the lemmatized script.
	Line int
	// Source is the canonical step text.
	Source string
	// CorpusFrequency is the fraction of corpus scripts containing the atom.
	CorpusFrequency float64
	// REGain is the relative-entropy reduction from deleting just this step
	// (positive = the script becomes more standard without it).
	REGain float64
}

// String renders the anomaly for reports.
func (a Anomaly) String() string {
	return fmt.Sprintf("line %d: %s — used by %.0f%% of corpus scripts (RE gain if removed: %+.3f)",
		a.Line, a.Source, a.CorpusFrequency*100, a.REGain)
}

// DetectAnomalies scores every step of the script against the corpus and
// returns the steps whose corpus frequency is below maxFrequency (default
// 0.1 when ≤ 0), ordered by descending removal gain. Imports and read_csv
// lines are never flagged.
func (st *Standardizer) DetectAnomalies(su *script.Script, maxFrequency float64) []Anomaly {
	if maxFrequency <= 0 {
		maxFrequency = 0.1
	}
	g := dag.Build(su)
	sc := st.Corpus.Vocab.NewScorer()
	ids := sc.InternAll(g.Lines)
	base := sc.RE(ids)
	without := make([]int32, 0, len(ids))
	var out []Anomaly
	for i, li := range g.Lines {
		if protectedLine(li) {
			continue
		}
		freq := st.atomFrequency(li.Key)
		if freq >= maxFrequency {
			continue
		}
		without = applyIDs(without[:0], ids, Transformation{Type: TransformDelete, Pos: i}, -1)
		out = append(out, Anomaly{
			Line:            i + 1,
			Source:          li.Key,
			CorpusFrequency: freq,
			REGain:          base - sc.RE(without),
		})
	}
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].REGain != out[b].REGain {
			return out[a].REGain > out[b].REGain
		}
		return out[a].Line < out[b].Line
	})
	return out
}

// AnomalyReport renders the anomalies as a human-readable block, or a
// clean bill when none are found.
func (st *Standardizer) AnomalyReport(su *script.Script, maxFrequency float64) string {
	anomalies := st.DetectAnomalies(su, maxFrequency)
	if len(anomalies) == 0 {
		return "no out-of-the-ordinary steps found\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d out-of-the-ordinary step(s):\n", len(anomalies))
	for _, a := range anomalies {
		b.WriteString("  " + a.String() + "\n")
	}
	return b.String()
}
