package core

import (
	"context"
	"fmt"
	"strings"

	"lucidscript/internal/intent"
	"lucidscript/internal/script"
)

// Explanation justifies one applied transformation to the user, as outlined
// in the paper's future-work discussion (Section 8): how common the step is
// in the corpus, how it moved the standardness objective, and a rationale
// derived from the step's role.
type Explanation struct {
	Transformation Transformation
	// CorpusFrequency is the fraction of corpus scripts containing the atom.
	CorpusFrequency float64
	// REDelta is the relative-entropy change caused by this transformation
	// (negative = more standard).
	REDelta float64
	// Rationale is a one-sentence human-readable justification.
	Rationale string
}

// String renders the explanation.
func (e Explanation) String() string {
	return fmt.Sprintf("%s — %s (corpus frequency %.0f%%, RE %+.3f)",
		e.Transformation, e.Rationale, e.CorpusFrequency*100, e.REDelta)
}

// ExplainResult explains each applied transformation of a result: the
// path the search took is replayed forward from the lemmatized input, and
// each step's RE delta and corpus frequency are reported.
func (st *Standardizer) ExplainResult(res *Result) []Explanation {
	if len(res.Applied) == 0 {
		return nil
	}
	lines := res.Input
	prevRE := st.Corpus.Vocab.RELines(lines)
	out := make([]Explanation, 0, len(res.Applied))
	for _, tr := range res.Applied {
		lines = applyLines(lines, tr)
		re := st.Corpus.Vocab.RELines(lines)
		out = append(out, Explanation{
			Transformation:  tr,
			CorpusFrequency: st.atomFrequency(tr.Atom.Key),
			REDelta:         re - prevRE,
			Rationale:       st.rationale(tr),
		})
		prevRE = re
	}
	return out
}

func (st *Standardizer) atomFrequency(key string) float64 {
	if st.Corpus.Vocab.NumScripts == 0 {
		return 0
	}
	n := st.Corpus.Vocab.LineCounts[key]
	if n > st.Corpus.Vocab.NumScripts {
		n = st.Corpus.Vocab.NumScripts
	}
	return float64(n) / float64(st.Corpus.Vocab.NumScripts)
}

// rationale derives a one-sentence justification from the atom's shape.
func (st *Standardizer) rationale(tr Transformation) string {
	key := tr.Atom.Key
	freq := st.atomFrequency(key)
	if tr.Type == TransformDelete {
		if st.Corpus.Vocab.LineCounts[key] == 0 {
			return "removes a step that no corpus script uses (out-of-the-ordinary step)"
		}
		return fmt.Sprintf("removes a step used by only %.0f%% of corpus scripts", freq*100)
	}
	switch {
	case strings.HasPrefix(key, "y =") || strings.HasPrefix(key, "X ="):
		return fmt.Sprintf("adds the target split used by %.0f%% of corpus scripts", freq*100)
	case strings.Contains(key, "fillna"):
		return fmt.Sprintf("adds the imputation used by %.0f%% of corpus scripts", freq*100)
	case strings.Contains(key, "get_dummies"):
		return fmt.Sprintf("adds the encoding step used by %.0f%% of corpus scripts", freq*100)
	case strings.Contains(key, "drop"):
		return fmt.Sprintf("adds the column pruning used by %.0f%% of corpus scripts", freq*100)
	case strings.Contains(key, "[") && strings.ContainsAny(key, "<>"):
		return fmt.Sprintf("adds the outlier/row filter used by %.0f%% of corpus scripts", freq*100)
	case strings.HasPrefix(key, "import"):
		return "adds a module import required by common corpus steps"
	default:
		return fmt.Sprintf("adds a step used by %.0f%% of corpus scripts", freq*100)
	}
}

// ParetoPoint is one (threshold, outcome) pair of the intent/standardness
// trade-off curve (Section 8's proposed extension).
type ParetoPoint struct {
	// Tau is the intent threshold of this point.
	Tau float64
	// ImprovementPct is the standardness improvement achieved at Tau.
	ImprovementPct float64
	// IntentValue is the measured intent value of the accepted output.
	IntentValue float64
}

// ParetoFrontier explores the user-intent threshold space with a single
// beam search, returning the improvement achievable at each threshold.
// Thresholds are interpreted by the configured measure (τ_J values in
// [0,1] or τ_M percentages).
func (st *Standardizer) ParetoFrontier(su *script.Script, taus []float64) ([]ParetoPoint, error) {
	return st.ParetoFrontierContext(context.Background(), su, taus)
}

// ParetoFrontierContext is ParetoFrontier with cancellation (the shared
// beam search and every per-threshold verification poll the context).
// Unlike StandardizeGridContext, a canceled frontier returns no points: a
// partially explored trade-off curve would be misleading.
func (st *Standardizer) ParetoFrontierContext(ctx context.Context, su *script.Script, taus []float64) ([]ParetoPoint, error) {
	constraints := make([]intent.Constraint, len(taus))
	for i, tau := range taus {
		c := st.Config.Constraint
		c.Tau = tau
		constraints[i] = c
	}
	grid, err := st.StandardizeGridContext(ctx, su, []int{st.Config.SeqLength}, constraints)
	if err != nil {
		return nil, err
	}
	points := make([]ParetoPoint, len(taus))
	for i, tau := range taus {
		points[i] = ParetoPoint{
			Tau:            tau,
			ImprovementPct: grid[0][i].ImprovementPct,
			IntentValue:    grid[0][i].IntentValue,
		}
	}
	return points, nil
}
