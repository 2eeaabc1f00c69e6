package core

import (
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"slices"
	"strings"
	"testing"

	"lucidscript/internal/gen"
	"lucidscript/internal/script"
)

// resultFingerprint renders everything a Result reports about the search's
// outcome, floats by their bits, so two Results compare bit for bit.
func resultFingerprint(res *Result) string {
	var b strings.Builder
	bits := func(f float64) string { return fmt.Sprintf("%#x", math.Float64bits(f)) }
	fmt.Fprintf(&b, "re %s -> %s, improvement %s, intent %s, checks %d, hash %s\n",
		bits(res.REBefore), bits(res.REAfter), bits(res.ImprovementPct), bits(res.IntentValue), res.ExecChecks, res.OutputHash)
	for _, tr := range res.Applied {
		fmt.Fprintf(&b, "%s re %s\n", tr, bits(tr.RE))
	}
	b.WriteString(res.Script.Source())
	return b.String()
}

// invarianceCase is one gen seed's corpus and jobs as source text, so a
// variant can rewrite the text before parsing.
type invarianceCase struct {
	seed         int64
	corpus, jobs []string
}

func invarianceCases() []invarianceCase {
	var out []invarianceCase
	for seed := int64(1); seed <= 6; seed++ {
		c, g := invarianceCase{seed: seed}, gen.New(seed)
		for i := 0; i < 10; i++ {
			c.corpus = append(c.corpus, g.ScriptSource())
		}
		for i := 0; i < 3; i++ {
			c.jobs = append(c.jobs, g.ScriptSource())
		}
		out = append(out, c)
	}
	return out
}

// standardizeAll curates corpus and standardizes every job against it,
// returning each job's fingerprint. It fails the test when no job applied
// a transformation, which would make the comparison vacuous.
func standardizeAll(t *testing.T, c invarianceCase, corpus, jobs []string) []string {
	t.Helper()
	parse := func(srcs []string) []*script.Script {
		out := make([]*script.Script, len(srcs))
		for i, s := range srcs {
			out[i] = script.MustParse(s)
		}
		return out
	}
	// Every variant of a case reads the same 120-row data.
	st := New(parse(corpus), gen.New(c.seed+100).Sources(120), DefaultConfig())
	var out []string
	applied := 0
	for i, su := range parse(jobs) {
		res, err := st.Standardize(su)
		if err != nil {
			t.Fatalf("seed %d job %d: %v", c.seed, i, err)
		}
		applied += len(res.Applied)
		out = append(out, resultFingerprint(res))
	}
	if applied == 0 {
		t.Fatalf("seed %d: no job applied a transformation", c.seed)
	}
	return out
}

func requireSameResults(t *testing.T, seed int64, variant string, got, want []string) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("seed %d job %d, %s:\n%s\nwant\n%s", seed, i, variant, got[i], want[i])
		}
	}
}

// TestCorpusOrderInvariance checks that corpus order does not reach a
// Result: edge ids follow sorted keys, not the order the corpus met them,
// so reversing the corpus or shuffling it with a fixed seed gives
// bit-identical Results on gen seeds 1-6.
func TestCorpusOrderInvariance(t *testing.T) {
	for _, c := range invarianceCases() {
		want := standardizeAll(t, c, c.corpus, c.jobs)
		reversed := slices.Clone(c.corpus)
		slices.Reverse(reversed)
		requireSameResults(t, c.seed, "reversed corpus", standardizeAll(t, c, reversed, c.jobs), want)
		shuffled := slices.Clone(c.corpus)
		rand.New(rand.NewSource(c.seed)).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		requireSameResults(t, c.seed, "shuffled corpus", standardizeAll(t, c, shuffled, c.jobs), want)
	}
}

var (
	dfWord = regexp.MustCompile(`\bdf\b`)
	pdWord = regexp.MustCompile(`\bpd\b`)
)

// renameVars renames the frame variable df to data and the pandas alias pd
// to pds throughout the scripts.
func renameVars(srcs []string) []string {
	out := make([]string, len(srcs))
	for i, s := range srcs {
		out[i] = pdWord.ReplaceAllString(dfWord.ReplaceAllString(s, "data"), "pds")
	}
	return out
}

// TestRenameInvariance checks that variable names do not reach a Result:
// renaming df to data and pd to pds in the input and the corpus gives
// bit-identical Results on gen seeds 1-6.
func TestRenameInvariance(t *testing.T) {
	for _, c := range invarianceCases() {
		corpus, jobs := renameVars(c.corpus), renameVars(c.jobs)
		if !strings.Contains(jobs[0], "data = pds.read_csv(") {
			t.Fatalf("seed %d: rename missed the read:\n%s", c.seed, jobs[0])
		}
		requireSameResults(t, c.seed, "renamed", standardizeAll(t, c, corpus, jobs), standardizeAll(t, c, c.corpus, c.jobs))
	}
}
