package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"lucidscript/internal/dag"
	"lucidscript/internal/faults"
	"lucidscript/internal/frame"
	"lucidscript/internal/intent"
	"lucidscript/internal/script"
)

// addedStatements returns the statements the baseline standardization added
// to the user script — the exact texts a fault rule must key on to
// quarantine those candidates.
func addedStatements(input, output *script.Script) []string {
	in := map[string]bool{}
	for _, st := range input.Stmts {
		in[st.Source()] = true
	}
	var added []string
	for _, st := range output.Stmts {
		if !in[st.Source()] {
			added = append(added, st.Source())
		}
	}
	return added
}

// TestQuarantinedCandidateNeverAbortsSearch is the tentpole's acceptance
// check: arm a Prob-1 fault on every statement the fault-free search would
// add, for each fault kind, and assert the search still completes, reports
// the quarantines in Health, and produces exactly the candidate-absent
// output. KindError is the candidate-absent reference: an injected plain
// error is an ordinary prune (no quarantine), so the panic- and
// exhaust-injected runs must match its output byte for byte while tallying
// their quarantines.
func TestQuarantinedCandidateNeverAbortsSearch(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SeqLength = 8
	cfg.Constraint.Tau = 0.5 // lenient: the baseline accepts corpus-common steps
	base := newStandardizer(t, cfg)
	input := script.MustParse(userScript)

	baseline, err := base.Standardize(input)
	if err != nil {
		t.Fatal(err)
	}
	if baseline.Health.Degraded() {
		t.Fatalf("fault-free run reports degraded health: %+v", baseline.Health)
	}
	added := addedStatements(input, baseline.Script)
	if len(added) == 0 {
		t.Fatalf("baseline added no statements; nothing to quarantine:\n%s", baseline.Script.Source())
	}

	run := func(kind faults.Kind) *Result {
		t.Helper()
		var rules []faults.Rule
		for _, stmt := range added {
			rules = append(rules,
				faults.Rule{Site: faults.SiteCacheStep, Key: stmt, Kind: kind, Prob: 1},
				faults.Rule{Site: faults.SiteInterpExec, Key: stmt, Kind: kind, Prob: 1})
		}
		fcfg := cfg
		fcfg.Faults = faults.New(21, rules...)
		res, err := FromCorpus(base.Corpus, fcfg).Standardize(input)
		if err != nil {
			t.Fatalf("kind %v: search aborted: %v", kind, err)
		}
		for _, stmt := range added {
			if strings.Contains(res.Script.Source(), stmt) {
				t.Fatalf("kind %v: quarantined statement %q survived into the output:\n%s",
					kind, stmt, res.Script.Source())
			}
		}
		return res
	}

	panicked := run(faults.KindPanic)
	exhausted := run(faults.KindExhaust)
	errored := run(faults.KindError)

	// All three prune the same candidates, so the outputs must be
	// byte-identical: quarantining is prune-equivalent for the search result.
	if p, e := panicked.Script.Source(), errored.Script.Source(); p != e {
		t.Errorf("panic-quarantined output diverges from candidate-absent output:\n%s\nvs\n%s", p, e)
	}
	if x, e := exhausted.Script.Source(), errored.Script.Source(); x != e {
		t.Errorf("exhaust-quarantined output diverges from candidate-absent output:\n%s\nvs\n%s", x, e)
	}
	if panicked.REAfter != errored.REAfter || exhausted.REAfter != errored.REAfter {
		t.Errorf("quarantine changed scores: panic=%v exhaust=%v error=%v",
			panicked.REAfter, exhausted.REAfter, errored.REAfter)
	}

	// Only the quarantine kinds tally in Health; an injected plain error is
	// an ordinary prune.
	if panicked.Health.Check.Panicked == 0 {
		t.Errorf("panic-injected run tallied no panics: %+v", panicked.Health)
	}
	if panicked.Health.Check.Exhausted != 0 {
		t.Errorf("panic-injected run tallied exhaustions: %+v", panicked.Health)
	}
	if exhausted.Health.Check.Exhausted == 0 {
		t.Errorf("exhaust-injected run tallied no exhaustions: %+v", exhausted.Health)
	}
	if exhausted.Health.Check.Panicked != 0 {
		t.Errorf("exhaust-injected run tallied panics: %+v", exhausted.Health)
	}
	if errored.Health.Total() != 0 {
		t.Errorf("error-injected run tallied quarantines: %+v", errored.Health)
	}
	for _, res := range []*Result{panicked, exhausted} {
		if got, want := res.Health.Check.Quarantined, res.Health.Check.Panicked+res.Health.Check.Exhausted; got != want {
			t.Errorf("Quarantined=%d != Panicked+Exhausted=%d", got, want)
		}
	}
}

// TestCurationSkipsFailingScripts covers graceful curation degradation: a
// corpus script whose lemmatization fails (error or panic) is dropped with
// a diagnostic, its weight dropped alongside it, and the surviving corpus
// is exactly what curating without the script would have produced.
func TestCurationSkipsFailingScripts(t *testing.T) {
	corpus := medicalCorpus(t)
	sources := map[string]*frame.Frame{"diabetes.csv": diabetesFrame(t, 120)}
	weights := []int{1, 2, 3, 4, 5, 6}
	const skip = 2

	// The reference: the same corpus with script 2 (and its weight) removed.
	manualCorpus := append(append([]*script.Script{}, corpus[:skip]...), corpus[skip+1:]...)
	manualWeights := append(append([]int{}, weights[:skip]...), weights[skip+1:]...)
	manual := CurateWeighted(manualCorpus, manualWeights, sources)

	g := dag.Build(script.MustParse(userScript))
	for _, kind := range []faults.Kind{faults.KindError, faults.KindPanic} {
		inj := faults.New(5, faults.Rule{Site: faults.SiteCurateScript, Key: "2", Kind: kind, Prob: 1})
		cc := CurateWeightedFaults(corpus, weights, sources, inj)

		if len(cc.Diagnostics) != 1 {
			t.Fatalf("kind %v: %d diagnostics, want 1: %+v", kind, len(cc.Diagnostics), cc.Diagnostics)
		}
		d := cc.Diagnostics[0]
		if d.Index != skip {
			t.Errorf("kind %v: skipped index %d, want %d", kind, d.Index, skip)
		}
		if !errors.Is(d.Err, ErrCurateSkipped) {
			t.Errorf("kind %v: diagnostic does not wrap ErrCurateSkipped: %v", kind, d.Err)
		}
		if !errors.Is(d.Err, faults.ErrInjected) {
			t.Errorf("kind %v: diagnostic does not wrap faults.ErrInjected: %v", kind, d.Err)
		}
		if got, want := cc.Vocab.NumScripts, manual.Vocab.NumScripts; got != want {
			t.Errorf("kind %v: surviving corpus has %d scripts, want %d", kind, got, want)
		}
		// Weight realignment: the corpus distribution (and hence RE) must be
		// exactly the distribution of the manually filtered corpus.
		if got, want := cc.Vocab.RELines(g.Lines), manual.Vocab.RELines(g.Lines); got != want {
			t.Errorf("kind %v: RE over skip-curated corpus %v != manually filtered corpus %v", kind, got, want)
		}
	}
}

// TestCurationSkipSurfacesInHealth runs a full standardization over a
// corpus curated with one injected skip and asserts the Result reports it.
func TestCurationSkipSurfacesInHealth(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SeqLength = 4
	cfg.Faults = faults.New(5, faults.Rule{Site: faults.SiteCurateScript, Key: "1", Kind: faults.KindPanic, Prob: 1})
	st := newStandardizer(t, cfg)
	if len(st.Corpus.Diagnostics) != 1 {
		t.Fatalf("%d diagnostics, want 1", len(st.Corpus.Diagnostics))
	}
	res, err := st.Standardize(script.MustParse(userScript))
	if err != nil {
		t.Fatal(err)
	}
	if res.Health.CurateSkipped != 1 {
		t.Errorf("Health.CurateSkipped = %d, want 1", res.Health.CurateSkipped)
	}
	if !res.Health.Degraded() {
		t.Error("Health.Degraded() = false with a curation skip")
	}
}

// TestVerifyExhaustionFallsBackToSampledTuples drives verifyWith directly
// with a candidate whose full-data verification run exhausts its budget
// (injected at the cache site, so the uncached sampled-tuple re-run is
// unaffected) and asserts the degraded path produces a verdict: the
// candidate is accepted, the Result is flagged, and the injected failure
// never poisons the shared trie.
func TestVerifyExhaustionFallsBackToSampledTuples(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Constraint = intent.Constraint{Measure: intent.MeasureJaccard, Tau: 0.1}
	st := newStandardizer(t, cfg)

	gOrig := dag.Build(script.MustParse(userScript))
	gCand := dag.Build(script.MustParse(`import pandas as pd
df = pd.read_csv("diabetes.csv")
df = df.fillna(df.median())
df = df[df["Age"].between(18, 25)]
df = df[df["SkinThickness"] < 80]
df = pd.get_dummies(df)
`))
	// Key the fault on the exact texts the candidate adds over the original,
	// as the interpreter will see them.
	var rules []faults.Rule
	for _, stmt := range addedStatements(dag.ToScript(gOrig.Lines), dag.ToScript(gCand.Lines)) {
		rules = append(rules, faults.Rule{Site: faults.SiteCacheStep, Key: stmt, Kind: faults.KindExhaust, Prob: 1})
	}
	if len(rules) == 0 {
		t.Fatal("candidate adds no statements over the original")
	}

	for _, tc := range []struct {
		name string
		kind faults.Kind
	}{{"exhaust", faults.KindExhaust}, {"panic", faults.KindPanic}} {
		t.Run(tc.name, func(t *testing.T) {
			armed := make([]faults.Rule, len(rules))
			for i, r := range rules {
				r.Kind = tc.kind
				armed[i] = r
			}
			st.Config.Faults = faults.New(9, armed...)
			cache := st.newSession(1)
			sess := cache.NewView()

			ctx := context.Background()
			origRun, err := st.runLines(ctx, sess, gOrig.Lines)
			if err != nil {
				t.Fatalf("original script failed: %v", err)
			}
			sc := st.Corpus.Vocab.NewScorer()
			orig := newCandidate(gOrig.Lines, sc)
			cand := newCandidate(gCand.Lines, sc)
			cand.re = orig.re - 1 // sorts ahead of orig

			res := &Result{}
			best, checked := st.verifyWith(ctx, newObsState(ctx, st.Config), sess,
				[]*candidate{cand}, orig, st.Config.Constraint, newVerifyCache(origRun.Main), res)
			if checked != 1 {
				t.Fatalf("checked %d candidates, want 1", checked)
			}

			switch tc.kind {
			case faults.KindExhaust:
				// Budget trip: the sampled-tuple fallback produces a verdict
				// and the lenient Jaccard constraint accepts the candidate.
				if best != cand {
					t.Errorf("degraded verification rejected the candidate (best = orig)")
				}
				if !res.Health.VerifyDegraded {
					t.Error("Health.VerifyDegraded not flagged")
				}
				if res.Health.Verify.Exhausted != 1 || res.Health.Verify.Panicked != 0 {
					t.Errorf("Verify health = %+v, want 1 exhaustion", res.Health.Verify)
				}
			case faults.KindPanic:
				// A contained panic earns no second chance: fall back to the
				// original script, no degraded verification.
				if best != orig {
					t.Errorf("panicking candidate won verification")
				}
				if res.Health.VerifyDegraded {
					t.Error("Health.VerifyDegraded flagged for a panic quarantine")
				}
				if res.Health.Verify.Panicked != 1 || res.Health.Verify.Exhausted != 0 {
					t.Errorf("Verify health = %+v, want 1 panic", res.Health.Verify)
				}
			}
			if err := cache.CheckInvariants(); err != nil {
				t.Errorf("injected %s fault poisoned the trie: %v", tc.name, err)
			}
		})
	}
}
