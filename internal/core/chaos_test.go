package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"lucidscript/internal/faults"
	"lucidscript/internal/interp"
)

// TestChaosBatch32 is the batch chaos run: 32 jobs share one curated
// corpus and one execution-prefix trie while a seeded injector faults a
// subset of them — job-level panics and errors at the batch site, plus
// statement-level panics and budget exhaustions at the cache site keyed on
// two jobs' distinguishing filter statements. The contract under chaos:
//
//   - every fault is attributable: a faulted job either returns an error
//     whose chain reaches the injected sentinel, or completes with a
//     non-zero Health;
//   - every unaffected job's result is byte-identical to the same job in a
//     fault-free run over the same corpus;
//   - the shared trie's invariants hold afterwards (in particular, no
//     injected failure was memoized).
//
// Run it with -race: fault decisions are deterministic by construction, so
// the assertions hold under arbitrary goroutine interleaving.
func TestChaosBatch32(t *testing.T) {
	const nJobs = 32
	cfg := DefaultConfig()
	stClean := newStandardizer(t, cfg)
	jobs := batchJobs(t, nJobs)

	cleanRes, cleanErrs := stClean.StandardizeBatch(context.Background(), 8, 0, jobs)
	for i, err := range cleanErrs {
		if err != nil {
			t.Fatalf("fault-free job %d: %v", i, err)
		}
	}

	// Jobs 2 and 15 are faulted through their unique age-filter statement
	// (each batchJobs script differs only there), so the statement-level
	// faults hit exactly those jobs; every other statement key is shared by
	// all 32 jobs and must stay clean for the batch to have survivors.
	fcfg := cfg
	fcfg.Faults = faults.New(1,
		faults.Rule{Site: faults.SiteBatchJob, Key: "5", Kind: faults.KindPanic, Prob: 1},
		faults.Rule{Site: faults.SiteBatchJob, Key: "24", Kind: faults.KindError, Prob: 1},
		faults.Rule{Site: faults.SiteCacheStep, Key: fmt.Sprintf(ageFilterFmt, 25+2), Kind: faults.KindExhaust, Prob: 1},
		faults.Rule{Site: faults.SiteCacheStep, Key: fmt.Sprintf(ageFilterFmt, 25+15), Kind: faults.KindPanic, Prob: 1},
	)
	stFaulted := FromCorpus(stClean.Corpus, fcfg)
	shared := stFaulted.newSession(nJobs)
	res, errs := stFaulted.newQueue(8, 0, nJobs, shared).batch(context.Background(), jobs)

	wantFaulted := map[int]bool{2: true, 5: true, 15: true, 24: true}
	for i := range jobs {
		if errs[i] != nil {
			if !wantFaulted[i] {
				t.Errorf("unfaulted job %d failed: %v", i, errs[i])
			}
			if !errors.Is(errs[i], faults.ErrInjected) {
				t.Errorf("job %d error chain loses the injected sentinel: %v", i, errs[i])
			}
			continue
		}
		if res[i].Health.Total() > 0 {
			if !wantFaulted[i] {
				t.Errorf("unfaulted job %d reports quarantines: %+v", i, res[i].Health)
			}
			continue
		}
		if wantFaulted[i] {
			t.Errorf("faulted job %d reports neither an error nor quarantines", i)
			continue
		}
		// Unaffected: byte-identical to the fault-free run.
		if g, w := res[i].Script.Source(), cleanRes[i].Script.Source(); g != w {
			t.Errorf("job %d output diverges under chaos:\nchaos:\n%s\nclean:\n%s", i, g, w)
		}
		if res[i].REBefore != cleanRes[i].REBefore || res[i].REAfter != cleanRes[i].REAfter ||
			res[i].IntentValue != cleanRes[i].IntentValue {
			t.Errorf("job %d scores diverge under chaos: (%v,%v,%v) vs (%v,%v,%v)",
				i, res[i].REBefore, res[i].REAfter, res[i].IntentValue,
				cleanRes[i].REBefore, cleanRes[i].REAfter, cleanRes[i].IntentValue)
		}
		if len(res[i].Applied) != len(cleanRes[i].Applied) {
			t.Errorf("job %d applied %d transformations under chaos, clean %d",
				i, len(res[i].Applied), len(cleanRes[i].Applied))
		}
	}

	// Fault taxonomy per job: the batch-site panic is contained into
	// ErrJobPanicked; the statement-level faults surface as input-script
	// failures carrying the quarantine sentinel and statement position.
	if !errors.Is(errs[5], ErrJobPanicked) {
		t.Errorf("job 5 = %v, want ErrJobPanicked", errs[5])
	}
	if errs[24] == nil || errors.Is(errs[24], ErrJobPanicked) {
		t.Errorf("job 24 = %v, want a plain injected error", errs[24])
	}
	if !errors.Is(errs[2], ErrInputScriptFails) || !errors.Is(errs[2], interp.ErrResourceExhausted) {
		t.Errorf("job 2 = %v, want ErrInputScriptFails wrapping ErrResourceExhausted", errs[2])
	}
	if !errors.Is(errs[15], ErrInputScriptFails) || !errors.Is(errs[15], interp.ErrStatementPanicked) {
		t.Errorf("job 15 = %v, want ErrInputScriptFails wrapping ErrStatementPanicked", errs[15])
	}
	var stmtErr *interp.StmtError
	if !errors.As(errs[15], &stmtErr) {
		t.Errorf("job 15 error chain carries no *interp.StmtError: %v", errs[15])
	} else if stmtErr.Line != 4 {
		t.Errorf("job 15 failed at line %d, want 4 (the age filter)", stmtErr.Line)
	}

	if got := fcfg.Faults.Total(); got < int64(len(wantFaulted)) {
		t.Errorf("injector fired %d faults, want >= %d", got, len(wantFaulted))
	}
	if err := shared.CheckInvariants(); err != nil {
		t.Errorf("shared trie invariants violated after chaos batch: %v", err)
	}
}

// ageFilterFmt is the statement that distinguishes batchJobs job i
// (argument 25+i), as the interpreter sees it.
const ageFilterFmt = `df = df[df["Age"].between(18, %d)]`
