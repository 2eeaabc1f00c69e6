package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"lucidscript/internal/corpusgen"
	"lucidscript/internal/faults"
	"lucidscript/internal/gen"
	"lucidscript/internal/intent"
	"lucidscript/internal/interp"
	"lucidscript/internal/obs"
	"lucidscript/internal/script"
)

// cancelOn cancels the job's context at the first event of one kind.
type cancelOn struct {
	kind   obs.EventKind
	cancel context.CancelFunc
}

func (c *cancelOn) Emit(e obs.Event) {
	if e.Kind == c.kind {
		c.cancel()
	}
}

// rehash is the reference digest: run the script on the full sources and
// digest its output table.
func rehash(t *testing.T, st *Standardizer, sc *script.Script) string {
	t.Helper()
	res, err := interp.Run(sc, st.Corpus.Sources, st.interpOptions())
	if err != nil || res.Main == nil {
		t.Fatalf("re-executing the output script: %v", err)
	}
	return res.Main.Digest()
}

type hashJob struct {
	name string
	st   *Standardizer
	su   *script.Script
}

// hashJobs are gen seeds 1-6 (three jobs each, 120-row sources) plus the
// golden Titanic job, under the given MaxRows (0: no sampling).
func hashJobs(t *testing.T, maxRows int) []hashJob {
	t.Helper()
	cfg := DefaultConfig()
	cfg.SeqLength = 4
	cfg.MaxRows = maxRows
	cfg.Constraint.Tau = 0.5
	var jobs []hashJob
	for seed := int64(1); seed <= 6; seed++ {
		g := gen.New(seed)
		st := New(g.Scripts(10), g.Sources(120), cfg)
		for i, su := range g.Scripts(3) {
			jobs = append(jobs, hashJob{fmt.Sprintf("gen seed %d job %d", seed, i), st, su})
		}
	}
	comp, err := corpusgen.Get("Titanic")
	if err != nil {
		t.Fatal(err)
	}
	titanic, err := comp.Generate(corpusgen.GenOptions{Seed: 7, RowScale: 0.1, NumScripts: 12})
	if err != nil {
		t.Fatal(err)
	}
	tcfg := DefaultConfig()
	tcfg.SeqLength, tcfg.MaxRows, tcfg.Seed = 5, maxRows, 7
	tcfg.Constraint.Tau = 0.8
	return append(jobs, hashJob{"titanic", New(titanic.ScriptsOnly(), titanic.Sources, tcfg), titanic.Sample(1, 21)[0]})
}

// TestCarriedOutputHash checks that the digest a search carries out of
// verification equals re-executing the output script on the full sources,
// whether a candidate or the input won, and that a finished single job
// that did not verify on the full sources (sampled or degraded) still
// reports that digest, from one uncounted run of its winner, while a
// canceled one reports none. Each unsampled job
// runs as a two-cell grid whose second τ_J no output can meet, so the
// input wins it.
func TestCarriedOutputHash(t *testing.T) {
	candidateWins, inputWins := 0, 0
	for _, j := range hashJobs(t, 0) {
		loose := j.st.Config.Constraint
		strict := loose
		strict.Tau = 1.01
		grid, err := j.st.StandardizeGrid(j.su, []int{j.st.Config.SeqLength}, []intent.Constraint{loose, strict})
		if err != nil {
			t.Fatalf("%s: %v", j.name, err)
		}
		for _, res := range grid[0] {
			if res.OutputHash == "" {
				t.Fatalf("%s: no carried output hash on unsampled sources", j.name)
			}
			if want := rehash(t, j.st, res.Script); res.OutputHash != want {
				t.Fatalf("%s: carried hash %s, re-executed %s", j.name, res.OutputHash, want)
			}
			if len(res.Applied) > 0 {
				candidateWins++
			} else {
				inputWins++
			}
		}
	}
	if candidateWins == 0 || inputWins == 0 {
		t.Fatalf("candidate won %d cells, input won %d; both cases must be checked", candidateWins, inputWins)
	}

	// jobHash checks a single job's digest against a re-execution, and its
	// ExecChecks against the same search as a grid cell, which makes no
	// full-data run.
	jobHash := func(t *testing.T, name string, st *Standardizer, su *script.Script, res *Result) {
		t.Helper()
		if res.OutputHashErr != nil {
			t.Fatalf("%s: %v", name, res.OutputHashErr)
		}
		if want := rehash(t, st, res.Script); res.OutputHash != want {
			t.Fatalf("%s: job hash %q, re-executed %s", name, res.OutputHash, want)
		}
		grid, err := st.StandardizeGrid(su, []int{st.Config.SeqLength}, []intent.Constraint{st.Config.Constraint})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cell := grid[0][0]; res.ExecChecks != cell.ExecChecks || cell.OutputHash != "" {
			t.Fatalf("%s: job ExecChecks %d, grid cell %d with hash %q", name, res.ExecChecks, cell.ExecChecks, cell.OutputHash)
		}
	}

	t.Run("sampled", func(t *testing.T) {
		for _, j := range hashJobs(t, 50) {
			res, err := j.st.Standardize(j.su)
			if err != nil {
				t.Fatalf("%s: %v", j.name, err)
			}
			jobHash(t, j.name, j.st, j.su, res)
		}
	})

	t.Run("canceled", func(t *testing.T) {
		// A job canceled after its first beam step, on full or on sampled
		// sources, returns its partial result without a digest: it makes
		// no full-data run. A sampled job canceled once its search is done
		// trips on the context in that run and ends canceled, also
		// without a digest.
		for _, tc := range []struct {
			maxRows int
			on      obs.EventKind
		}{{0, obs.EvStepDone}, {50, obs.EvStepDone}, {50, obs.EvSearchDone}} {
			for _, j := range hashJobs(t, tc.maxRows) {
				cfg := j.st.Config
				ctx, cancel := context.WithCancel(context.Background())
				cfg.Tracer = &cancelOn{kind: tc.on, cancel: cancel}
				st := FromCorpus(j.st.Corpus, cfg)
				res, err := st.StandardizeContext(ctx, j.su)
				cancel()
				if !errors.Is(err, ErrCanceled) || res == nil {
					t.Fatalf("MaxRows %d, canceled on %s, %s: result %v, err %v; want a partial result and ErrCanceled",
						tc.maxRows, tc.on, j.name, res, err)
				}
				if res.OutputHash != "" || res.OutputHashErr != nil {
					t.Fatalf("MaxRows %d, canceled on %s, %s: hash %q, hash error %v; want neither",
						tc.maxRows, tc.on, j.name, res.OutputHash, res.OutputHashErr)
				}
			}
		}
	})

	t.Run("degraded", func(t *testing.T) {
		// Without early checks the first run of the fault-free winner's
		// added statements is its verification run; a budget trip there
		// sends it to sampled-tuple verification.
		cfg := DefaultConfig()
		cfg.SeqLength = 8
		cfg.EarlyCheck = false
		cfg.Constraint.Tau = 0.5
		base := newStandardizer(t, cfg)
		input := script.MustParse(userScript)
		baseline, err := base.Standardize(input)
		if err != nil {
			t.Fatal(err)
		}
		var rules []faults.Rule
		for _, stmt := range addedStatements(input, baseline.Script) {
			rules = append(rules, faults.Rule{Site: faults.SiteCacheStep, Key: stmt, Kind: faults.KindExhaust, Prob: 1})
		}
		if len(rules) == 0 {
			t.Fatalf("baseline added no statements:\n%s", baseline.Script.Source())
		}
		cfg.Faults = faults.New(3, rules...)
		st := FromCorpus(base.Corpus, cfg)
		res, err := st.Standardize(input)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Health.VerifyDegraded {
			t.Fatalf("verification did not degrade: %+v", res.Health)
		}
		jobHash(t, "degraded", st, input, res)
	})

	t.Run("batch", func(t *testing.T) {
		// One batch per corpus, its jobs sharing one session cache across
		// three workers, on full and on sampled sources.
		for _, maxRows := range []int{0, 50} {
			byStd := map[*Standardizer][]*script.Script{}
			var order []*Standardizer
			for _, j := range hashJobs(t, maxRows) {
				if byStd[j.st] == nil {
					order = append(order, j.st)
				}
				byStd[j.st] = append(byStd[j.st], j.su, j.su)
			}
			for _, st := range order {
				results, errs := st.StandardizeBatch(context.Background(), 3, 0, byStd[st])
				for i, res := range results {
					if errs[i] != nil {
						t.Fatalf("MaxRows %d job %d: %v", maxRows, i, errs[i])
					}
					if want := rehash(t, st, res.Script); res.OutputHash != want {
						t.Fatalf("MaxRows %d batch job %d: hash %q, re-executed %s", maxRows, i, res.OutputHash, want)
					}
				}
			}
		}
	})
}
