package bench

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"lucidscript/internal/baselines"
	"lucidscript/internal/core"
	"lucidscript/internal/corpusgen"
	"lucidscript/internal/dag"
	"lucidscript/internal/entropy"
	"lucidscript/internal/intent"
	"lucidscript/internal/interp"
	"lucidscript/internal/leakage"
	"lucidscript/internal/script"
)

// Fig3 reproduces the user study as a simulated rater panel: 34 raters
// score each method's output for standardness (noisy corpus popularity of
// its steps) and helpfulness (noisy intent preservation), in both the
// without- and with-user-intent cases, with a Welch t-test of LS against
// the strongest baseline.
func Fig3(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	cache := newGenCache(opts)
	gen, err := cache.get("Medical")
	if err != nil {
		return nil, err
	}
	vocab := corpusVocab(gen.ScriptsOnly())
	rng := rand.New(rand.NewSource(opts.Seed * 271))

	// With-user-intent input (the paper's running example), and the
	// cold-start input (load only).
	withIntent := script.MustParse(`import pandas as pd
df = pd.read_csv("diabetes.csv")
df = df.fillna(df.median())
df = df[df["Age"].between(18, 25)]
df = pd.get_dummies(df)
`)
	coldStart := script.MustParse(`import pandas as pd
df = pd.read_csv("diabetes.csv")
`)

	cfg := lsConfig(opts, intent.MeasureJaccard, 0.5, "")
	std := core.New(gen.ScriptsOnly(), gen.Sources, cfg)

	outputs := func(su *script.Script) (map[string]*script.Script, error) {
		res, err := std.Standardize(su)
		if err != nil {
			return nil, err
		}
		outs := map[string]*script.Script{"LS": res.Script}
		for _, ver := range []baselines.GPTVersion{baselines.GPT35, baselines.GPT4} {
			g := baselines.NewSimGPT(ver, opts.Seed, gen.Sources[gen.Competition.File], gen.Competition.Target).WithExamples(gen.ScriptsOnly())
			out, err := g.Rewrite(su)
			if err != nil {
				return nil, err
			}
			outs[g.Name()] = out
		}
		src, err := (baselines.Sourcery{}).Rewrite(su)
		if err != nil {
			return nil, err
		}
		outs["Sourcery"] = src
		at, err := (baselines.AutoTables{}).Rewrite(su)
		if err != nil {
			return nil, err
		}
		outs["Auto-Tables"] = at
		return outs, nil
	}

	const raters = 34
	methods := []string{"LS", "GPT-3.5", "GPT-4", "Sourcery", "Auto-Tables"}
	t := &Table{
		Title:  "Figure 3: simulated 34-rater user study (mean ± std, 1–5 scale)",
		Header: []string{"Case", "Method", "Standardness", "Helpfulness"},
	}
	ratings := map[string][]float64{}
	for _, cs := range []struct {
		name string
		su   *script.Script
	}{{"without-user-intent", coldStart}, {"with-user-intent", withIntent}} {
		opts.logf("fig3: %s", cs.name)
		outs, err := outputs(cs.su)
		if err != nil {
			return nil, err
		}
		baseRun, err := interp.Run(cs.su, gen.Sources, interp.Options{Seed: opts.Seed})
		if err != nil {
			return nil, err
		}
		for _, m := range methods {
			out := outs[m]
			pop := raterStandardness(out, vocab)
			help := helpfulness(out, cs.su, baseRun, vocab, gen, opts)
			var ss, hs []float64
			for r := 0; r < raters; r++ {
				ss = append(ss, clamp15(1+4*pop+rng.NormFloat64()*0.5))
				hs = append(hs, clamp15(1+4*help+rng.NormFloat64()*0.5))
			}
			ratings[cs.name+"/"+m] = ss
			t.Rows = append(t.Rows, []string{cs.name, m,
				fmt.Sprintf("%.2f ± %.2f", mean(ss), stddev(ss)),
				fmt.Sprintf("%.2f ± %.2f", mean(hs), stddev(hs))})
		}
	}
	// t-test LS vs best non-LS on standardness, without-user-intent case.
	bestBase, bestMean := "", -1.0
	for _, m := range methods[1:] {
		if v := mean(ratings["without-user-intent/"+m]); v > bestMean {
			bestMean, bestBase = v, m
		}
	}
	tt, p := welchT(ratings["without-user-intent/LS"], ratings["without-user-intent/"+bestBase])
	t.Rows = append(t.Rows, []string{"t-test (std.)", "LS vs " + bestBase,
		fmt.Sprintf("t=%.2f", tt), fmt.Sprintf("p=%.4f", p)})
	return t, nil
}

// raterStandardness is the simulated rater's judgment of how standard a
// script's preparation steps are w.r.t. the corpus statistics the rater was
// shown, in [0,1]. It is deliberately independent of the RE objective: a
// precision/recall harmonic mean between the script's step set and the
// corpus's popular steps, so a script that does nothing scores low (it uses
// none of the common practice) and a script stuffed with rare steps scores
// low too (its steps aren't common).
func raterStandardness(s *script.Script, vocab *entropy.Vocab) float64 {
	g := dag.Build(s)
	present := map[string]bool{}
	prec, n := 0.0, 0
	for _, li := range g.Lines {
		if strings.HasPrefix(li.Key, "import") || strings.Contains(li.Key, "read_csv") {
			continue
		}
		present[li.Key] = true
		n++
		prec += float64(vocab.LineCounts[li.Key]) / float64(vocab.NumScripts)
	}
	// Popular steps: used by at least 30% of corpus scripts.
	popular, covered := 0, 0
	for key, count := range vocab.LineCounts {
		if strings.HasPrefix(key, "import") || strings.Contains(key, "read_csv") {
			continue
		}
		if float64(count)/float64(vocab.NumScripts) >= 0.3 {
			popular++
			if present[key] {
				covered++
			}
		}
	}
	if n == 0 || popular == 0 {
		return 0
	}
	p := prec / float64(n)
	r := float64(covered) / float64(popular)
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// helpfulness scores how useful the output is for the rater's modeling
// task, in [0,1]: intent preservation, model readiness (the prepared table
// trains), and adherence to common practice — the criteria the paper's
// participants were asked to judge.
func helpfulness(out, su *script.Script, baseRun *interp.Result, vocab *entropy.Vocab, gen *corpusgen.Generated, opts Options) float64 {
	run, err := interp.Run(out, gen.Sources, interp.Options{Seed: opts.Seed})
	if err != nil || run.Main == nil {
		return 0.1
	}
	j, err := intent.TableJaccard(baseRun.Main, run.Main)
	if err != nil {
		return 0.2
	}
	ready := 0.0
	if _, err := intent.ModelAccuracy(run.Main, intent.ModelConfig{Target: gen.Competition.Target}); err == nil {
		ready = 1
	}
	return 0.4*j + 0.25*ready + 0.25*raterStandardness(out, vocab) + 0.1
}

func clamp15(v float64) float64 {
	if v < 1 {
		return 1
	}
	if v > 5 {
		return 5
	}
	return v
}

// Fig4 reproduces the %-improvement distributions per dataset for LS and
// the GPT baselines, as 10-bin histograms over [-100, 100] rendered as
// counts and a sparkline.
func Fig4(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	cache := newGenCache(opts)
	t := &Table{
		Title:  "Figure 4: % improvement distribution (bins of 20 over [-100,100])",
		Header: []string{"Dataset", "Method", "histogram", "bins"},
	}
	for _, name := range opts.Datasets {
		gen, err := cache.get(name)
		if err != nil {
			return nil, err
		}
		opts.logf("fig4: %s", name)
		cfg := lsConfig(opts, intent.MeasureJaccard, 0.9, "")
		runs := leaveOneOut(gen, cfg, opts.ScriptsPerDataset, opts.logf)
		var ls []float64
		for _, r := range runs {
			ls = append(ls, r.improvement)
		}
		series := map[string][]float64{"LS (τJ)": ls}
		for _, ver := range []baselines.GPTVersion{baselines.GPT35, baselines.GPT4} {
			var imps []float64
			inputs := inputScripts(gen.ScriptsOnly(), opts.ScriptsPerDataset)
			vocab := corpusVocab(gen.ScriptsOnly())
			g := baselines.NewSimGPT(ver, opts.Seed, gen.Sources[gen.Competition.File], gen.Competition.Target).WithExamples(gen.ScriptsOnly())
			for _, su := range inputs {
				out, err := g.Rewrite(su)
				if err != nil {
					continue
				}
				imps = append(imps, entropy.Improvement(vocab.RE(dag.Build(su)), vocab.RE(dag.Build(out))))
			}
			series[g.Name()] = imps
		}
		for _, m := range []string{"LS (τJ)", "GPT-3.5", "GPT-4"} {
			h := histogram(series[m], -100, 100, 10)
			t.Rows = append(t.Rows, []string{name, m, sparkline(h), fmt.Sprintf("%v", h)})
		}
	}
	return t, nil
}

// Fig5 reproduces the intent-threshold sweeps: median % improvement as τJ
// varies over {0.5..1.0} and τM over {0,1,2,5}%, per dataset. One beam
// search per input script serves every threshold.
func Fig5(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	cache := newGenCache(opts)
	tauJs := []float64{0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	tauMs := []float64{0, 1, 2, 5}
	t := &Table{
		Title:  "Figure 5: median % improvement vs intent thresholds",
		Header: []string{"Dataset", "measure", "τ", "median %impr"},
	}
	for _, name := range opts.Datasets {
		gen, err := cache.get(name)
		if err != nil {
			return nil, err
		}
		opts.logf("fig5: %s", name)
		var constraints []intent.Constraint
		for _, tj := range tauJs {
			constraints = append(constraints, intent.Constraint{Measure: intent.MeasureJaccard, Tau: tj})
		}
		for _, tm := range tauMs {
			constraints = append(constraints, intent.Constraint{
				Measure: intent.MeasureModel, Tau: tm,
				Model: intent.ModelConfig{Target: gen.Competition.Target},
			})
		}
		cfg := lsConfig(opts, intent.MeasureJaccard, 0.9, "")
		imps := make([][]float64, len(constraints))
		inputs := inputScripts(gen.ScriptsOnly(), opts.ScriptsPerDataset)
		for i, su := range inputs {
			rest := heldOut(gen.ScriptsOnly(), i)
			std := core.New(rest, gen.Sources, cfg)
			grid, err := std.StandardizeGrid(su, []int{cfg.SeqLength}, constraints)
			if err != nil {
				continue
			}
			for ci := range constraints {
				imps[ci] = append(imps[ci], grid[0][ci].ImprovementPct)
			}
		}
		for ci, c := range constraints {
			measure := "τJ"
			tauStr := fmt.Sprintf("%.1f", c.Tau)
			if c.Measure == intent.MeasureModel {
				measure = "τM"
				tauStr = fmt.Sprintf("%.0f%%", c.Tau)
			}
			t.Rows = append(t.Rows, []string{name, measure, tauStr, fmtF(median(imps[ci]))})
		}
	}
	return t, nil
}

// Fig6 reproduces the ablations: median % improvement for seq ∈ {2,4,8,16}
// (shared search per input) and beam size K ∈ {1,2,3} (separate searches,
// since K changes the trajectory).
func Fig6(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	cache := newGenCache(opts)
	seqs := []int{2, 4, 8, 16}
	beams := []int{1, 2, 3}
	t := &Table{
		Title:  "Figure 6: ablations (median % improvement)",
		Header: []string{"Dataset", "parameter", "value", "median %impr"},
	}
	for _, name := range opts.Datasets {
		gen, err := cache.get(name)
		if err != nil {
			return nil, err
		}
		opts.logf("fig6: %s", name)
		constraint := []intent.Constraint{{Measure: intent.MeasureJaccard, Tau: 0.9}}
		inputs := inputScripts(gen.ScriptsOnly(), opts.ScriptsPerDataset)
		// seq sweep: one search at seq=16 per input.
		seqImps := make([][]float64, len(seqs))
		for i, su := range inputs {
			rest := heldOut(gen.ScriptsOnly(), i)
			cfg := lsConfig(opts, intent.MeasureJaccard, 0.9, "")
			cfg.SeqLength = 16
			std := core.New(rest, gen.Sources, cfg)
			grid, err := std.StandardizeGrid(su, seqs, constraint)
			if err != nil {
				continue
			}
			for si := range seqs {
				seqImps[si] = append(seqImps[si], grid[si][0].ImprovementPct)
			}
		}
		for si, s := range seqs {
			t.Rows = append(t.Rows, []string{name, "seq", strconv.Itoa(s), fmtF(median(seqImps[si]))})
		}
		// Beam sweep: separate searches.
		for _, k := range beams {
			cfg := lsConfig(opts, intent.MeasureJaccard, 0.9, "")
			cfg.BeamSize = k
			runs := leaveOneOut(gen, cfg, opts.ScriptsPerDataset, func(string, ...interface{}) {})
			var vals []float64
			for _, r := range runs {
				vals = append(vals, r.improvement)
			}
			t.Rows = append(t.Rows, []string{name, "K", strconv.Itoa(k), fmtF(median(vals))})
		}
	}
	return t, nil
}

// Fig7 reproduces the runtime breakdown: median per-phase latency per
// dataset at seq=16.
func Fig7(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	cache := newGenCache(opts)
	t := &Table{
		Title:  "Figure 7: median runtime breakdown (ms, seq=16)",
		Header: []string{"Dataset", "Curate", "GetSteps", "GetTopKBeams", "CheckIfExecutes", "VerifyConstraints", "Total"},
	}
	for _, name := range opts.Datasets {
		gen, err := cache.get(name)
		if err != nil {
			return nil, err
		}
		opts.logf("fig7: %s", name)
		cfg := lsConfig(opts, intent.MeasureJaccard, 0.9, "")
		runs := leaveOneOut(gen, cfg, opts.ScriptsPerDataset, func(string, ...interface{}) {})
		collect := func(f func(core.Timings) float64) float64 {
			var vals []float64
			for _, r := range runs {
				vals = append(vals, f(r.timings))
			}
			return median(vals)
		}
		ms := func(v float64) string { return fmt.Sprintf("%.1f", v/1e6) }
		t.Rows = append(t.Rows, []string{
			name,
			ms(collect(func(tm core.Timings) float64 { return float64(tm.CurateSearchSpace) })),
			ms(collect(func(tm core.Timings) float64 { return float64(tm.GetSteps) })),
			ms(collect(func(tm core.Timings) float64 { return float64(tm.GetTopKBeams) })),
			ms(collect(func(tm core.Timings) float64 { return float64(tm.CheckIfExecutes) })),
			ms(collect(func(tm core.Timings) float64 { return float64(tm.VerifyConstraints) })),
			ms(collect(func(tm core.Timings) float64 { return float64(tm.Total) })),
		})
	}
	return t, nil
}

// Fig9 reproduces the target-leakage detection study: noisy-duplicate
// leakage is injected into a sample of each corpus and detection accuracy
// (all ground-truth lines removed by an admissible output) is reported per
// sequence length.
func Fig9(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	cache := newGenCache(opts)
	seqs := []int{2, 4, 8, 16}
	t := &Table{
		Title:  "Figure 9: target-leakage detection accuracy vs seq (τM=5%)",
		Header: []string{"Dataset", "seq=2", "seq=4", "seq=8", "seq=16", "n"},
	}
	for _, name := range opts.Datasets {
		gen, err := cache.get(name)
		if err != nil {
			return nil, err
		}
		opts.logf("fig9: %s", name)
		inputs := gen.ScriptsOnly()
		n := len(inputs) / 10 // the paper samples 10%
		if n < 3 {
			n = 3
		}
		if opts.ScriptsPerDataset > 0 && n > opts.ScriptsPerDataset {
			n = opts.ScriptsPerDataset
		}
		if n > len(inputs) {
			n = len(inputs)
		}
		detected := make([]int, len(seqs))
		tried := 0
		constraint := []intent.Constraint{{
			Measure: intent.MeasureModel, Tau: 5,
			Model: intent.ModelConfig{Target: gen.Competition.Target},
		}}
		for i := 0; i < n; i++ {
			inj, err := leakage.Inject(inputs[i], gen.Competition.Target, leakage.NoisyDup, opts.Seed+int64(i))
			if err != nil {
				continue
			}
			rest := heldOut(gen.ScriptsOnly(), i)
			cfg := lsConfig(opts, intent.MeasureModel, 5, gen.Competition.Target)
			cfg.SeqLength = 16
			std := core.New(rest, gen.Sources, cfg)
			grid, err := std.StandardizeGrid(inj.Script, seqs, constraint)
			if err != nil {
				continue
			}
			tried++
			for si := range seqs {
				if inj.Removed(grid[si][0].Script) {
					detected[si]++
				}
			}
		}
		row := []string{name}
		for si := range seqs {
			acc := 0.0
			if tried > 0 {
				acc = float64(detected[si]) / float64(tried) * 100
			}
			row = append(row, fmt.Sprintf("%.0f%%", acc))
		}
		row = append(row, strconv.Itoa(tried))
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
