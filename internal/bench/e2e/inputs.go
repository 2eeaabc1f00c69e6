package e2e

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"lucidscript/internal/corpusgen"
	"lucidscript/internal/registry"
)

// The generated inputs. Data values follow the run's seed; the corpora and
// the job-script pools are drawn from fixed seeds, because the work a job
// does depends far more on the corpus and on the script than on the data:
// with the corpus drawn from the run's seed, the mean Sales search time
// over the same 60 jobs ranged from 121 to 279 ms across five seeds, which
// no regression bound could absorb. A run's seed still picks the served
// workloads' job order, the arrival times and the corpus churn.
const (
	rowScale   = 0.02
	corpusSeed = 1
	jobSeed    = 2
	warmSeed   = 3
)

// dataset is one competition as the servers see it: CSV files and a
// directory of .ls corpus scripts, plus the pool its job scripts come from.
type dataset struct {
	// name is the server-side dataset name (the competition, lower-cased).
	name string
	comp *corpusgen.Competition
	// files are the CSV paths, the competition's main file first.
	files     []string
	corpusDir string
	corpus    []registry.Script
	pool      []string
	// warm are the scripts of the warm-up jobs, disjoint from pool.
	warm []string
}

// spec is the dataset's lsserved -dataset flag value.
func (d *dataset) spec() string {
	return d.name + "=" + d.corpusDir + "," + strings.Join(d.files, ",")
}

// mix selects the job pool's script archetypes (see corpusgen.ScaleConfig):
// the zero value is the corpus generator's own mix.
type mix struct{ minimal, imputeSplit float64 }

// lightMix leaves out the full pipelines, whose Sales searches take
// seconds: what remains is the wide-table case where the output hash is a
// large share of each job.
var lightMix = mix{minimal: 0.5, imputeSplit: 0.5}

// prepareDataset writes one competition's seeded data and fixed corpus
// under dir and draws its job pool and warm-up scripts.
func prepareDataset(dir, competition string, seed int64, poolSize, warmSize int, m mix) (*dataset, error) {
	comp, err := corpusgen.Get(competition)
	if err != nil {
		return nil, err
	}
	d := &dataset{name: strings.ToLower(competition), comp: comp, corpusDir: filepath.Join(dir, "corpus")}
	if err := os.MkdirAll(d.corpusDir, 0o755); err != nil {
		return nil, err
	}
	data, err := comp.Generate(corpusgen.GenOptions{Seed: seed, RowScale: rowScale})
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(data.Sources))
	for name := range data.Sources {
		if name != comp.File {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range append([]string{comp.File}, names...) {
		path := filepath.Join(dir, name)
		if err := data.Sources[name].WriteCSVFile(path); err != nil {
			return nil, err
		}
		d.files = append(d.files, path)
	}
	paper, err := comp.Generate(corpusgen.GenOptions{Seed: corpusSeed, RowScale: rowScale})
	if err != nil {
		return nil, err
	}
	for i, gs := range paper.Scripts {
		s := registry.Script{ID: fmt.Sprintf("s%03d.ls", i), Source: gs.Script.Source()}
		if err := os.WriteFile(filepath.Join(d.corpusDir, s.ID), []byte(s.Source), 0o644); err != nil {
			return nil, err
		}
		d.corpus = append(d.corpus, s)
	}
	if d.pool, err = scripts(comp, jobSeed, poolSize, m); err != nil {
		return nil, err
	}
	if d.warm, err = scripts(comp, warmSeed, warmSize, m); err != nil {
		return nil, err
	}
	return d, nil
}

// scripts draws n job scripts of the mix from a fixed seed.
func scripts(comp *corpusgen.Competition, seed int64, n int, m mix) ([]string, error) {
	if n == 0 {
		return nil, nil
	}
	gen, err := comp.GenerateScaled(corpusgen.ScaleConfig{
		Seed: seed, NumScripts: n, MinimalRatio: m.minimal, ImputeSplitRatio: m.imputeSplit,
	})
	if err != nil {
		return nil, err
	}
	out := make([]string, len(gen))
	for i, g := range gen {
		out[i] = g.Script.Source()
	}
	return out, nil
}

// warmIndex is where warm-up job indices start, clear of any run's jobs.
const warmIndex = 1 << 20

// warmSpecs lists every dataset's warm-up jobs, interleaved.
func warmSpecs(datasets []*dataset) []jobSpec {
	var specs []jobSpec
	for k := 0; ; k++ {
		added := false
		for _, d := range datasets {
			if k < len(d.warm) {
				specs = append(specs, jobSpec{index: warmIndex + len(specs), ds: d, script: d.warm[k]})
				added = true
			}
		}
		if !added {
			return specs
		}
	}
}

// jobSpec is one job of a run: what is submitted, and for an open loop
// when it is due relative to the start of the window.
type jobSpec struct {
	index  int
	ds     *dataset
	script string
	due    time.Duration
}

// planJobs assigns n jobs round-robin over the datasets; each dataset
// hands out its pool in a seeded order, so a run whose n is a multiple of
// the dataset count and whose pools are n/len(datasets) long submits every
// pool script exactly once.
func planJobs(rng *rand.Rand, datasets []*dataset, n int) ([]jobSpec, error) {
	perms := make([][]int, len(datasets))
	for i, d := range datasets {
		perms[i] = rng.Perm(len(d.pool))
	}
	specs := make([]jobSpec, n)
	for i := range specs {
		di := i % len(datasets)
		k := i / len(datasets)
		if k >= len(perms[di]) {
			return nil, fmt.Errorf("dataset %s: pool of %d scripts is too small for %d jobs", datasets[di].name, len(perms[di]), n)
		}
		specs[i] = jobSpec{index: i, ds: datasets[di], script: datasets[di].pool[perms[di][k]]}
	}
	return specs, nil
}

// poissonSchedule returns n arrival offsets of a Poisson process at rate
// jobs per second, conditioned on exactly n arrivals in [0, n/rate): the
// arrivals of such a process are n sorted uniform draws. Fixing the count
// keeps the offered work the same in every run; only the timing varies
// with the seed.
func poissonSchedule(rng *rand.Rand, n int, rate float64) []time.Duration {
	span := float64(n) / rate
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Float64() * span * float64(time.Second))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
