// Command lsstd standardizes a user's data-preparation script against a
// corpus of scripts processing the same dataset, printing the standardized
// script to stdout and a change summary to stderr.
//
// Usage:
//
//	lsstd -script my_prep.ls -corpus scripts_dir -data diabetes.csv \
//	      [-measure jaccard|model] [-tau 0.9] [-target Outcome] \
//	      [-seq 16] [-beam 3] [-auto] \
//	      [-timeout 30s] [-trace] [-metrics-dump]
//
// Batch mode standardizes every script matching a glob concurrently over
// one shared curated corpus, printing each output under a `# === name ===`
// header:
//
//	lsstd -jobs 'prep/*.ls' -corpus scripts_dir -data diabetes.csv \
//	      [-batch-workers 8]
//
// A -timeout (or Ctrl-C) aborts the search and prints the best result
// found so far; -trace streams structured search events to stderr and
// -metrics-dump prints cumulative counters in Prometheus text format.
//
// With -registry-dir the curated corpus persists across runs: the first
// run (with -corpus) curates and publishes version 1, later runs
// warm-load the snapshot and skip curation. When -corpus accompanies an
// initialized registry, the directory is diffed against the registry and
// only the changed scripts are re-curated, publishing a new version that
// a running lsserved can hot-swap in via its reload endpoint.
//
// The corpus directory is scanned for *.ls and *.py files (straight-line
// pandas-style scripts).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"lucidscript"
	"lucidscript/internal/registry"
)

type stringList []string

func (s *stringList) String() string { return fmt.Sprint(*s) }

func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func main() {
	var (
		scriptPath  = flag.String("script", "", "path to the input LSL script (required unless -jobs)")
		jobsGlob    = flag.String("jobs", "", "glob of input scripts to standardize as one concurrent batch")
		batchWork   = flag.Int("batch-workers", 0, "worker pool size for -jobs (0 = GOMAXPROCS)")
		corpusDir   = flag.String("corpus", "", "directory of corpus scripts (required unless -registry-dir)")
		registryDir = flag.String("registry-dir", "", "corpus-registry directory: warm-load the curated state; with -corpus, diff the directory against the registry and publish a new version incrementally")
		measure     = flag.String("measure", "jaccard", "user-intent measure: jaccard or model")
		tau         = flag.Float64("tau", 0, "intent threshold (default 0.9 jaccard / 1% model)")
		target      = flag.String("target", "", "label column (required for -measure model)")
		seq         = flag.Int("seq", 0, "max transformations (default 16)")
		beam        = flag.Int("beam", 0, "beam size (default 3)")
		auto        = flag.Bool("auto", false, "derive seq/beam from corpus statistics (Table 2)")
		lint        = flag.Bool("lint", false, "only report out-of-the-ordinary steps, do not transform")
		lintFreq    = flag.Float64("lint-freq", 0.1, "flag steps used by fewer than this fraction of corpus scripts")
		seed        = flag.Int64("seed", 1, "random seed")
		execCache   = flag.String("execcache", "on", "execution-prefix cache: on or off (results are identical either way)")
		maxCells    = flag.Int("max-cells", 0, "cap rows*cols of any value a candidate materializes (0 = governor off; setting this or -max-steps enables default budgets for the rest)")
		maxSteps    = flag.Int("max-steps", 0, "cap statements per candidate execution (0 = governor off)")
		timeout     = flag.Duration("timeout", 0, "abort the search after this duration, keeping the best partial result (e.g. 30s; 0 = no limit)")
		trace       = flag.Bool("trace", false, "stream structured search events to stderr")
		metricsDump = flag.Bool("metrics-dump", false, "print search counters in Prometheus text format to stderr on exit")
		dataPaths   stringList
	)
	flag.Var(&dataPaths, "data", "CSV data file (repeatable)")
	flag.Parse()

	if (*scriptPath == "" && *jobsGlob == "") || (*corpusDir == "" && *registryDir == "") || len(dataPaths) == 0 {
		fmt.Fprintln(os.Stderr, "usage: lsstd (-script prep.ls | -jobs 'glob') (-corpus dir | -registry-dir dir [-corpus dir]) -data file.csv")
		os.Exit(2)
	}
	if *lint && *scriptPath == "" {
		fmt.Fprintln(os.Stderr, "lsstd: -lint needs -script, not -jobs")
		os.Exit(2)
	}
	if *execCache != "on" && *execCache != "off" {
		fmt.Fprintf(os.Stderr, "lsstd: -execcache must be on or off, got %q\n", *execCache)
		os.Exit(2)
	}

	var input *lucidscript.Script
	if *scriptPath != "" {
		srcBytes, err := os.ReadFile(*scriptPath)
		if err != nil {
			fatal(err)
		}
		input, err = lucidscript.ParseScript(string(srcBytes))
		if err != nil {
			fatal(fmt.Errorf("parsing %s: %w", *scriptPath, err))
		}
	}

	sources := map[string]*lucidscript.Frame{}
	for _, p := range dataPaths {
		f, err := lucidscript.ReadCSVFile(p)
		if err != nil {
			fatal(fmt.Errorf("loading %s: %w", p, err))
		}
		sources[filepath.Base(p)] = f
	}

	opts := lucidscript.Options{
		SeqLength:        *seq,
		BeamSize:         *beam,
		Measure:          lucidscript.IntentMeasure(*measure),
		Tau:              *tau,
		TargetColumn:     *target,
		Auto:             *auto,
		Seed:             *seed,
		DisableExecCache: *execCache == "off",
		Timeout:          *timeout,
		BatchWorkers:     *batchWork,
	}
	if *maxCells > 0 || *maxSteps > 0 {
		limits := lucidscript.DefaultExecLimits()
		if *maxCells > 0 {
			limits.MaxCells = *maxCells
		}
		if *maxSteps > 0 {
			limits.MaxSteps = *maxSteps
		}
		opts.ExecLimits = limits
	}
	if *trace {
		opts.Tracer = lucidscript.NewWriterTracer(os.Stderr)
	}
	var metrics *lucidscript.Metrics
	if *metricsDump {
		metrics = lucidscript.NewMetrics()
		opts.Metrics = metrics
	}
	var sys *lucidscript.System
	if *registryDir != "" {
		reg, err := syncRegistry(*registryDir, *corpusDir)
		if err != nil {
			fatal(err)
		}
		sys, err = lucidscript.NewSystemFromRegistry(reg, sources, opts)
		if err != nil {
			fatal(err)
		}
	} else {
		corpus, err := loadCorpus(*corpusDir)
		if err != nil {
			fatal(err)
		}
		sys, err = lucidscript.NewSystem(corpus, sources, opts)
		if err != nil {
			fatal(err)
		}
	}
	stats := sys.Stats()
	fmt.Fprintf(os.Stderr, "corpus: %d scripts, %d unique 1-grams, %d n-grams, %d edges\n",
		stats.Scripts, stats.UniqueUnigrams, stats.UniqueNgrams, stats.UniqueEdges)

	if *lint {
		fmt.Print(sys.AnomalyReport(input, *lintFreq))
		return
	}

	// Ctrl-C cancels the search cleanly: the best partial result (usually
	// the unchanged input) is still printed, with a note on stderr.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *jobsGlob != "" {
		runBatch(ctx, sys, *jobsGlob, metrics)
		return
	}

	res, err := sys.StandardizeContext(ctx, input)
	if err != nil {
		if !errors.Is(err, lucidscript.ErrCanceled) && !errors.Is(err, lucidscript.ErrDeadlineExceeded) {
			dumpMetrics(metrics)
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "lsstd: search interrupted, printing best result so far:", err)
		if res == nil {
			// The deadline fired before the input even executed; pass the
			// script through unchanged.
			fmt.Print(input.Source())
			dumpMetrics(metrics)
			return
		}
	}
	fmt.Print(res.Script.Source())
	fmt.Fprintf(os.Stderr, "RE: %.3f -> %.3f (%.1f%% improvement), intent %.3f\n",
		res.REBefore, res.REAfter, res.ImprovementPct, res.IntentValue)
	// The digest of the standardized script's output table over the full
	// data; lsserved returns the same value per job (result.output_hash), so
	// a CLI run and a served run are directly comparable.
	if hash, err := sys.OutputHash(res.Script); err == nil {
		fmt.Fprintf(os.Stderr, "output hash: %s\n", hash)
	} else {
		fmt.Fprintf(os.Stderr, "output hash unavailable: %v\n", err)
	}
	for _, tr := range res.Transformations {
		fmt.Fprintln(os.Stderr, "  "+tr)
	}
	if *execCache == "on" {
		ec := res.ExecCache
		fmt.Fprintf(os.Stderr,
			"exec cache: %d hits, %d misses, %d evictions; %d statements executed, %d skipped, ~%s exec time saved\n",
			ec.Hits, ec.Misses, ec.Evictions, ec.StmtsExecuted, ec.StmtsSkipped,
			ec.EstSavedTime.Round(time.Millisecond))
	}
	reportHealth("lsstd", res.Health)
	fmt.Fprintf(os.Stderr, "time: %s total (%s search, %s verify)\n",
		res.Timings.Total.Round(time.Millisecond),
		(res.Timings.GetSteps + res.Timings.GetTopKBeams + res.Timings.CheckIfExecutes).Round(time.Millisecond),
		res.Timings.VerifyConstraints.Round(time.Millisecond))
	dumpMetrics(metrics)
}

// runBatch standardizes every script matching the glob as one concurrent
// batch over the already-curated system. Outputs are printed in glob order
// under per-file headers; a failing job is reported on stderr and its input
// (or partial result) passed through, without stopping the other jobs.
func runBatch(ctx context.Context, sys *lucidscript.System, glob string, metrics *lucidscript.Metrics) {
	paths, err := filepath.Glob(glob)
	if err != nil {
		fatal(err)
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		fatal(fmt.Errorf("no files match -jobs %q", glob))
	}
	jobs := make([]*lucidscript.Script, len(paths))
	for i, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			fatal(err)
		}
		if jobs[i], err = lucidscript.ParseScript(string(b)); err != nil {
			fatal(fmt.Errorf("parsing %s: %w", p, err))
		}
	}

	start := time.Now()
	res, err := sys.StandardizeBatchContext(ctx, jobs)
	var be *lucidscript.BatchError
	if err != nil && !errors.As(err, &be) {
		fatal(err)
	}
	failed := 0
	for i, p := range paths {
		name := filepath.Base(p)
		fmt.Printf("# === %s ===\n", name)
		if be != nil && be.Errs[i] != nil {
			failed++
			fmt.Fprintf(os.Stderr, "%s: failed: %v\n", name, be.Errs[i])
			if res[i] != nil {
				fmt.Print(res[i].Script.Source())
			} else {
				fmt.Print(jobs[i].Source())
			}
			continue
		}
		fmt.Print(res[i].Script.Source())
		fmt.Fprintf(os.Stderr, "%s: RE %.3f -> %.3f (%.1f%% improvement), intent %.3f\n",
			name, res[i].REBefore, res[i].REAfter, res[i].ImprovementPct, res[i].IntentValue)
		reportHealth(name, res[i].Health)
	}
	fmt.Fprintf(os.Stderr, "batch: %d jobs in %s, %d failed\n",
		len(jobs), time.Since(start).Round(time.Millisecond), failed)
	dumpMetrics(metrics)
	if failed > 0 {
		os.Exit(1)
	}
}

// reportHealth notes on stderr how much containment a run needed; silent
// for a fully healthy run.
func reportHealth(name string, h lucidscript.Health) {
	if !h.Degraded() {
		return
	}
	fmt.Fprintf(os.Stderr,
		"%s: degraded: %d candidates quarantined (%d panics, %d budget trips), %d corpus scripts skipped, degraded verify: %v\n",
		name, h.Total(),
		h.Check.Panicked+h.Verify.Panicked, h.Check.Exhausted+h.Verify.Exhausted,
		h.CurateSkipped, h.VerifyDegraded)
}

// dumpMetrics prints the collected counters to stderr when -metrics-dump
// is on (metrics is nil otherwise).
func dumpMetrics(m *lucidscript.Metrics) {
	if m == nil {
		return
	}
	if err := m.WritePrometheus(os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "lsstd: metrics dump:", err)
	}
}

// syncRegistry opens (or creates) the corpus registry at regDir and, when
// a corpus directory is also given, reconciles the registry against it:
// scripts new to the directory are added, scripts that vanished are
// removed, and scripts whose content changed are replaced — one
// incremental Apply + Publish instead of a from-scratch curation. With no
// corpus directory the registry is warm-loaded as-is.
func syncRegistry(regDir, corpusDir string) (*registry.Registry, error) {
	if !registry.IsInitialized(regDir) {
		if corpusDir == "" {
			return nil, fmt.Errorf("registry %s is empty; pass -corpus to seed it", regDir)
		}
		members, err := loadCorpusMembers(corpusDir)
		if err != nil {
			return nil, err
		}
		reg, err := registry.Create(regDir, members)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "registry %s: curated %d scripts, published v%d\n",
			regDir, reg.NumScripts(), reg.Version())
		return reg, nil
	}

	reg, err := registry.Open(regDir)
	if err != nil {
		return nil, err
	}
	for _, d := range reg.Diagnostics() {
		fmt.Fprintln(os.Stderr, "registry:", d)
	}
	if corpusDir == "" {
		fmt.Fprintf(os.Stderr, "registry %s: warm-loaded v%d (%d scripts)\n",
			regDir, reg.Version(), reg.NumScripts())
		return reg, nil
	}

	want, err := loadCorpusMembers(corpusDir)
	if err != nil {
		return nil, err
	}
	have, err := reg.Members()
	if err != nil {
		return nil, err
	}
	haveByID := make(map[string]registry.Script, len(have))
	for _, m := range have {
		haveByID[m.ID] = m
	}
	var add, remove []registry.Script
	for _, m := range want {
		// The registry normalizes non-positive weights to 1 on ingest;
		// mirror that so an unchanged directory diffs clean.
		wantWeight := m.Weight
		if wantWeight <= 0 {
			wantWeight = 1
		}
		prev, ok := haveByID[m.ID]
		if !ok {
			add = append(add, m)
		} else if prev.Source != m.Source || prev.Weight != wantWeight {
			remove = append(remove, prev)
			add = append(add, m)
		}
		delete(haveByID, m.ID)
	}
	// Anything still in haveByID was never matched by the directory scan.
	for _, m := range have {
		if _, unmatched := haveByID[m.ID]; unmatched {
			remove = append(remove, m)
		}
	}
	if len(add) == 0 && len(remove) == 0 {
		fmt.Fprintf(os.Stderr, "registry %s: up to date at v%d (%d scripts)\n",
			regDir, reg.Version(), reg.NumScripts())
		return reg, nil
	}
	// Replaced scripts appear in both lists; Apply validates adds against
	// the pre-remove membership, so tombstone first, then add.
	if err := reg.Apply(nil, remove); err != nil {
		return nil, err
	}
	if err := reg.Apply(add, nil); err != nil {
		return nil, err
	}
	v, err := reg.Publish()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "registry %s: +%d -%d scripts, published v%d (%d live)\n",
		regDir, len(add), len(remove), v, reg.NumScripts())
	return reg, nil
}

// loadCorpusMembers reads every *.ls / *.py script in dir as a registry
// member keyed by file name.
func loadCorpusMembers(dir string) ([]registry.Script, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if strings.HasSuffix(e.Name(), ".ls") || strings.HasSuffix(e.Name(), ".py") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("no *.ls or *.py scripts in %s", dir)
	}
	members := make([]registry.Script, 0, len(names))
	for _, n := range names {
		b, err := os.ReadFile(filepath.Join(dir, n))
		if err != nil {
			return nil, err
		}
		members = append(members, registry.Script{ID: n, Source: string(b)})
	}
	return members, nil
}

func loadCorpus(dir string) ([]*lucidscript.Script, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if strings.HasSuffix(e.Name(), ".ls") || strings.HasSuffix(e.Name(), ".py") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	var corpus []*lucidscript.Script
	for _, n := range names {
		b, err := os.ReadFile(filepath.Join(dir, n))
		if err != nil {
			return nil, err
		}
		s, err := lucidscript.ParseScript(string(b))
		if err != nil {
			fmt.Fprintf(os.Stderr, "skipping %s: %v\n", n, err)
			continue
		}
		corpus = append(corpus, s)
	}
	if len(corpus) == 0 {
		return nil, fmt.Errorf("no parseable scripts in %s", dir)
	}
	return corpus, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lsstd:", err)
	os.Exit(1)
}
