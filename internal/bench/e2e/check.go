package e2e

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"lucidscript"
	"lucidscript/internal/interp"
	"lucidscript/internal/registry"
	"lucidscript/internal/serve"
	"lucidscript/internal/serve/store"
)

// serverOptions are the search options lsserved resolves from its default
// flags; the oracle Systems are built with exactly these.
func serverOptions() lucidscript.Options {
	return lucidscript.Options{Measure: lucidscript.IntentJaccard, Seed: 1}
}

// outcome is one attempted job, whichever path ran it.
type outcome struct {
	index   int
	dataset string
	script  string
	// ok is false when the job did not finish done; err says why.
	ok  bool
	err string
	// latencyMS runs from the job's origin to its finish.
	latencyMS float64
	res       *serve.JobResult
	version   int64
	origin    time.Time
	// submittedAt and finishedAt are the server's stamps (zero for batch).
	submittedAt, finishedAt time.Time
}

// nonsearchMS is the part of a served job's server-side life that was not
// search: queue wait, output hash, write-ahead log, finalization.
func (o *outcome) nonsearchMS() float64 {
	return ms(o.finishedAt.Sub(o.submittedAt)) - o.res.Timings.TotalMS
}

// loadSources reads a dataset's CSV files the way lsserved does, keyed by
// base name, and returns the time the reads took.
func loadSources(d *dataset) (map[string]*lucidscript.Frame, time.Duration, error) {
	start := time.Now()
	sources := map[string]*lucidscript.Frame{}
	for _, p := range d.files {
		f, err := lucidscript.ReadCSVFile(p)
		if err != nil {
			return nil, 0, fmt.Errorf("dataset %s: loading %s: %w", d.name, p, err)
		}
		sources[filepath.Base(p)] = f
	}
	return sources, time.Since(start), nil
}

// loadCorpus parses the dataset's corpus directory in file-name order, as
// lsserved and lsstd do.
func loadCorpus(d *dataset) ([]*lucidscript.Script, error) {
	entries, err := os.ReadDir(d.corpusDir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".ls") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	corpus := make([]*lucidscript.Script, 0, len(names))
	for _, n := range names {
		b, err := os.ReadFile(filepath.Join(d.corpusDir, n))
		if err != nil {
			return nil, err
		}
		sc, err := lucidscript.ParseScript(string(b))
		if err != nil {
			return nil, fmt.Errorf("dataset %s: parsing %s: %w", d.name, n, err)
		}
		corpus = append(corpus, sc)
	}
	return corpus, nil
}

// buildSystem reads and curates one dataset from its files: the set-up
// lsserved does at boot without a registry, and lsstd does per run.
func buildSystem(d *dataset, opts lucidscript.Options) (*lucidscript.System, map[string]*lucidscript.Frame, time.Duration, error) {
	sources, read, err := loadSources(d)
	if err != nil {
		return nil, nil, 0, err
	}
	corpus, err := loadCorpus(d)
	if err != nil {
		return nil, nil, 0, err
	}
	sys, err := lucidscript.NewSystem(corpus, sources, opts)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("dataset %s: %w", d.name, err)
	}
	return sys, sources, read, nil
}

// oracle holds Systems built the way the servers build theirs, one per
// dataset and corpus version, for the correctness check and the hash
// layer's measurements.
type oracle struct {
	systems   map[string]*lucidscript.System
	sources   map[string]map[string]*lucidscript.Frame
	csvReadMS float64
}

func newOracle() *oracle {
	return &oracle{systems: map[string]*lucidscript.System{}, sources: map[string]map[string]*lucidscript.Frame{}}
}

func oracleKey(dataset string, version int64) string { return fmt.Sprintf("%s@%d", dataset, version) }

// addCurated builds a dataset's System from its corpus directory.
func (o *oracle) addCurated(d *dataset) error {
	sys, sources, read, err := buildSystem(d, serverOptions())
	if err != nil {
		return err
	}
	o.csvReadMS += ms(read)
	o.sources[d.name] = sources
	o.systems[oracleKey(d.name, 0)] = sys
	return nil
}

// addRegistry opens the dataset's registry at its newest published
// version and builds a System over it, as lsserved's reloader does; it
// returns the open time and the version.
func (o *oracle) addRegistry(d *dataset, dir string) (time.Duration, int64, error) {
	sources, ok := o.sources[d.name]
	if !ok {
		var read time.Duration
		var err error
		if sources, read, err = loadSources(d); err != nil {
			return 0, 0, err
		}
		o.csvReadMS += ms(read)
		o.sources[d.name] = sources
	}
	start := time.Now()
	reg, err := registry.Open(dir)
	if err != nil {
		return 0, 0, err
	}
	open := time.Since(start)
	sys, err := lucidscript.NewSystemFromRegistry(reg, sources, serverOptions())
	if err != nil {
		return 0, 0, err
	}
	o.systems[oracleKey(d.name, reg.Version())] = sys
	return open, reg.Version(), nil
}

// checkResult is the post-pass verdict plus the hash layer's samples.
type checkResult struct {
	correct  bool
	checked  int
	problems []string
	hashMS   []float64
	execMS   []float64
	csvMS    []float64
	bytes    []float64
	digest   string
}

// Every checkEvery-th job is recomputed through the library; every
// hashEvery-th finished job has its output hash timed.
const (
	checkEvery = 10
	hashEvery  = 4
)

// check re-derives served outputs through the direct library path. For
// every hashEvery-th finished job it times the output-hash finalizer on
// the job's script and, separately, its two halves: the interpreter run
// over the full sources, and the CSV serialization plus SHA-256. For
// every checkEvery-th job it reruns the search on an identically built
// System; the script text and the output hash must equal the served ones.
// Jobs without a served hash (batch) take the one timed here.
func (o *oracle) check(ctx context.Context, outs []outcome) (checkResult, error) {
	res := checkResult{correct: true}
	problem := func(format string, args ...any) {
		res.correct = false
		res.problems = append(res.problems, fmt.Sprintf(format, args...))
	}
	digest := sha256.New()
	for i := range outs {
		out := &outs[i]
		if !out.ok {
			continue
		}
		sys := o.systems[oracleKey(out.dataset, out.version)]
		if sys == nil {
			return res, fmt.Errorf("no oracle System for %s at corpus version %d", out.dataset, out.version)
		}
		sc, err := lucidscript.ParseScript(out.res.Script)
		if err != nil {
			problem("job %d: served script does not parse: %v", out.index, err)
			continue
		}
		fmt.Fprintf(digest, "%d %s\n", out.index, out.res.Script)
		checked := out.index%checkEvery == 0
		if out.index%hashEvery == 0 || checked && out.res.OutputHash == "" {
			h, err := o.timeHash(ctx, sys, out.dataset, sc, &res)
			if err != nil {
				problem("job %d: hashing the served script: %v", out.index, err)
				continue
			}
			if out.res.OutputHash == "" {
				out.res.OutputHash = h
			} else if h != out.res.OutputHash {
				problem("job %d: served output hash %s, direct %s", out.index, out.res.OutputHash, h)
			}
		}
		if !checked {
			continue
		}
		res.checked++
		input, err := lucidscript.ParseScript(out.script)
		if err != nil {
			return res, fmt.Errorf("job %d: %w", out.index, err)
		}
		direct, err := sys.StandardizeContext(ctx, input)
		if err != nil {
			problem("job %d: direct standardization failed: %v", out.index, err)
			continue
		}
		if got := direct.Script.Source(); got != out.res.Script {
			problem("job %d: served script differs from the direct one:\n--- served\n%s--- direct\n%s", out.index, out.res.Script, got)
			continue
		}
		h, err := sys.OutputHashContext(ctx, direct.Script)
		if err != nil {
			problem("job %d: hashing the direct script: %v", out.index, err)
		} else if h != out.res.OutputHash {
			problem("job %d: served output hash %s, direct %s", out.index, out.res.OutputHash, h)
		}
	}
	res.digest = hex.EncodeToString(digest.Sum(nil))
	return res, nil
}

// timeHash runs the output-hash finalizer on sc and then its two halves
// by hand, recording the three times and the bytes hashed; the hand-made
// digest must equal the finalizer's.
func (o *oracle) timeHash(ctx context.Context, sys *lucidscript.System, dataset string, sc *lucidscript.Script, res *checkResult) (string, error) {
	start := time.Now()
	h, err := sys.OutputHashContext(ctx, sc)
	if err != nil {
		return "", err
	}
	res.hashMS = append(res.hashMS, ms(time.Since(start)))

	start = time.Now()
	run, err := interp.RunContext(ctx, sc, o.sources[dataset], interp.Options{Seed: serverOptions().Seed})
	if err != nil {
		return "", err
	}
	mid := time.Now()
	sum := sha256.New()
	cw := &countWriter{w: sum}
	if err := run.Main.WriteCSV(cw); err != nil {
		return "", err
	}
	manual := hex.EncodeToString(sum.Sum(nil))
	res.execMS = append(res.execMS, ms(mid.Sub(start)))
	res.csvMS = append(res.csvMS, ms(time.Since(mid)))
	res.bytes = append(res.bytes, float64(cw.n))
	if manual != h {
		return "", fmt.Errorf("split hash %s differs from OutputHash %s", manual, h)
	}
	return h, nil
}

// countWriter counts the bytes written through it.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// storeStats are the durable store's costs for a run's records.
type storeStats struct {
	appendMS      []float64
	compactMS     float64
	snapshotBytes int64
	walBytes      int64
}

// replayStore appends every finished job's records (submit, running,
// finish) through the store package on a scratch directory, timing each
// append, then times one compaction holding all of them: the store's
// share of the run, measured with the store's own code and default
// snapshot cadence.
func replayStore(dir string, outs []outcome) (storeStats, error) {
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		return storeStats{}, err
	}
	st, err := replayInto(s, outs)
	if cerr := s.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return st, err
	}
	fi, err := os.Stat(filepath.Join(dir, "snapshot.json"))
	if err != nil {
		return st, err
	}
	st.snapshotBytes = fi.Size()
	return st, nil
}

func replayInto(s *store.Store, outs []outcome) (storeStats, error) {
	var st storeStats
	var lagBytes int64
	timed := func(f func() error) error {
		start := time.Now()
		if err := f(); err != nil {
			return err
		}
		st.appendMS = append(st.appendMS, ms(time.Since(start)))
		lag := s.Lag().Bytes
		if grown := lag - lagBytes; grown >= 0 {
			st.walBytes += grown
		} else { // the append triggered a compaction, which emptied the log
			st.walBytes += lag
		}
		lagBytes = lag
		return nil
	}
	for i, out := range outs {
		if !out.ok {
			continue
		}
		id := fmt.Sprintf("j-%08d", i+1)
		raw, err := json.Marshal(out.res)
		if err != nil {
			return st, err
		}
		rec := &store.Record{
			ID: id, Seq: int64(i + 1), Dataset: out.dataset, Script: out.script,
			IdempotencyKey: fmt.Sprintf("job-%05d", out.index), CorpusVersion: out.version, SubmittedAt: out.submittedAt,
		}
		for _, f := range []func() error{
			func() error { return s.AppendSubmit(rec) },
			func() error { return s.AppendRunning(id) },
			func() error { return s.AppendFinish(id, serve.StateDone, "", "", raw, out.finishedAt) },
		} {
			if err := timed(f); err != nil {
				return st, err
			}
		}
	}
	start := time.Now()
	if err := s.Compact(); err != nil {
		return st, err
	}
	st.compactMS = ms(time.Since(start))
	return st, nil
}
