package core

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lucidscript/internal/dag"
	"lucidscript/internal/entropy"
	"lucidscript/internal/faults"
	"lucidscript/internal/frame"
	"lucidscript/internal/interp"
	"lucidscript/internal/script"
)

// CuratedCorpus is the reusable output of the offline phase (Section 5.1):
// the atom/edge vocabularies and corpus distribution Q(x), the input
// datasets, and the MaxRows-sampled execution sources. One CuratedCorpus
// serves every standardization against the same corpus — the single-shot
// path, threshold sweeps, and every job queue share it, so a batch of
// N jobs pays for curation exactly once. All fields are read-only after
// Curate (the sample memo is mutex-guarded), making the value safe for
// concurrent use.
type CuratedCorpus struct {
	// Vocab holds the atoms, n-grams, edges and the corpus distribution.
	Vocab *entropy.Vocab
	// Sources are the input datasets, keyed by file name.
	Sources map[string]*frame.Frame
	// CurateTime records how long the offline phase took.
	CurateTime time.Duration
	// Diagnostics lists the corpus scripts curation skipped instead of
	// aborting on: one entry per script whose lemmatization failed (or was
	// chaos-injected to fail), with the contained cause. An empty slice is
	// the healthy case.
	Diagnostics []CurateDiagnostic
	// Version identifies the corpus snapshot this curation came from when
	// the corpus is registry-backed (monotonically increasing, assigned at
	// publish). Zero means the corpus was curated in-process and never
	// versioned. Deterministic per-job fault keys include a non-zero
	// version so a chaos rule armed at "job 3" does not silently re-fire
	// on job 3 of every hot-swapped corpus generation.
	Version int64

	// sampled memoizes the MaxRows-sampled sources so the per-candidate
	// path never pays the sampling loop (optimization 5 runs once, not once
	// per execution).
	sampleMu   sync.Mutex
	sampledKey sampleKey
	sampled    map[string]*frame.Frame
}

type sampleKey struct {
	maxRows int
	seed    int64
}

// Curate lemmatizes the corpus scripts, converts each to its DAG, and
// builds the vocabularies and corpus distribution.
func Curate(corpus []*script.Script, sources map[string]*frame.Frame) *CuratedCorpus {
	return CurateWeighted(corpus, nil, sources)
}

// curateCalls counts Curate invocations process-wide so tests and
// benchmarks can assert that a batch of N jobs curates exactly once.
var curateCalls atomic.Int64

// CurateCalls returns how many times Curate has run in this process.
func CurateCalls() int64 { return curateCalls.Load() }

// CurateWeighted is Curate with per-script corpus weights (e.g. Kaggle
// votes, see Section 8); a script with weight w counts as w copies in the
// corpus distribution. Nil weights or non-positive entries default to 1.
func CurateWeighted(corpus []*script.Script, weights []int, sources map[string]*frame.Frame) *CuratedCorpus {
	return CurateWeightedFaults(corpus, weights, sources, nil)
}

// ErrCurateSkipped marks a corpus script that curation dropped instead of
// letting its failure abort the offline phase.
var ErrCurateSkipped = errors.New("core: corpus script skipped during curation")

// CurateDiagnostic records one corpus script curation skipped.
type CurateDiagnostic struct {
	// Index is the script's position in the submitted corpus.
	Index int
	// Err is the contained cause, wrapping ErrCurateSkipped (and the panic
	// value or injected fault underneath).
	Err error
}

// CurateWeightedFaults is CurateWeighted with graceful per-script
// degradation and an optional chaos-injection hook: a script whose
// lemmatization panics (or is injected to fail at faults.SiteCurateScript)
// is skipped and recorded in Diagnostics — with its weight dropped
// alongside it — instead of aborting the whole offline phase. The corpus
// distribution is then built over the surviving scripts.
func CurateWeightedFaults(corpus []*script.Script, weights []int, sources map[string]*frame.Frame, inj *faults.Injector) *CuratedCorpus {
	curateCalls.Add(1)
	start := time.Now()
	graphs := make([]*dag.Graph, 0, len(corpus))
	kept := weights
	if weights != nil {
		kept = make([]int, 0, len(weights))
	}
	var diags []CurateDiagnostic
	for i, s := range corpus {
		g, err := buildGraphIsolated(i, s, inj)
		if err != nil {
			diags = append(diags, CurateDiagnostic{Index: i, Err: err})
			continue
		}
		graphs = append(graphs, g)
		if weights != nil && i < len(weights) {
			kept = append(kept, weights[i])
		}
	}
	return &CuratedCorpus{
		Vocab:       entropy.BuildVocabWeighted(graphs, kept),
		Sources:     sources,
		CurateTime:  time.Since(start),
		Diagnostics: diags,
	}
}

// buildGraphIsolated lemmatizes one corpus script with panic containment
// and the curation chaos site armed.
func buildGraphIsolated(i int, s *script.Script, inj *faults.Injector) (g *dag.Graph, err error) {
	defer func() {
		if r := recover(); r != nil {
			if perr, ok := r.(error); ok {
				err = fmt.Errorf("%w: script %d: %w", ErrCurateSkipped, i, perr)
			} else {
				err = fmt.Errorf("%w: script %d: %v", ErrCurateSkipped, i, r)
			}
		}
	}()
	if f := inj.Fire(faults.SiteCurateScript, strconv.Itoa(i)); f != nil {
		return nil, fmt.Errorf("%w: script %d: %w", ErrCurateSkipped, i, f.Err)
	}
	return dag.Build(s), nil
}

// ExecSources returns the sources every candidate executes against, with
// MaxRows sampling applied once and memoized per (maxRows, seed). A
// non-positive maxRows disables sampling. Safe for concurrent use.
func (cc *CuratedCorpus) ExecSources(maxRows int, seed int64) map[string]*frame.Frame {
	if maxRows <= 0 {
		return cc.Sources
	}
	if seed == 0 {
		seed = 1
	}
	key := sampleKey{maxRows: maxRows, seed: seed}
	cc.sampleMu.Lock()
	defer cc.sampleMu.Unlock()
	if cc.sampled == nil || cc.sampledKey != key {
		cc.sampled = interp.SampleSources(cc.Sources, maxRows, seed)
		cc.sampledKey = key
	}
	return cc.sampled
}
