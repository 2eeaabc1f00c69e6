// Package registry persists a curated corpus — the precomputed atom/edge
// distributions, lemma tables, and per-script metadata of the paper's
// offline phase (§5.1) — to a versioned on-disk format, so a serving
// process boots against a warm corpus without re-paying curation, and
// corpus membership changes re-curate incrementally instead of from
// scratch.
//
// The incremental path caches one entropy.ScriptStats per corpus member
// (its atom-key sequences; the expensive lemmatization ran exactly once,
// when the script entered the corpus) and re-folds the live members in
// insertion order through entropy.BuildVocabFromStats — the same fold
// core.Curate uses — after every Apply. Because the fold sees the same
// stats in the same order, the incremental result is byte-identical to a
// from-scratch curation of the surviving scripts, floating-point
// accumulation included; TestIncrementalCurationEquivalence holds the
// system to exactly that.
//
// Versions are monotonically increasing integers. Publish writes snapshot
// corpus-%08d.reg atomically (temp + fsync + rename) and then swings the
// CURRENT pointer, so readers always see a complete snapshot; Open falls
// back to the newest loadable version when the pointed-at file is damaged,
// and FuzzRegistryLoad hammers that loader with truncations, bit flips,
// and section swaps.
package registry

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"lucidscript/internal/atomicfile"
	"lucidscript/internal/dag"
	"lucidscript/internal/entropy"
	"lucidscript/internal/script"
)

// The typed errors. Everything the loader can hit in a damaged directory
// wraps ErrCorrupt; membership mistakes in Apply get their own sentinels so
// callers can distinguish operator error from data damage.
var (
	// ErrCorrupt marks a snapshot file the loader rejected — truncated,
	// bit-flipped, mis-ordered, or internally inconsistent. Open recovers
	// to the newest older version when one loads cleanly.
	ErrCorrupt = errors.New("registry: corrupt corpus snapshot")
	// ErrNoCorpus reports an Open against a directory with no loadable
	// snapshot at all.
	ErrNoCorpus = errors.New("registry: no corpus snapshots")
	// ErrUnknownScript reports an Apply removal naming no live corpus
	// member.
	ErrUnknownScript = errors.New("registry: unknown script id")
	// ErrDuplicateScript reports an Apply addition (or Create input)
	// reusing a live member's id.
	ErrDuplicateScript = errors.New("registry: duplicate script id")
	// ErrBadScript reports a corpus script whose source does not parse.
	ErrBadScript = errors.New("registry: script does not parse")
)

// Script is one corpus member: a stable identity, LSL source, and an
// optional corpus weight (≤ 0 folds as 1, matching core.CurateWeighted).
type Script struct {
	ID     string
	Source string
	Weight int
}

// ReadDir reads a corpus directory: every *.ls and *.py file in dir (not
// descending into subdirectories), sorted by file name, as a member whose
// ID is the file name. It is the one reader of the corpus-directory format
// the commands share; sources are returned unparsed (see Parse). A
// directory with no such file is an error.
func ReadDir(dir string) ([]Script, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var members []Script
	for _, e := range entries { // os.ReadDir sorts by name
		n := e.Name()
		if e.IsDir() || !(strings.HasSuffix(n, ".ls") || strings.HasSuffix(n, ".py")) {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, n))
		if err != nil {
			return nil, err
		}
		members = append(members, Script{ID: n, Source: string(b)})
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("no *.ls or *.py scripts in %s", dir)
	}
	return members, nil
}

// Parse parses every member's source, in order. A script that does not
// parse fails the whole call with ErrBadScript naming its ID — the same
// policy Create and Apply apply — so no caller silently curates a subset
// of its corpus.
func Parse(scripts []Script) ([]*script.Script, error) {
	out := make([]*script.Script, len(scripts))
	for i, s := range scripts {
		var err error
		if out[i], err = parseMember(s); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// parseMember parses one member's source, naming the member on failure.
func parseMember(s Script) (*script.Script, error) {
	parsed, err := script.Parse(s.Source)
	if err != nil {
		return nil, fmt.Errorf("%w: %q: %v", ErrBadScript, s.ID, err)
	}
	return parsed, nil
}

// record is one corpus member's resident state: identity, source, and the
// cached fold contribution.
type record struct {
	id     string
	source string
	weight int
	stats  entropy.ScriptStats
}

// retainVersions is how many published snapshots Publish leaves on disk;
// older ones are pruned. The retained window is what Open's
// recover-to-last-good fallback walks.
const retainVersions = 3

// Registry is a persistent, versioned corpus. All methods are safe for
// concurrent use; Vocab returns immutable snapshots (Apply folds a fresh
// vocabulary and swaps the pointer), so a System built from one version
// keeps serving that version while the registry moves on — the substrate
// of the serve tier's hot-swap.
type Registry struct {
	dir string

	mu      sync.Mutex
	version int64
	vocab   *entropy.Vocab
	numLive int
	path    string // snapshot backing the lazy scripts section ("" once loaded)

	// records are the live members in insertion order, which fixes the
	// fold's floating-point operation order; live holds their ids. The
	// atom table of the live members is vocab.Lines, the last fold's.
	loaded  bool
	records []*record
	live    map[string]bool

	diags []string
}

// Create curates scripts from scratch, builds the registry state in
// memory, and publishes it as the directory's next version (version 1 in
// an empty directory). The directory is created if needed.
func Create(dir string, scripts []Script) (*Registry, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	r := &Registry{
		dir:    dir,
		vocab:  &entropy.Vocab{},
		loaded: true,
		live:   map[string]bool{},
	}
	staged, fresh, err := r.stage(scripts)
	if err != nil {
		return nil, err
	}
	r.appendLocked(staged)
	r.refoldLocked(fresh)
	if _, err := r.publishLocked(); err != nil {
		return nil, err
	}
	return r, nil
}

// Open loads the directory's published corpus: the CURRENT version first,
// then — when that file is missing or damaged — newer-to-older over the
// remaining snapshots until one loads cleanly (the recover-to-last-good
// path; what was skipped is reported by Diagnostics). Only the meta and
// vocab sections are read: per-script state stays on disk until the first
// Apply needs it, so opening a 10⁵-script corpus costs the vocabulary
// decode, not the corpus.
func Open(dir string) (*Registry, error) {
	versions, err := listVersions(dir)
	if err != nil {
		return nil, err
	}
	if len(versions) == 0 {
		return nil, fmt.Errorf("%w in %s", ErrNoCorpus, dir)
	}
	// Candidate order: CURRENT's version first, then the rest descending.
	var candidates []int64
	if cur := readCurrent(dir); cur != 0 {
		candidates = append(candidates, cur)
	} else {
		candidates = append(candidates, 0) // placeholder diag below
	}
	for i := len(versions) - 1; i >= 0; i-- {
		if versions[i] != candidates[0] {
			candidates = append(candidates, versions[i])
		}
	}
	r := &Registry{dir: dir}
	if candidates[0] == 0 {
		candidates = candidates[1:]
		r.diags = append(r.diags, "CURRENT pointer missing or malformed; falling back to newest snapshot")
	}
	var lastErr error
	for _, v := range candidates {
		path := filepath.Join(dir, snapshotName(v))
		meta, vocab, err := loadHeaderFile(path)
		if err != nil {
			lastErr = err
			r.diags = append(r.diags, fmt.Sprintf("%s: %v", snapshotName(v), err))
			continue
		}
		if meta.Version != v {
			lastErr = fmt.Errorf("%w: %s carries version %d", ErrCorrupt, snapshotName(v), meta.Version)
			r.diags = append(r.diags, lastErr.Error())
			continue
		}
		r.version = meta.Version
		r.vocab = vocab
		r.numLive = meta.Scripts
		r.path = path
		return r, nil
	}
	return nil, fmt.Errorf("registry: no loadable snapshot in %s: %w", dir, lastErr)
}

// loadHeaderFile reads a snapshot's warm prefix (meta + vocab).
func loadHeaderFile(path string) (*fileMeta, *entropy.Vocab, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return readHeader(bufio.NewReaderSize(f, 1<<16))
}

// OpenOrCreate opens the registry in dir, or, when dir holds no snapshot
// yet, curates the corpus directory corpusDir (see ReadDir) into it and
// publishes version 1. created reports which happened. The corpus
// directory is read only on creation, so a warm open costs what Open
// costs. With no snapshot and corpusDir empty the error wraps ErrNoCorpus.
func OpenOrCreate(dir, corpusDir string) (reg *Registry, created bool, err error) {
	versions, err := listVersions(dir)
	if err != nil {
		return nil, false, err
	}
	if len(versions) > 0 || corpusDir == "" {
		reg, err = Open(dir)
		return reg, false, err
	}
	members, err := ReadDir(corpusDir)
	if err != nil {
		return nil, false, err
	}
	reg, err = Create(dir, members)
	return reg, err == nil, err
}

// Version is the corpus version this registry currently holds.
func (r *Registry) Version() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.version
}

// Vocab returns the current curated search space. The returned value is an
// immutable snapshot: Apply never mutates a published vocabulary, it folds
// a fresh one, so callers may hold the pointer across reloads.
func (r *Registry) Vocab() *entropy.Vocab {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.vocab
}

// NumScripts is the live corpus membership count.
func (r *Registry) NumScripts() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.numLive
}

// Members returns the live corpus membership in curation (insertion)
// order. It forces a lazy registry to load its script section; callers
// that only need the vocabulary should not call it.
func (r *Registry) Members() ([]Script, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.ensureLoadedLocked(); err != nil {
		return nil, err
	}
	out := make([]Script, len(r.records))
	for i, rec := range r.records {
		out[i] = Script{ID: rec.id, Source: rec.source, Weight: rec.weight}
	}
	return out, nil
}

// Diagnostics lists the recovery decisions Open made (snapshots skipped as
// damaged, a missing CURRENT pointer). Empty on a clean open.
func (r *Registry) Diagnostics() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.diags...)
}

// Apply re-curates incrementally: remove drops live members by id, add
// lemmatizes and appends new members, and the surviving stats re-fold into
// a fresh vocabulary. Only the added scripts are lemmatized — the cost is
// O(adds) lemmatization plus one pass over the members and one cheap fold
// over cached stats, not a from-scratch curation — yet the resulting state
// is byte-identical to Create over the same membership. Validation runs
// before any mutation, so a failed Apply leaves the registry untouched.
// The change is in-memory until Publish.
func (r *Registry) Apply(add, remove []Script) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.ensureLoadedLocked(); err != nil {
		return err
	}
	for _, s := range remove {
		if !r.live[s.ID] {
			return fmt.Errorf("%w: removing %q", ErrUnknownScript, s.ID)
		}
	}
	for _, s := range add {
		if r.live[s.ID] {
			return fmt.Errorf("%w: adding %q", ErrDuplicateScript, s.ID)
		}
	}
	staged, fresh, err := r.stage(add)
	if err != nil {
		return err
	}
	if len(remove) > 0 {
		gone := make(map[string]bool, len(remove))
		for _, s := range remove {
			gone[s.ID] = true
			delete(r.live, s.ID)
		}
		// Filter in place: survivors keep their insertion order.
		kept := r.records[:0]
		for _, rec := range r.records {
			if !gone[rec.id] {
				kept = append(kept, rec)
			}
		}
		clear(r.records[len(kept):])
		r.records = kept
	}
	r.appendLocked(staged)
	r.refoldLocked(fresh)
	return nil
}

// Sync makes the live membership equal to want, as read from a corpus
// directory: members new to want are added, members missing from it are
// removed, and members whose source or weight changed are replaced. Any
// change is applied incrementally and published as one new version;
// nothing changed publishes nothing. It returns how many members were
// added and removed (a replaced member counts in both).
func (r *Registry) Sync(want []Script) (added, removed int, err error) {
	have, err := r.Members()
	if err != nil {
		return 0, 0, err
	}
	haveByID := make(map[string]Script, len(have))
	for _, m := range have {
		haveByID[m.ID] = m
	}
	var add, remove []Script
	for _, m := range want {
		prev, ok := haveByID[m.ID]
		if !ok {
			add = append(add, m)
		} else if prev.Source != m.Source || prev.Weight != foldWeight(m.Weight) {
			remove = append(remove, prev)
			add = append(add, m)
		}
		delete(haveByID, m.ID)
	}
	// Anything still in haveByID is absent from want; walk have for a
	// deterministic order.
	for _, m := range have {
		if _, gone := haveByID[m.ID]; gone {
			remove = append(remove, m)
		}
	}
	if len(add) == 0 && len(remove) == 0 {
		return 0, 0, nil
	}
	// Replaced members are in both lists, and Apply checks adds against
	// the membership before its removals, so remove first, then add.
	if err := r.Apply(nil, remove); err != nil {
		return 0, 0, err
	}
	if err := r.Apply(add, nil); err != nil {
		return 0, 0, err
	}
	if _, err := r.Publish(); err != nil {
		return 0, 0, err
	}
	return len(add), len(remove), nil
}

// foldWeight is the weight a member folds with: non-positive weights count
// as 1, matching core.CurateWeighted.
func foldWeight(w int) int {
	if w <= 0 {
		return 1
	}
	return w
}

// stage parses and lemmatizes scripts into records without touching the
// registry, also rejecting duplicate ids within the batch itself. fresh
// holds the staged atoms the current vocabulary lacks.
func (r *Registry) stage(scripts []Script) (staged []*record, fresh map[string]dag.LineInfo, err error) {
	seen := map[string]bool{}
	fresh = map[string]dag.LineInfo{}
	for _, s := range scripts {
		if s.ID == "" {
			return nil, nil, fmt.Errorf("%w: empty id", ErrBadScript)
		}
		if seen[s.ID] {
			return nil, nil, fmt.Errorf("%w: %q appears twice in one batch", ErrDuplicateScript, s.ID)
		}
		seen[s.ID] = true
		parsed, err := parseMember(s)
		if err != nil {
			return nil, nil, err
		}
		g := dag.Build(parsed)
		w := foldWeight(s.Weight)
		staged = append(staged, &record{id: s.ID, source: s.Source, weight: w, stats: entropy.StatsOf(g, w)})
		for _, li := range g.Lines {
			if _, ok := r.vocab.Lines[li.Key]; !ok {
				fresh[li.Key] = li
			}
		}
	}
	return staged, fresh, nil
}

// appendLocked adds staged records to the live membership.
func (r *Registry) appendLocked(staged []*record) {
	for _, rec := range staged {
		r.live[rec.id] = true
		r.records = append(r.records, rec)
	}
}

// refoldLocked rebuilds the vocabulary from the live records, in insertion
// order — the identical operation sequence a from-scratch curation of the
// same scripts would run. An atom comes from the previous vocabulary, which
// is only read, or from fresh; the new vocabulary's Lines then hold
// exactly the live members' atoms.
func (r *Registry) refoldLocked(fresh map[string]dag.LineInfo) {
	stats := make([]entropy.ScriptStats, len(r.records))
	for i, rec := range r.records {
		stats[i] = rec.stats
	}
	prev := r.vocab.Lines
	r.vocab = entropy.BuildVocabFromStats(stats, func(key string) dag.LineInfo {
		if li, ok := prev[key]; ok {
			return li
		}
		return fresh[key]
	})
	r.numLive = len(stats)
}

// ensureLoadedLocked materializes the scripts section on first need. The
// section's CRC guards its bytes; on top of that the cached stats are
// re-folded and required to reproduce the vocab section exactly, so a
// file whose sections individually pass CRC but disagree with each other
// (the section-swap corruption) is rejected instead of silently loaded.
func (r *Registry) ensureLoadedLocked() error {
	if r.loaded {
		return nil
	}
	scripts, _, err := readScriptsAt(r.path)
	if err != nil {
		return err
	}
	atoms := r.vocab.Lines
	atomKeys := sortedAtomKeys(r.vocab)
	unigramMemo := make(map[string][]string, len(atomKeys))
	for _, k := range atomKeys {
		unigramMemo[k] = dag.UnigramAtoms(atoms[k].Stmt)
	}
	records := make([]*record, 0, len(scripts))
	live := make(map[string]bool, len(scripts))
	for _, fs := range scripts {
		if fs.ID == "" {
			return fmt.Errorf("%w: scripts section entry with empty id", ErrCorrupt)
		}
		if live[fs.ID] {
			return fmt.Errorf("%w: scripts section repeats id %q", ErrCorrupt, fs.ID)
		}
		lineKeys := make([]string, len(fs.Lines))
		lineInfos := make([]dag.LineInfo, len(fs.Lines))
		var unigrams []string
		for i, idx := range fs.Lines {
			if idx < 0 || idx >= len(atomKeys) {
				return fmt.Errorf("%w: script %q references atom %d of %d", ErrCorrupt, fs.ID, idx, len(atomKeys))
			}
			k := atomKeys[idx]
			lineKeys[i] = k
			lineInfos[i] = atoms[k]
			unigrams = append(unigrams, unigramMemo[k]...)
		}
		w := foldWeight(fs.Weight)
		rec := &record{
			id:     fs.ID,
			source: fs.Source,
			weight: w,
			stats: entropy.ScriptStats{
				Weight:      w,
				LineKeys:    lineKeys,
				EdgeKeys:    dag.EdgeKeysOf(lineInfos),
				UnigramKeys: unigrams,
			},
		}
		live[rec.id] = true
		records = append(records, rec)
	}
	// Cross-section consistency: the stats must fold back to the very
	// vocabulary the file carries.
	stats := make([]entropy.ScriptStats, len(records))
	for i, rec := range records {
		stats[i] = rec.stats
	}
	refolded := entropy.BuildVocabFromStats(stats, func(key string) dag.LineInfo { return atoms[key] })
	same, err := vocabsEqual(refolded, r.vocab)
	if err != nil {
		return err
	}
	if !same {
		return fmt.Errorf("%w: scripts section does not fold to the stored vocabulary (mixed snapshot versions?)", ErrCorrupt)
	}
	r.records, r.live = records, live
	r.loaded = true
	r.path = ""
	return nil
}

// vocabsEqual compares two vocabularies via their canonical encoding —
// bitwise on every count and float.
func vocabsEqual(a, b *entropy.Vocab) (bool, error) {
	var ab, bb bytes.Buffer
	if err := a.Encode(&ab); err != nil {
		return false, err
	}
	if err := b.Encode(&bb); err != nil {
		return false, err
	}
	return bytes.Equal(ab.Bytes(), bb.Bytes()), nil
}

// Publish writes the registry's current state as the directory's next
// version (atomic temp + fsync + rename), swings CURRENT to it, prunes
// snapshots beyond the retention window, and returns the new version.
// A snapshot carries exactly the live membership, in insertion order.
func (r *Registry) Publish() (int64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.ensureLoadedLocked(); err != nil {
		return 0, err
	}
	return r.publishLocked()
}

func (r *Registry) publishLocked() (int64, error) {
	versions, err := listVersions(r.dir)
	if err != nil {
		return 0, err
	}
	next := int64(1)
	if n := len(versions); n > 0 {
		next = versions[n-1] + 1
	}
	name := snapshotName(next)
	if err := atomicfile.Write(r.dir, name, func(w io.Writer) error {
		return encodeSnapshot(w, next, r.vocab, r.records)
	}); err != nil {
		return 0, fmt.Errorf("registry: publishing %s: %w", name, err)
	}
	if err := atomicfile.Write(r.dir, currentFile, func(w io.Writer) error {
		_, werr := io.WriteString(w, name+"\n")
		return werr
	}); err != nil {
		return 0, fmt.Errorf("registry: updating %s: %w", currentFile, err)
	}
	r.version = next
	// Prune beyond the retention window; failures are non-fatal (the next
	// publish retries) and stale files are harmless to readers.
	versions = append(versions, next)
	for len(versions) > retainVersions {
		os.Remove(filepath.Join(r.dir, snapshotName(versions[0])))
		versions = versions[1:]
	}
	return next, nil
}

// StateBytes serializes the full corpus state — vocabulary, atom table,
// per-script metadata, insertion order — with the version pinned to zero,
// so two registries hold byte-identical state exactly when their corpora
// were curated identically. It exists for the differential equivalence
// tests; Publish is the persistence path.
func (r *Registry) StateBytes() ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.ensureLoadedLocked(); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := encodeSnapshot(&buf, 0, r.vocab, r.records); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
