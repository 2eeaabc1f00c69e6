// On-disk corpus snapshot format.
//
// A snapshot file ("corpus-%08d.reg") is a magic line followed by three
// CRC-guarded sections, each framed as
//
//	<name> <payload-length> <crc32-hex>\n
//	<payload bytes>\n
//
// in fixed order:
//
//	meta    — JSON: format version, corpus version, script/atom counts
//	vocab   — the folded search space (internal/entropy's persisted form)
//	scripts — JSON: per-script metadata (id, weight, source, atom indices)
//
// The scripts section is deliberately last: a warm load reads meta and
// vocab and stops, so boot never pays for the (much larger) per-script
// state it only needs if membership later changes (Registry.Apply).
//
// A "CURRENT" pointer file names the published snapshot. Both the snapshot
// and the pointer are published with atomicfile.Write (temp + fsync +
// rename), so a crash mid-publish leaves the previous version intact and
// readable.
package registry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"lucidscript/internal/entropy"
)

const (
	// magic is the snapshot file's first line: format name + major version.
	magic = "lsreg 1"
	// formatVersion is the snapshot layout version carried in the meta
	// section; a reader rejects files from a future layout.
	formatVersion = 1
	// currentFile names the published-version pointer in a registry dir.
	currentFile = "CURRENT"
	// snapshotPattern matches the versioned snapshot files.
	snapshotPattern = "corpus-*.reg"
	// maxSectionBytes caps a section header's declared payload length, so a
	// corrupted (or adversarial) length field cannot provoke a huge
	// allocation before the CRC check has a chance to reject the payload.
	maxSectionBytes = 1 << 30
)

// The section names, in file order.
const (
	sectionMeta    = "meta"
	sectionVocab   = "vocab"
	sectionScripts = "scripts"
)

// fileMeta is the meta section's JSON payload.
type fileMeta struct {
	Format  int   `json:"format"`
	Version int64 `json:"version"`
	Scripts int   `json:"scripts"`
	Atoms   int   `json:"atoms"`
}

// fileScript is one scripts-section entry. Lines holds indices into the
// sorted atom-key list of the vocab section (the atom table), so the large
// per-script state never repeats atom sources.
type fileScript struct {
	ID     string `json:"id"`
	Weight int    `json:"weight"`
	Source string `json:"source"`
	Lines  []int  `json:"lines"`
}

// snapshotName renders a version's file name.
func snapshotName(version int64) string {
	return fmt.Sprintf("corpus-%08d.reg", version)
}

// snapshotVersion parses a snapshot file name back to its version, ok=false
// for files that merely match the glob shape.
func snapshotVersion(name string) (int64, bool) {
	var v int64
	if _, err := fmt.Sscanf(name, "corpus-%d.reg", &v); err != nil || v <= 0 {
		return 0, false
	}
	if name != snapshotName(v) {
		return 0, false
	}
	return v, true
}

// sortedAtomKeys is the atom table order: the vocab's line-atom keys,
// sorted. Deterministic, and reconstructible from the vocab section alone.
func sortedAtomKeys(v *entropy.Vocab) []string {
	keys := make([]string, 0, len(v.Lines))
	for k := range v.Lines {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// writeSection frames one section: header line, payload, separator.
func writeSection(w io.Writer, name string, payload []byte) error {
	if _, err := fmt.Fprintf(w, "%s %d %08x\n", name, len(payload), crc32.ChecksumIEEE(payload)); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	_, err := io.WriteString(w, "\n")
	return err
}

// readSection reads and verifies the named section. Every deviation —
// wrong name, malformed header, truncated payload, CRC mismatch, missing
// separator — is ErrCorrupt; the caller falls back to an older version.
func readSection(br *bufio.Reader, want string) ([]byte, error) {
	header, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("%w: reading %s header: %v", ErrCorrupt, want, err)
	}
	var name string
	var length int64
	var sum uint32
	if _, err := fmt.Sscanf(strings.TrimSuffix(header, "\n"), "%s %d %x", &name, &length, &sum); err != nil {
		return nil, fmt.Errorf("%w: malformed %s header %q", ErrCorrupt, want, strings.TrimSpace(header))
	}
	if name != want {
		return nil, fmt.Errorf("%w: section %q where %q was expected", ErrCorrupt, name, want)
	}
	if length < 0 || length > maxSectionBytes {
		return nil, fmt.Errorf("%w: %s section claims %d bytes", ErrCorrupt, want, length)
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, fmt.Errorf("%w: %s section truncated: %v", ErrCorrupt, want, err)
	}
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return nil, fmt.Errorf("%w: %s section checksum %08x, want %08x", ErrCorrupt, want, got, sum)
	}
	if sep, err := br.ReadByte(); err != nil || sep != '\n' {
		return nil, fmt.Errorf("%w: %s section missing separator", ErrCorrupt, want)
	}
	return payload, nil
}

// encodeSnapshot writes a complete snapshot: magic plus the three sections.
// The encoding is deterministic for a given corpus state and version —
// JSON maps marshal with sorted keys and the scripts array preserves
// insertion order — which is what lets the differential tests compare
// registry states byte-for-byte.
func encodeSnapshot(w io.Writer, version int64, vocab *entropy.Vocab, recs []*record) error {
	meta, err := json.Marshal(fileMeta{
		Format:  formatVersion,
		Version: version,
		Scripts: len(recs),
		Atoms:   len(vocab.Lines),
	})
	if err != nil {
		return err
	}
	var vocabBuf bytes.Buffer
	if err := vocab.Encode(&vocabBuf); err != nil {
		return err
	}
	atomIdx := make(map[string]int, len(vocab.Lines))
	for i, k := range sortedAtomKeys(vocab) {
		atomIdx[k] = i
	}
	scripts := make([]fileScript, len(recs))
	for i, rec := range recs {
		fs := fileScript{ID: rec.id, Weight: rec.weight, Source: rec.source, Lines: make([]int, len(rec.stats.LineKeys))}
		for j, lk := range rec.stats.LineKeys {
			idx, ok := atomIdx[lk]
			if !ok {
				return fmt.Errorf("registry: script %q uses atom %q missing from the vocabulary", rec.id, lk)
			}
			fs.Lines[j] = idx
		}
		scripts[i] = fs
	}
	scriptsPayload, err := json.Marshal(scripts)
	if err != nil {
		return err
	}
	if _, err := io.WriteString(w, magic+"\n"); err != nil {
		return err
	}
	for _, s := range []struct {
		name    string
		payload []byte
	}{
		{sectionMeta, meta},
		{sectionVocab, vocabBuf.Bytes()},
		{sectionScripts, scriptsPayload},
	} {
		if err := writeSection(w, s.name, s.payload); err != nil {
			return err
		}
	}
	return nil
}

// readHeader reads the magic line plus the meta and vocab sections — the
// warm-load prefix. The scripts section is untouched (and its bytes never
// read), which is what makes a warm Open cheap at 10⁵ scripts.
func readHeader(br *bufio.Reader) (*fileMeta, *entropy.Vocab, error) {
	line, err := br.ReadString('\n')
	if err != nil || strings.TrimSuffix(line, "\n") != magic {
		return nil, nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, strings.TrimSpace(line))
	}
	metaPayload, err := readSection(br, sectionMeta)
	if err != nil {
		return nil, nil, err
	}
	var meta fileMeta
	if err := json.Unmarshal(metaPayload, &meta); err != nil {
		return nil, nil, fmt.Errorf("%w: meta section: %v", ErrCorrupt, err)
	}
	if meta.Format != formatVersion {
		return nil, nil, fmt.Errorf("registry: unsupported snapshot format %d (this build reads %d)", meta.Format, formatVersion)
	}
	if meta.Version <= 0 || meta.Scripts < 0 || meta.Atoms < 0 {
		return nil, nil, fmt.Errorf("%w: meta section out of range: %+v", ErrCorrupt, meta)
	}
	vocabPayload, err := readSection(br, sectionVocab)
	if err != nil {
		return nil, nil, err
	}
	vocab, err := entropy.DecodeVocab(bytes.NewReader(vocabPayload))
	if err != nil {
		return nil, nil, fmt.Errorf("%w: vocab section: %v", ErrCorrupt, err)
	}
	if len(vocab.Lines) != meta.Atoms {
		return nil, nil, fmt.Errorf("%w: vocab holds %d atoms, meta claims %d", ErrCorrupt, len(vocab.Lines), meta.Atoms)
	}
	return &meta, vocab, nil
}

// readScriptsAt re-opens the snapshot and returns the scripts section,
// skipping (but CRC-checking nothing of) the already-validated prefix.
func readScriptsAt(path string) ([]fileScript, *fileMeta, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("registry: reopening snapshot: %w", err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	meta, _, err := readHeader(br)
	if err != nil {
		return nil, nil, err
	}
	payload, err := readSection(br, sectionScripts)
	if err != nil {
		return nil, nil, err
	}
	var scripts []fileScript
	if err := json.Unmarshal(payload, &scripts); err != nil {
		return nil, nil, fmt.Errorf("%w: scripts section: %v", ErrCorrupt, err)
	}
	if len(scripts) != meta.Scripts {
		return nil, nil, fmt.Errorf("%w: scripts section holds %d entries, meta claims %d", ErrCorrupt, len(scripts), meta.Scripts)
	}
	return scripts, meta, nil
}

// listVersions returns the snapshot versions present in dir, ascending.
func listVersions(dir string) ([]int64, error) {
	matches, err := filepath.Glob(filepath.Join(dir, snapshotPattern))
	if err != nil {
		return nil, err
	}
	var versions []int64
	for _, m := range matches {
		if v, ok := snapshotVersion(filepath.Base(m)); ok {
			versions = append(versions, v)
		}
	}
	sort.Slice(versions, func(i, j int) bool { return versions[i] < versions[j] })
	return versions, nil
}

// readCurrent returns the version the CURRENT pointer names, 0 when the
// pointer is absent or does not parse (the caller then scans versions).
func readCurrent(dir string) int64 {
	b, err := os.ReadFile(filepath.Join(dir, currentFile))
	if err != nil {
		return 0
	}
	v, ok := snapshotVersion(strings.TrimSpace(string(b)))
	if !ok {
		return 0
	}
	return v
}
