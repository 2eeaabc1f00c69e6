// Package store is the durable job store behind a persistent lsserved:
// a per-data-dir write-ahead log plus periodic snapshot that records every
// job's submission, state transitions, terminal outcome, and output hash,
// so a server restarted against the same directory can replay its full job
// history — completed jobs stay retrievable with their original results,
// and jobs that never finished are surfaced for deterministic re-enqueue
// or interruption by the serving layer.
//
// Layout inside the data dir:
//
//	snapshot.json — the full record set as of the last compaction
//	wal.log       — one CRC-guarded JSON entry per line since the snapshot
//
// Durability model: WAL appends are unbuffered os.File writes, so every
// acknowledged append survives a SIGKILL of the process (the bytes are in
// the kernel page cache); surviving a whole-machine crash additionally
// needs an fsync policy the serving tier does not require today. The
// snapshot is published with atomicfile.Write (temp file, fsync, rename,
// directory fsync), and replay is
// idempotent, so a crash between snapshot and WAL truncation converges to
// the same state. A torn tail — the half-written line a SIGKILL can leave —
// is detected by its checksum (or missing newline) and truncated away on
// Open; everything before it is recovered.
package store

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"lucidscript/internal/atomicfile"
)

// The job states a Record can hold. Queued and Running are the two
// non-terminal states a crash can strand a job in; everything else is
// terminal. Interrupted is the store-specific terminal state: the job was
// alive when the server stopped and could not be deterministically
// re-enqueued, so a client must resubmit it (its idempotency key is
// released for exactly that purpose).
const (
	StateQueued      = "queued"
	StateRunning     = "running"
	StateDone        = "done"
	StateFailed      = "failed"
	StateCanceled    = "canceled"
	StateInterrupted = "interrupted"
)

// Terminal reports whether state is a resting state a restart preserves
// as-is (as opposed to queued/running, which a restart must resolve).
func Terminal(state string) bool {
	switch state {
	case StateQueued, StateRunning:
		return false
	}
	return true
}

// ErrClosed reports an append on a store that has been closed. Late
// callers (retention timers firing after shutdown) treat it as a no-op.
var ErrClosed = errors.New("store: closed")

// Record is one job's durable state. Result is the serving layer's wire
// JSON, kept opaque here so the store does not depend on the HTTP types.
type Record struct {
	// ID is the serving layer's job id (e.g. "j-00000042"); Seq is its
	// monotonic sequence number, preserved across restarts and evictions
	// so ids are never reused.
	ID  string `json:"id"`
	Seq int64  `json:"seq"`
	// Dataset and Script are the submission itself — enough to re-enqueue
	// a queued job after a restart.
	Dataset string `json:"dataset"`
	Script  string `json:"script"`
	// IdempotencyKey is the client's dedup key, empty when none was sent.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
	// CorpusVersion is the registry snapshot version the job was admitted
	// against, 0 for unversioned corpora. Absent in logs written before
	// corpus versioning existed, which decodes as 0 — the same meaning.
	CorpusVersion int64 `json:"corpus_version,omitempty"`
	// State is one of the State* constants; Code and Error qualify the
	// failed/canceled/interrupted states.
	State string `json:"state"`
	Code  string `json:"code,omitempty"`
	Error string `json:"error,omitempty"`
	// Result is the terminal wire result (including the output hash),
	// opaque to the store.
	Result json.RawMessage `json:"result,omitempty"`
	// SubmittedAt and FinishedAt are server-clock timestamps.
	SubmittedAt time.Time `json:"submitted_at"`
	FinishedAt  time.Time `json:"finished_at,omitempty"`
}

// clone copies a record so callers can't alias the store's own state.
func (r *Record) clone() *Record {
	c := *r
	if r.Result != nil {
		c.Result = append(json.RawMessage(nil), r.Result...)
	}
	return &c
}

// entry is one WAL line. Op selects which fields matter.
type entry struct {
	// Op is "submit", "running", "finish", or "evict".
	Op string `json:"op"`
	// Record rides on submit entries.
	Record *Record `json:"record,omitempty"`
	// ID targets running/finish/evict entries.
	ID string `json:"id,omitempty"`
	// The finish payload.
	State      string          `json:"state,omitempty"`
	Code       string          `json:"code,omitempty"`
	Error      string          `json:"error,omitempty"`
	Result     json.RawMessage `json:"result,omitempty"`
	FinishedAt time.Time       `json:"finished_at,omitempty"`
}

// snapshot is the compacted on-disk form: every live record plus the
// high-water sequence number (which must survive even when all records
// holding it have been evicted).
type snapshot struct {
	MaxSeq  int64     `json:"max_seq"`
	Records []*Record `json:"records"`
}

// Options tunes a Store. The zero value is serviceable.
type Options struct {
	// SnapshotEvery is how many WAL appends accumulate before an automatic
	// compaction folds them into the snapshot and truncates the log; ≤ 0
	// resolves to 512.
	SnapshotEvery int
}

// Lag reports how far the WAL has run ahead of the snapshot — the
// recovery debt a restart would replay.
type Lag struct {
	// Entries and Bytes count WAL appends since the last compaction.
	Entries int64 `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// Compactions counts snapshot rewrites over the store's life (this
	// process only).
	Compactions int64 `json:"compactions"`
}

// Store is the durable job store for one data directory. All methods are
// safe for concurrent use.
type Store struct {
	dir           string
	snapshotEvery int

	mu          sync.Mutex
	wal         *os.File
	recs        map[string]*Record
	maxSeq      int64
	lagEntries  int64
	lagBytes    int64
	compactions int64
	closed      bool
}

const (
	snapshotFile = "snapshot.json"
	walFile      = "wal.log"
)

// Open loads (or creates) the store rooted at dir: the snapshot is read,
// the WAL replayed on top of it — truncating a torn tail if the last
// append was cut mid-write — and the log left open for appends.
func Open(dir string, opts Options) (*Store, error) {
	if opts.SnapshotEvery <= 0 {
		opts.SnapshotEvery = 512
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	s := &Store{
		dir:           dir,
		snapshotEvery: opts.SnapshotEvery,
		recs:          map[string]*Record{},
	}
	if err := s.loadSnapshot(); err != nil {
		return nil, err
	}
	if err := s.replayWAL(); err != nil {
		return nil, err
	}
	wal, err := os.OpenFile(filepath.Join(dir, walFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening WAL: %w", err)
	}
	s.wal = wal
	return s, nil
}

// loadSnapshot reads snapshot.json when present.
func (s *Store) loadSnapshot() error {
	data, err := os.ReadFile(filepath.Join(s.dir, snapshotFile))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: reading snapshot: %w", err)
	}
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("store: corrupt snapshot (refusing to guess): %w", err)
	}
	for _, r := range snap.Records {
		s.recs[r.ID] = r
		if r.Seq > s.maxSeq {
			s.maxSeq = r.Seq
		}
	}
	if snap.MaxSeq > s.maxSeq {
		s.maxSeq = snap.MaxSeq
	}
	return nil
}

// replayWAL applies every complete, checksum-valid line of wal.log and
// truncates the file at the first damaged or torn one. Damage is expected
// only at the tail (a SIGKILL mid-append); anything after it is
// unreachable state the store deliberately drops, logging nothing —
// recovery must be deterministic, not best-effort-parse-the-garbage.
func (s *Store) replayWAL() error {
	path := filepath.Join(s.dir, walFile)
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: opening WAL for replay: %w", err)
	}
	defer f.Close()

	var good int64 // byte offset of the end of the last valid line
	rd := bufio.NewReaderSize(f, 1<<16)
	var offset int64
	for {
		line, err := rd.ReadString('\n')
		if err == io.EOF {
			// A line without a trailing newline is a torn write by
			// definition — the append never completed.
			break
		}
		if err != nil {
			return fmt.Errorf("store: reading WAL: %w", err)
		}
		offset += int64(len(line))
		e, ok := decodeLine(line)
		if !ok {
			break
		}
		s.apply(e)
		good = offset
		s.lagEntries++
	}
	s.lagBytes = good
	if info, err := os.Stat(path); err == nil && info.Size() > good {
		if err := os.Truncate(path, good); err != nil {
			return fmt.Errorf("store: truncating torn WAL tail: %w", err)
		}
	}
	return nil
}

// apply folds one entry into the record map. Every op is idempotent and
// tolerant of missing targets, because a crash between snapshot and WAL
// truncation replays entries the snapshot already contains.
func (s *Store) apply(e *entry) {
	switch e.Op {
	case "submit":
		if e.Record == nil || e.Record.ID == "" {
			return
		}
		r := e.Record.clone()
		if r.State == "" {
			r.State = StateQueued
		}
		s.recs[r.ID] = r
		if r.Seq > s.maxSeq {
			s.maxSeq = r.Seq
		}
	case "running":
		if r := s.recs[e.ID]; r != nil && r.State == StateQueued {
			r.State = StateRunning
		}
	case "finish":
		r := s.recs[e.ID]
		if r == nil {
			return
		}
		r.State, r.Code, r.Error = e.State, e.Code, e.Error
		r.Result = e.Result
		r.FinishedAt = e.FinishedAt
	case "evict":
		delete(s.recs, e.ID)
	}
}

// Records returns every live record, sorted by sequence number, as
// independent copies.
func (s *Store) Records() []*Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Record, 0, len(s.recs))
	for _, r := range s.recs {
		out = append(out, r.clone())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Get returns a copy of one record, or nil.
func (s *Store) Get(id string) *Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r := s.recs[id]; r != nil {
		return r.clone()
	}
	return nil
}

// Len is the number of live (non-evicted) records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}

// MaxSeq is the highest sequence number the store has ever recorded —
// the restart resumes its id counter from here so ids never collide with
// evicted history.
func (s *Store) MaxSeq() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.maxSeq
}

// Lag snapshots the WAL-vs-snapshot debt for health reporting.
func (s *Store) Lag() Lag {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Lag{Entries: s.lagEntries, Bytes: s.lagBytes, Compactions: s.compactions}
}

// AppendSubmit records a new job. The record's State defaults to queued.
func (s *Store) AppendSubmit(r *Record) error {
	rc := r.clone()
	if rc.State == "" {
		rc.State = StateQueued
	}
	return s.append(&entry{Op: "submit", Record: rc})
}

// AppendRunning records a queued job's pickup by a worker.
func (s *Store) AppendRunning(id string) error {
	return s.append(&entry{Op: "running", ID: id})
}

// AppendFinish records a job's terminal outcome.
func (s *Store) AppendFinish(id, state, code, errMsg string, result json.RawMessage, finishedAt time.Time) error {
	return s.append(&entry{
		Op: "finish", ID: id,
		State: state, Code: code, Error: errMsg,
		Result: result, FinishedAt: finishedAt,
	})
}

// AppendEvict records a retention eviction: the job's record is removed
// from the store entirely (its sequence number stays burned via MaxSeq).
func (s *Store) AppendEvict(id string) error {
	return s.append(&entry{Op: "evict", ID: id})
}

// append writes one WAL line and applies it to the in-memory state,
// compacting when the log has grown past the snapshot cadence.
func (s *Store) append(e *entry) error {
	line, err := encodeLine(e)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, err := s.wal.Write(line); err != nil {
		return fmt.Errorf("store: WAL append: %w", err)
	}
	s.apply(e)
	s.lagEntries++
	s.lagBytes += int64(len(line))
	if s.lagEntries >= int64(s.snapshotEvery) {
		if err := s.compactLocked(); err != nil {
			return err
		}
	}
	return nil
}

// Compact folds the WAL into a fresh snapshot and truncates the log.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.compactLocked()
}

// compactLocked publishes snapshot.json atomically (atomicfile.Write:
// fsynced before the rename, directory fsynced after it), then truncates
// the WAL. Replay idempotence covers the crash window between the two
// steps.
func (s *Store) compactLocked() error {
	snap := snapshot{MaxSeq: s.maxSeq, Records: make([]*Record, 0, len(s.recs))}
	for _, r := range s.recs {
		snap.Records = append(snap.Records, r)
	}
	sort.Slice(snap.Records, func(i, j int) bool { return snap.Records[i].Seq < snap.Records[j].Seq })
	data, err := json.Marshal(&snap)
	if err != nil {
		return fmt.Errorf("store: encoding snapshot: %w", err)
	}
	if err := atomicfile.Write(s.dir, snapshotFile, func(w io.Writer) error {
		_, err := w.Write(append(data, '\n'))
		return err
	}); err != nil {
		return fmt.Errorf("store: publishing snapshot: %w", err)
	}
	if err := s.wal.Truncate(0); err != nil {
		return fmt.Errorf("store: truncating WAL: %w", err)
	}
	if _, err := s.wal.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("store: rewinding WAL: %w", err)
	}
	s.lagEntries, s.lagBytes = 0, 0
	s.compactions++
	return nil
}

// Close compacts one last time and releases the WAL. Appends after Close
// return ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	err := s.compactLocked()
	s.closed = true
	if cerr := s.wal.Close(); err == nil {
		err = cerr
	}
	return err
}

// encodeLine renders one WAL line: "crc32(payload-hex) payload\n". JSON
// never contains raw newlines, so the line framing is unambiguous, and the
// checksum turns any torn or bit-damaged tail into a clean truncation
// point instead of silently corrupt state.
func encodeLine(e *entry) ([]byte, error) {
	payload, err := json.Marshal(e)
	if err != nil {
		return nil, fmt.Errorf("store: encoding WAL entry: %w", err)
	}
	sum := crc32.ChecksumIEEE(payload)
	line := make([]byte, 0, 10+len(payload))
	line = append(line, fmt.Sprintf("%08x ", sum)...)
	line = append(line, payload...)
	line = append(line, '\n')
	return line, nil
}

// decodeLine parses one WAL line, reporting ok=false on any damage.
func decodeLine(line string) (*entry, bool) {
	line = strings.TrimSuffix(line, "\n")
	sumHex, payload, found := strings.Cut(line, " ")
	if !found || len(sumHex) != 8 {
		return nil, false
	}
	want, err := strconv.ParseUint(sumHex, 16, 32)
	if err != nil {
		return nil, false
	}
	if crc32.ChecksumIEEE([]byte(payload)) != uint32(want) {
		return nil, false
	}
	var e entry
	if err := json.Unmarshal([]byte(payload), &e); err != nil {
		return nil, false
	}
	return &e, true
}
