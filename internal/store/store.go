// Package store implements rescqd's durability layer: an append-only,
// crash-safe on-disk job + result log (a write-ahead log with snapshot
// compaction) that lets the daemon survive a restart without dropping
// queued jobs or re-burning completed simulation work.
//
// # Log format
//
// Every file the store writes is binary: an 8-byte magic+version header,
// then length-prefixed frames — uvarint payload length, the payload (kind
// byte, flags byte, length-prefixed fields), and a CRC32 of the payload.
// Length+CRC framing makes torn tails and partial appends detectable by
// construction. Job and state records are flate-compressed when it pays;
// result records never are. A result record's payload is what the service
// hands the store: rescqd writes a typed result (internal/resultcodec, a
// fixed-field varint encoding led by a tag byte that no JSON document
// starts with), which is under a quarter the size of its JSON and needs no
// compression. Logs written before that hold JSON result payloads in
// flate-compressed frames; replay still inflates them, and compaction
// copies them as they are.
//
// Files written before the binary format existed are headerless
// newline-delimited JSON records:
//
//	{"type":"job","id":"job-000001","kind":"sweep","created":...,"specs":[...]}
//	{"type":"result","job":"job-000001","index":0,"key":"<rescq.CacheKey>","result":{...}}
//	{"type":"done","job":"job-000001","state":"done"}
//
// Replay sniffs each file's format from its first bytes, so such a
// JSON-era log or snapshot still reads back, and the first Open migrates
// it to binary (its result payloads stay JSON). The store never writes
// JSON; Dump prints any file as JSON lines for debugging, given a function
// that turns result payloads into JSON (see cmd/rescq-walcat).
//
// The store is deliberately ignorant of the payload shapes: specs and
// results travel as opaque bytes, so the service layer owns the schema
// and the store owns durability. Result records carry the canonical
// rescq.CacheKey of their configuration, which is what lets the daemon
// re-seed its result cache on replay and coalesce identical work across
// restarts.
//
// # Crash safety
//
// The store is single-writer: Open takes a non-blocking exclusive flock
// on the log, so a second process on the same directory fails fast with
// ErrLocked instead of interleaving writes; the kernel releases the lock
// on any process death. Every record is written with a single O_APPEND
// Write call of one complete frame or line, so a crash (SIGKILL included)
// can only ever truncate the final record; a short or failed write is
// truncated back off the log immediately so a recovered disk appends onto
// a clean tail, never onto torn garbage.
// Replay tolerates exactly the crash signature: a trailing partial or
// corrupt record is counted and discarded, every complete record before
// it is recovered. A record that fails to decode mid-log (torn by an
// external editor, not a crash) ends replay at that point rather than
// guessing.
//
// # Compaction
//
// The in-memory index mirrors the on-disk state without holding it: for
// every live job it keeps where the job record and each result record sit
// on disk (file, offset, length) and the job's terminal state, never the
// payloads. Compact writes the live state into a snapshot file by copying
// those frames verbatim, in coalesced reads from the current snapshot and
// log, so its cost is a byte copy rather than a re-encode. Only records
// compaction makes up itself are encoded afresh — done markers, state
// blobs, stub job records for orphan results — plus JSON-era frames,
// which is how an old JSON log migrates forward on its first Open. The
// snapshot is fsynced and atomically renamed over
// the previous one, then the log is truncated in place, so replay cost is
// bounded by live state: Open reads the snapshot and the log delta, and
// the log holds only records appended since the last compaction.
// Open compacts automatically when the replayed state carries enough
// garbage to matter (or a file is JSON-era), and AppendResult,
// AppendDone and PutState compact inline, under the store lock, once the
// log (records appended since the last compaction, plus any replayed at
// Open) holds at least a threshold and at least as many records as the
// snapshot, or once the terminal jobs pass twice the retention bound. A
// store that keeps growing thus rewrites its snapshot at doubling sizes:
// compaction writes and fsyncs O(n) bytes over n appends, and the log
// stays about as large as the snapshot or the threshold, whichever is
// larger (AppendJob never compacts, so job records can overshoot briefly).
package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
	"unicode"

	"repro/internal/fault"
)

// Record types, the "type" field of every JSON-era log line (binary frames
// carry the equivalent kind byte).
const (
	recJob    = "job"
	recResult = "result"
	recDone   = "done"
	recState  = "state"
)

// Failpoints on the WAL's write paths (see internal/fault). An injected
// "disk full" here is how the chaos suite proves the daemon degrades to
// lossy serving instead of 5xx-ing submissions; an injected "short"
// message additionally simulates a partially-completed write so the
// torn-tail rollback is exercised end to end.
const (
	// FaultWrite fires in every record append (and in Probe, so a probe
	// sees the same simulated disk the appends do).
	FaultWrite = "wal.write"
	// FaultSync fires in Sync, the OS-crash checkpoint on graceful drain.
	FaultSync = "wal.sync"
)

// JobRecord persists one submitted job: its identity and its fully
// validated run specifications (opaque to the store). Tenant is the
// owning tenant for scheduler accounting; "" — every record written
// before tenancy existed, and all default-tenant traffic since — replays
// as the default tenant, so old logs need no migration.
type JobRecord struct {
	Type    string          `json:"type"` // filled by the store
	ID      string          `json:"id"`
	Kind    string          `json:"kind"`
	Created time.Time       `json:"created"`
	Specs   json.RawMessage `json:"specs"`
	Tenant  string          `json:"tenant,omitempty"`
}

// ResultRecord persists one completed run configuration of a job. Key is
// the configuration's canonical rescq.CacheKey ("" for uncacheable
// configurations); Result is the service-layer ConfigResult payload.
type ResultRecord struct {
	Type   string          `json:"type"` // filled by the store
	JobID  string          `json:"job"`
	Index  int             `json:"index"`
	Key    string          `json:"key,omitempty"`
	Result json.RawMessage `json:"result"`
}

// DoneRecord persists a job's terminal state.
type DoneRecord struct {
	Type  string `json:"type"` // filled by the store
	JobID string `json:"job"`
	State string `json:"state"`
	Error string `json:"error,omitempty"`
}

// StateRecord persists one named auxiliary state blob riding the job log
// — e.g. the analytics aggregate snapshot. Last writer wins per name, the
// current value is carried through every compaction, and replay surfaces
// it via State; it is invisible to job replay. The payload must be valid
// JSON (Dump embeds it verbatim).
//
// Note for downgrades: daemons older than this record kind treat unknown
// record types as corruption, so a log that carries state records does
// not replay on them.
type StateRecord struct {
	Type    string          `json:"type"` // filled by the store
	Name    string          `json:"name"`
	Payload json.RawMessage `json:"payload,omitempty"`
}

// ReplayedJob is one job reconstructed from the log: the job record, its
// persisted results in index order, and its terminal state ("" while the
// job was still queued or running when the log ended — an interrupted job
// the daemon should re-enqueue).
type ReplayedJob struct {
	Job     JobRecord
	Results []ResultRecord
	State   string
	Error   string
}

// Terminal reports whether the job reached a terminal state before the
// log ended.
func (r *ReplayedJob) Terminal() bool { return r.State != "" }

// Stats is a point-in-time size snapshot of the store. Records and Bytes
// cover the snapshot plus the log delta — the full on-disk state a replay
// reads.
type Stats struct {
	Jobs        int   `json:"jobs"`         // jobs in the index
	Records     int   `json:"records"`      // records on disk (snapshot + log)
	Bytes       int64 `json:"bytes"`        // on-disk size (snapshot + log)
	Compactions int64 `json:"compactions"`  // lifetime compaction count
	TailDropped int   `json:"tail_dropped"` // partial/corrupt tail records discarded at Open

	// CompactionSeconds is the wall time spent compacting since Open
	// (failed attempts included). Compaction runs under the store lock,
	// so this is also how long appends stalled behind it.
	CompactionSeconds float64 `json:"compaction_seconds"`

	SnapshotRecords int   `json:"snapshot_records"` // records in the snapshot file
	SnapshotBytes   int64 `json:"snapshot_bytes"`   // snapshot file size

	// Append accounting since Open, for the /metrics counters.
	AppendsBinary     int64 `json:"appends_binary"`
	AppendBytesBinary int64 `json:"append_bytes_binary"`
}

// Options tunes a Store; the zero value is production-sensible.
type Options struct {
	// RetainJobs bounds how many terminal jobs compaction keeps (oldest
	// evicted first); 0 means the default 1024. Interrupted and running
	// jobs are always retained.
	RetainJobs int
	// CompactEvery is the fewest log records that trigger an inline
	// compaction; 0 means the default 8192. Past that, the log must also
	// have grown to the snapshot's record count, so a growing store
	// rewrites its snapshot at doubling sizes and compaction's total I/O
	// stays proportional to the records appended, not to their square.
	CompactEvery int
}

func (o Options) withDefaults() Options {
	if o.RetainJobs == 0 {
		o.RetainJobs = 1024
	}
	if o.CompactEvery == 0 {
		o.CompactEvery = 8192
	}
	return o
}

// WALName is the log's filename inside the store directory. (The name
// predates the binary format: the log keeps it, and announces itself with
// the magic header instead.)
const WALName = "wal.jsonl"

// SnapName is the compaction snapshot's filename inside the store
// directory: the full live state as of the last compaction, atomically
// replaced, replayed before the log delta.
const SnapName = "wal.snap"

// Which file a frameRef points into.
const (
	fileSnap uint8 = iota
	fileLog
)

// frameRef locates one record's encoding on disk: a binary frame, or, in a
// JSON-era file awaiting migration, a JSON line (its newline optional).
type frameRef struct {
	off  int64
	n    uint32 // bytes; maxRecordBytes fits
	file uint8  // fileSnap or fileLog
}

// indexedJob is one job in the store's in-memory index: where its records
// sit on disk and its terminal state, not their payloads.
type indexedJob struct {
	job frameRef
	// stub, when set, is the job record compaction encodes instead of
	// copying job: a spec-less stub for orphan results whose job record
	// never appeared, or the merge of two job records that no single frame
	// holds. Cleared once a snapshot holds its frame.
	stub    *JobRecord
	results []frameRef // in index order
	state   string     // terminal state, "" while interrupted
	err     string
}

// Store is the durable job + result log. All methods are safe for
// concurrent use.
type Store struct {
	mu   sync.Mutex
	opts Options
	path string
	f    *os.File // the log
	snap *os.File // the snapshot, read by compaction; nil until one exists

	jobs   map[string]*indexedJob
	order  []string          // job ids in first-seen order
	states map[string][]byte // named auxiliary state blobs, last writer wins

	records     int   // records currently in the log file (including garbage)
	bytes       int64 // log file size
	snapRecords int   // records in the snapshot file
	snapBytes   int64 // snapshot file size
	torn        bool  // a failed append left a tail we could not truncate yet
	compactions int64
	compactTime time.Duration
	tailDropped int

	appends     int64
	appendBytes int64

	replayed []ReplayedJob // decoded at Open, until Replayed hands it over
}

// Open opens (creating if needed) the store in dir and replays the
// snapshot plus the log delta. A partial or corrupt tail record in the
// log — the signature of a crash mid-append — is discarded; everything
// before it is recovered. The snapshot is written atomically, so any
// damage there is fatal rather than tolerated. JSON-era files are migrated
// to binary before Open returns.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	path := filepath.Join(dir, WALName)
	// O_APPEND: every record lands atomically at EOF even if a stale
	// handle (a crashed-but-lingering writer) races this one.
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	// One daemon per store dir: an exclusive flock rejects a second Open
	// while the first holder lives; the kernel releases it on any process
	// death, SIGKILL included, so crash-restart never needs cleanup.
	if err := flockExclusive(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: %s: %w", path, err)
	}
	s := &Store{opts: opts, path: path, f: f}
	fail := func(err error) (*Store, error) {
		s.closeFiles()
		return nil, err
	}

	// Snapshot first, then the log delta, merged into one replay state.
	// Which files are JSON-era is a replay-time fact: it only tells the
	// migrating compaction below which frames to re-encode.
	st := newReplayState()
	var formats [2]fileFormat // by fileSnap, fileLog
	snapPath := filepath.Join(dir, SnapName)
	if sf, serr := os.Open(snapPath); serr == nil {
		s.snap = sf // kept open: compaction copies frames out of it
		sc := recordScan{file: fileSnap, apply: st.apply}
		formats[fileSnap], serr = sc.replay(sf)
		if serr == nil && sc.dropped > 0 {
			serr = fmt.Errorf("%d torn records in an atomically-written file", sc.dropped)
		}
		if serr != nil {
			return fail(fmt.Errorf("store: replay snapshot %s: %w", snapPath, serr))
		}
		s.snapRecords = sc.records
		if fi, err := sf.Stat(); err == nil {
			s.snapBytes = fi.Size()
		}
	} else if !errors.Is(serr, os.ErrNotExist) {
		return fail(fmt.Errorf("store: %w", serr))
	}
	sc := recordScan{file: fileLog, apply: st.apply}
	formats[fileLog], err = sc.replay(f)
	if err != nil {
		return fail(fmt.Errorf("store: replay %s: %w", path, err))
	}
	s.records = sc.records
	s.tailDropped = sc.dropped
	s.jobs = st.index
	s.order = st.order
	s.states = st.states
	if s.states == nil {
		s.states = make(map[string][]byte)
	}
	s.replayed = st.sorted()
	if fi, err := f.Stat(); err == nil {
		s.bytes = fi.Size()
	}
	if formats[fileLog] == formatEmpty {
		// A fresh log: stamp the header.
		n, werr := f.Write(walMagic[:])
		if werr != nil {
			return fail(fmt.Errorf("store: write log header: %w", werr))
		}
		s.bytes = int64(n)
	}
	// A freshly replayed state that carries garbage (dropped tail,
	// evictable jobs, duplicate records) or JSON-era files is compacted
	// right away, so a crash-loop cannot grow the files without bound and a
	// JSON-era log migrates forward on its first Open.
	jsonEra := [2]bool{formats[fileSnap] == formatJSON, formats[fileLog] == formatJSON}
	if s.tailDropped > 0 || len(s.order) > opts.RetainJobs || s.snapRecords+s.records > s.liveRecords() ||
		jsonEra[fileSnap] || jsonEra[fileLog] {
		if err := s.rewriteLocked(jsonEra); err != nil {
			return fail(err)
		}
	}
	return s, nil
}

// closeFiles closes the log and the snapshot reader.
func (s *Store) closeFiles() error {
	err := s.f.Close()
	if s.snap != nil {
		s.snap.Close()
		s.snap = nil
	}
	return err
}

// Replayed hands over the jobs reconstructed at Open, in id order, with
// their decoded records. The store keeps no copy — its index holds only
// frame locations — so only the first call returns them; later calls
// return nil.
func (s *Store) Replayed() []ReplayedJob {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.replayed
	s.replayed = nil
	return r
}

// Stats reports the store's current size.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Jobs:              len(s.jobs),
		Records:           s.snapRecords + s.records,
		Bytes:             s.snapBytes + s.bytes,
		Compactions:       s.compactions,
		CompactionSeconds: s.compactTime.Seconds(),
		TailDropped:       s.tailDropped,
		SnapshotRecords:   s.snapRecords,
		SnapshotBytes:     s.snapBytes,
		AppendsBinary:     s.appends,
		AppendBytesBinary: s.appendBytes,
	}
}

// AppendJob logs a submitted job. Re-appending a known id is a no-op
// (resumed jobs are already on disk). AppendJob never compacts inline:
// the service calls it on its submission path (holding a server-wide
// lock so a result can never precede its job record), and even a
// frame-copying whole-snapshot rewrite there would stall every
// submission. Results and terminal markers — appended from worker
// goroutines — carry the compaction trigger instead, and every job
// eventually produces one.
func (s *Store) AppendJob(r JobRecord) error {
	r.Type = recJob
	frame, err := encodeRecord(r)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return errClosed
	}
	if _, ok := s.jobs[r.ID]; ok {
		return nil
	}
	ref, err := s.writeLocked(frame)
	if err != nil {
		return err
	}
	s.jobs[r.ID] = &indexedJob{job: ref}
	s.order = append(s.order, r.ID)
	return nil
}

// AppendResult logs one completed run configuration. Results must arrive
// in index order per job; a duplicate or out-of-order index is dropped
// (it can only be a replayed configuration re-reported on resume).
func (s *Store) AppendResult(r ResultRecord) error {
	r.Type = recResult
	frame, err := encodeRecord(r)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return errClosed
	}
	j, ok := s.jobs[r.JobID]
	if !ok || r.Index != len(j.results) {
		return nil
	}
	ref, err := s.writeLocked(frame)
	if err != nil {
		return err
	}
	j.results = append(j.results, ref)
	return s.maybeCompactLocked()
}

// AppendDone logs a job's terminal state.
func (s *Store) AppendDone(r DoneRecord) error {
	r.Type = recDone
	frame, err := encodeRecord(r)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return errClosed
	}
	j, ok := s.jobs[r.JobID]
	if !ok || j.state != "" {
		return nil
	}
	if _, err := s.writeLocked(frame); err != nil {
		return err
	}
	j.state, j.err = r.State, r.Error
	return s.maybeCompactLocked()
}

// PutState upserts a named auxiliary state blob (see StateRecord). The
// payload must be valid JSON. Last write wins; the current value rides
// every compaction, so replay cost for the state is one record.
func (s *Store) PutState(name string, payload []byte) error {
	if name == "" {
		return errors.New("store: state name required")
	}
	frame, err := encodeRecord(StateRecord{Type: recState, Name: name, Payload: json.RawMessage(payload)})
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return errClosed
	}
	if _, err := s.writeLocked(frame); err != nil {
		return err
	}
	s.states[name] = append([]byte(nil), payload...)
	return s.maybeCompactLocked()
}

// State returns the named auxiliary state blob as of the last PutState
// (or the replayed value at Open), and whether it exists.
func (s *Store) State(name string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.states[name]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), b...), true
}

// HasJob reports whether the store's index still holds the job — i.e.
// whether a future replay of this store could resurface its records.
// Callers that keep per-job replay bookkeeping (the analytics watermarks)
// use it to prune entries for jobs compaction has evicted.
func (s *Store) HasJob(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.jobs[id]
	return ok
}

var errClosed = errors.New("store: closed")

// ErrLocked is returned by Open when another live process holds the WAL.
var ErrLocked = errors.New("wal locked by another process")

// rollbackTailLocked truncates a partial append back off the log so the
// next successful write lands on a clean tail. If even the truncate fails
// the log is flagged torn and the next append retries it first — appends
// are refused until the tail is clean again.
func (s *Store) rollbackTailLocked() {
	if err := s.f.Truncate(s.bytes); err != nil {
		s.torn = true
	} else {
		s.torn = false
	}
}

// writeLocked appends one encoded record frame to the log and reports
// where it landed. Callers encode before taking the lock, so the lock
// covers the write and the index update only.
func (s *Store) writeLocked(frame []byte) (frameRef, error) {
	if err := fault.Check(FaultWrite); err != nil {
		// An injected "short" message simulates a write that only
		// partially completed (ENOSPC mid-record): half the frame lands
		// on disk and the rollback must clean it up, exactly as for an
		// organic short write below.
		var fe *fault.Error
		if errors.As(err, &fe) && fe.Msg == "short" && len(frame) > 1 {
			if n, _ := s.f.Write(frame[:len(frame)/2]); n > 0 {
				s.rollbackTailLocked()
			}
		}
		return frameRef{}, fmt.Errorf("store: append: %w", err)
	}
	if s.torn {
		// A previous failed append left a tail we could not truncate;
		// retry before writing anything after it.
		if terr := s.f.Truncate(s.bytes); terr != nil {
			return frameRef{}, fmt.Errorf("store: append: torn tail: %w", terr)
		}
		s.torn = false
	}
	// One complete frame per Write call: a crash can truncate the final
	// record but never interleave two.
	n, werr := s.f.Write(frame)
	if werr != nil || n != len(frame) {
		if n > 0 {
			s.rollbackTailLocked()
		}
		if werr == nil {
			werr = io.ErrShortWrite
		}
		return frameRef{}, fmt.Errorf("store: append: %w", werr)
	}
	ref := frameRef{file: fileLog, off: s.bytes, n: uint32(n)}
	s.bytes += int64(n)
	s.records++
	s.appends++
	s.appendBytes += int64(n)
	return ref, nil
}

// liveRecords counts the records a compacted log would hold.
func (s *Store) liveRecords() int {
	n := len(s.states)
	for _, j := range s.jobs {
		n += 1 + len(j.results)
		if j.state != "" {
			n++
		}
	}
	return n
}

func (s *Store) maybeCompactLocked() error {
	if s.records < max(s.opts.CompactEvery, s.snapRecords) && len(s.order) <= 2*s.opts.RetainJobs {
		return nil
	}
	return s.compactLocked()
}

// Compact writes the in-memory index into the snapshot file (evicting
// terminal jobs beyond the retention bound), atomically replaces the
// previous snapshot, and truncates the log in place.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return errClosed
	}
	return s.compactLocked()
}

// compactLocked compacts a store whose files are all binary, as they are
// once Open returns.
func (s *Store) compactLocked() error { return s.rewriteLocked([2]bool{}) }

// rewriteLocked is compaction proper. jsonEra marks the files (by
// fileSnap, fileLog) whose frames are JSON-era lines: those are re-encoded
// rather than copied, which is how Open migrates them.
func (s *Store) rewriteLocked(jsonEra [2]bool) error {
	start := time.Now()
	defer func() { s.compactTime += time.Since(start) }()

	// Evict the oldest terminal jobs beyond the retention bound.
	terminal := 0
	for _, id := range s.order {
		if s.jobs[id].state != "" {
			terminal++
		}
	}
	if evict := terminal - s.opts.RetainJobs; evict > 0 {
		kept := s.order[:0]
		for _, id := range s.order {
			if evict > 0 && s.jobs[id].state != "" {
				delete(s.jobs, id)
				evict--
				continue
			}
			kept = append(kept, id)
		}
		s.order = kept
	}

	// Write the full live state into a fresh binary snapshot — this is also
	// where a JSON-era log migrates forward.
	dir := filepath.Dir(s.path)
	tmp, err := os.CreateTemp(dir, SnapName+".tmp-*")
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	renamed := false
	defer func() {
		if !renamed {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	sw := &snapWriter{s: s, w: bufio.NewWriterSize(tmp, copyRunMax), jsonEra: jsonEra}
	sw.w.Write(walMagic[:])
	sw.off = int64(len(walMagic))
	// The new locations of every job and result record, in emission order;
	// the index adopts them only once the snapshot is in place.
	refs := make([]frameRef, 0, s.liveRecords())
	for _, id := range s.order {
		j := s.jobs[id]
		if j.stub != nil {
			refs = append(refs, sw.encode(*j.stub))
		} else {
			refs = append(refs, sw.copy(j.job))
		}
		for _, r := range j.results {
			refs = append(refs, sw.copy(r))
		}
		if j.state != "" {
			sw.encode(DoneRecord{Type: recDone, JobID: id, State: j.state, Error: j.err})
		}
	}
	// Auxiliary state blobs survive compaction at their latest value,
	// emitted in name order so identical state compacts to identical bytes.
	names := make([]string, 0, len(s.states))
	for name := range s.states {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sw.encode(StateRecord{Type: recState, Name: name, Payload: json.RawMessage(s.states[name])})
	}
	if err := sw.finish(); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, SnapName)); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	renamed = true
	// The renamed handle is the new snapshot: the next compaction copies
	// out of it, so the index moves over to it now.
	if s.snap != nil {
		s.snap.Close()
	}
	s.snap = tmp
	s.snapRecords = sw.records
	s.snapBytes = sw.off
	k := 0
	for _, id := range s.order {
		j := s.jobs[id]
		j.job, j.stub = refs[k], nil
		k++
		k += copy(j.results, refs[k:])
	}

	// The snapshot now holds everything: empty the log in place. The fd,
	// its flock and the O_APPEND mode all stay — a crash between the
	// rename and this truncate merely leaves stale log records that the
	// next replay merges idempotently (duplicates are dropped).
	if err := s.f.Truncate(0); err != nil {
		return fmt.Errorf("store: compact: truncate log: %w", err)
	}
	s.bytes = 0
	n, werr := s.f.Write(walMagic[:])
	if werr != nil || n != len(walMagic) {
		if werr == nil {
			werr = io.ErrShortWrite
		}
		return fmt.Errorf("store: compact: write log header: %w", werr)
	}
	s.bytes = int64(n)
	s.records = 0
	s.compactions++
	s.torn = false
	return nil
}

// copyRunMax caps one coalesced read of a compaction's frame copy.
const copyRunMax = 1 << 20

// snapWriter assembles a compaction snapshot. Binary frames are copied
// verbatim: adjacent frames of one file are gathered into a single read,
// and every frame's length prefix and CRC are checked before it is
// written, so an index that disagrees with the disk fails the compaction
// instead of poisoning the snapshot. JSON-era lines and records the
// compaction makes up are encoded afresh. After the first failure every
// call is a no-op and finish reports it.
type snapWriter struct {
	s       *Store
	w       *bufio.Writer
	jsonEra [2]bool // by file: re-encode its frames instead of copying
	off     int64   // bytes emitted so far, header included
	records int
	run     []frameRef // adjacent frames of one file awaiting one read
	runLen  int
	buf     []byte
	err     error
}

// copy emits the frame at ref and returns its location in the snapshot.
func (sw *snapWriter) copy(ref frameRef) frameRef {
	if sw.jsonEra[ref.file] {
		return sw.reencode(ref)
	}
	if n := len(sw.run); n > 0 {
		last := sw.run[n-1]
		if last.file != ref.file || last.off+int64(last.n) != ref.off || sw.runLen+int(ref.n) > copyRunMax {
			sw.flush()
		}
	}
	sw.run = append(sw.run, ref)
	sw.runLen += int(ref.n)
	return sw.emitted(int(ref.n))
}

// reencode emits the JSON-era record at ref as a binary frame.
func (sw *snapWriter) reencode(ref frameRef) frameRef {
	sw.flush()
	b := sw.read(ref.file, ref.off, int(ref.n))
	if sw.err != nil {
		return frameRef{}
	}
	rec, err := decodeJSONLine(b)
	if err != nil {
		sw.err = fmt.Errorf("record at %d of %s: %w", ref.off, fileName(ref.file), err)
		return frameRef{}
	}
	return sw.encode(rec)
}

// encode emits v as a fresh binary frame.
func (sw *snapWriter) encode(v any) frameRef {
	sw.flush()
	if sw.err != nil {
		return frameRef{}
	}
	frame, err := encodeRecord(v)
	if err == nil {
		_, err = sw.w.Write(frame)
	}
	if err != nil {
		sw.err = err
		return frameRef{}
	}
	return sw.emitted(len(frame))
}

// emitted accounts for n bytes of snapshot output and returns their
// location.
func (sw *snapWriter) emitted(n int) frameRef {
	ref := frameRef{file: fileSnap, off: sw.off, n: uint32(n)}
	sw.off += int64(n)
	sw.records++
	return ref
}

// flush reads, verifies and writes the pending run of frames.
func (sw *snapWriter) flush() {
	run := sw.run
	sw.run, sw.runLen = sw.run[:0], 0
	if len(run) == 0 || sw.err != nil {
		return
	}
	first, last := run[0], run[len(run)-1]
	b := sw.read(first.file, first.off, int(last.off-first.off)+int(last.n))
	for _, ref := range run {
		if sw.err != nil {
			return
		}
		if err := verifyFrame(b[ref.off-first.off:][:ref.n]); err != nil {
			sw.err = fmt.Errorf("frame at %d of %s does not match the index: %w", ref.off, fileName(ref.file), err)
		}
	}
	if sw.err == nil {
		_, sw.err = sw.w.Write(b)
	}
}

// read returns n bytes of the given file at off, in a buffer reused until
// the next read.
func (sw *snapWriter) read(file uint8, off int64, n int) []byte {
	if cap(sw.buf) < n {
		sw.buf = make([]byte, n)
	}
	b := sw.buf[:n]
	f := sw.s.f
	if file == fileSnap {
		f = sw.s.snap
	}
	if f == nil {
		sw.err = fmt.Errorf("index points into a missing %s", fileName(file))
	} else if _, err := f.ReadAt(b, off); err != nil {
		sw.err = fmt.Errorf("read %s: %w", fileName(file), err)
	}
	return b
}

func (sw *snapWriter) finish() error {
	sw.flush()
	if sw.err == nil {
		sw.err = sw.w.Flush()
	}
	return sw.err
}

func fileName(file uint8) string {
	if file == fileSnap {
		return SnapName
	}
	return WALName
}

// Sync flushes the log to stable storage (fsync). Appends themselves only
// guarantee process-crash durability (the write reaches the kernel); Sync
// is the OS-crash checkpoint the daemon takes on graceful drain.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return errClosed
	}
	if err := fault.Check(FaultSync); err != nil {
		return fmt.Errorf("store: sync: %w", err)
	}
	return s.f.Sync()
}

// Probe checks whether the WAL can take writes again, for the service's
// durability probe while it serves in lossy mode. It exercises the same
// failpoint and fsync path as a real append — without writing a record,
// because Replay treats unknown record types as corruption and a probe
// marker would poison every future replay of the log.
func (s *Store) Probe() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return errClosed
	}
	if err := fault.Check(FaultWrite); err != nil {
		return fmt.Errorf("store: probe: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("store: probe: %w", err)
	}
	return nil
}

// Close compacts, syncs and closes the log. Further appends fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.compactLocked()
	if serr := s.f.Sync(); err == nil {
		err = serr
	}
	if cerr := s.closeFiles(); err == nil {
		err = cerr
	}
	s.f = nil
	return err
}

// replayState accumulates jobs across one or more replayed streams (the
// snapshot, then the log delta): the decoded records for Replayed, and
// the frame-location index the store keeps.
type replayState struct {
	jobs   map[string]*ReplayedJob
	index  map[string]*indexedJob
	order  []string // first-seen order
	states map[string][]byte
}

func newReplayState() *replayState {
	return &replayState{jobs: make(map[string]*ReplayedJob), index: make(map[string]*indexedJob)}
}

func (st *replayState) get(id string) (*ReplayedJob, *indexedJob) {
	j, ok := st.jobs[id]
	if !ok {
		j = &ReplayedJob{Job: JobRecord{Type: recJob, ID: id}}
		st.jobs[id] = j
		st.index[id] = &indexedJob{stub: &JobRecord{Type: recJob, ID: id}}
		st.order = append(st.order, id)
	}
	return j, st.index[id]
}

// apply merges one decoded record, whose encoding sits at ref, into the
// state, enforcing the replay semantics shared by both formats: results
// and done markers arriving before their job record are buffered under a
// synthetic job, duplicate and out-of-order result indices are dropped,
// and the first job record / done marker for an id wins. An error means
// the record is invalid (missing its id), not that the merge failed.
func (st *replayState) apply(rec any, ref frameRef) error {
	switch r := rec.(type) {
	case JobRecord:
		if r.ID == "" {
			return errors.New("job record without id")
		}
		r.Type = recJob
		j, x := st.get(r.ID)
		if j.Job.Specs == nil {
			created := j.Job.Created
			j.Job = r
			x.job, x.stub = ref, nil
			if r.Created.IsZero() && !created.IsZero() {
				j.Job.Created = created
				merged := j.Job
				x.stub = &merged
			}
		}
	case ResultRecord:
		if r.JobID == "" {
			return errors.New("result record without job id")
		}
		r.Type = recResult
		j, x := st.get(r.JobID)
		if r.Index == len(j.Results) {
			j.Results = append(j.Results, r)
			x.results = append(x.results, ref)
		}
	case DoneRecord:
		if r.JobID == "" {
			return errors.New("done record without job id")
		}
		r.Type = recDone
		j, x := st.get(r.JobID)
		if j.State == "" {
			j.State, j.Error = r.State, r.Error
			x.state, x.err = r.State, r.Error
		}
	case StateRecord:
		if r.Name == "" {
			return errors.New("state record without name")
		}
		if st.states == nil {
			st.states = make(map[string][]byte)
		}
		// Last writer wins: the log is replayed oldest-first.
		st.states[r.Name] = append([]byte(nil), r.Payload...)
	default:
		return fmt.Errorf("unknown record %T", rec)
	}
	return nil
}

// sorted returns the accumulated jobs ordered by JobIDLess.
func (st *replayState) sorted() []ReplayedJob {
	out := make([]ReplayedJob, 0, len(st.order))
	for _, id := range st.order {
		out = append(out, *st.jobs[id])
	}
	sort.SliceStable(out, func(a, b int) bool { return JobIDLess(out[a].Job.ID, out[b].Job.ID) })
	return out
}

// recordScan is one pass over a log or snapshot stream: where its records
// go, and the counts its crash-tolerance rules need.
type recordScan struct {
	file uint8 // the file being read, for the frame refs passed to apply
	// apply receives every complete record and where its encoding sits. An
	// error rejects the record as invalid, which counts like corruption.
	apply   func(rec any, ref frameRef) error
	records int // records apply accepted
	dropped int // partial, corrupt or rejected records
}

// replay sniffs the stream's format and scans it, reporting the format.
func (sc *recordScan) replay(r io.Reader) (fileFormat, error) {
	br := bufio.NewReaderSize(r, 64*1024)
	format, err := sniffFormat(br)
	if err != nil {
		return format, err
	}
	switch format {
	case formatBinary:
		err = sc.replayBinary(br)
	case formatJSON:
		err = sc.replayJSON(br)
	}
	return format, err
}

// accept hands one decoded record to apply, counting it if apply takes it.
func (sc *recordScan) accept(rec any, ref frameRef) error {
	err := sc.apply(rec, ref)
	if err == nil {
		sc.records++
	}
	return err
}

// replayJSON replays a newline-delimited JSON log. Garbage is tolerated
// only as the final (torn) tail: a complete record following it proves
// mid-log corruption and fails the replay.
func (sc *recordScan) replayJSON(r *bufio.Reader) error {
	lines := bufio.NewScanner(r)
	lines.Buffer(make([]byte, 64*1024), maxRecordBytes)
	// Track each line's file offset for the index.
	var pos, lineStart int64
	lines.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		adv, tok, err := bufio.ScanLines(data, atEOF)
		lineStart = pos
		pos += int64(adv)
		return adv, tok, err
	})
	var pendingErr error
	for lines.Scan() {
		raw := lines.Bytes()
		line := bytes.TrimSpace(raw)
		if len(line) == 0 {
			continue
		}
		var head jsonHead
		if err := json.Unmarshal(line, &head); err != nil {
			// Only acceptable as the torn final record of a crash; if more
			// complete records follow, the log is corrupt mid-stream.
			sc.dropped++
			pendingErr = fmt.Errorf("store: corrupt record %d: %w", sc.records+sc.dropped, err)
			continue
		}
		if pendingErr != nil {
			return pendingErr
		}
		rec, err := decodeJSONRecord(head.Type, line)
		if errors.Is(err, errUnknownRecord) {
			sc.dropped++
			pendingErr = fmt.Errorf("store: unknown record type %q", head.Type)
			continue
		}
		lead := len(raw) - len(bytes.TrimLeftFunc(raw, unicode.IsSpace))
		ref := frameRef{file: sc.file, off: lineStart + int64(lead), n: uint32(len(line))}
		if err != nil || sc.accept(rec, ref) != nil {
			sc.dropped++
			pendingErr = fmt.Errorf("store: bad %s record %d", head.Type, sc.records+sc.dropped)
			continue
		}
	}
	if err := lines.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			// An oversized line can only be a torn or hostile tail record;
			// everything already decoded stands.
			sc.dropped++
		} else {
			return fmt.Errorf("store: read log: %w", err)
		}
	}
	return nil
}

// replayBinary replays length-prefixed binary frames (the header magic
// already consumed by the sniff). An incomplete final frame is the crash
// signature and is dropped; a complete-but-corrupt frame is dropped only
// when nothing follows it — bytes after it prove mid-log corruption.
func (sc *recordScan) replayBinary(br *bufio.Reader) error {
	off := int64(len(walMagic))
	for {
		size := peekFrameSize(br)
		rec, _, err := readBinaryRecord(br)
		if err != nil {
			if err == io.EOF {
				return nil
			}
			if errors.Is(err, io.ErrUnexpectedEOF) {
				sc.dropped++ // torn tail: the crash signature
				return nil
			}
			sc.dropped++
			if _, perr := br.Peek(1); perr == nil {
				return fmt.Errorf("store: corrupt record %d: %w", sc.records+sc.dropped, err)
			}
			return nil
		}
		if aerr := sc.accept(rec, frameRef{file: sc.file, off: off, n: uint32(size)}); aerr != nil {
			sc.dropped++
			if _, perr := br.Peek(1); perr == nil {
				return fmt.Errorf("store: bad record %d: %w", sc.records+sc.dropped, aerr)
			}
			return nil
		}
		off += int64(size)
	}
}

// Replay reconstructs jobs from a log stream, binary or JSON-era (sniffed
// from the leading bytes). It returns the jobs in id order, the number of
// complete records read, and the number of partial/corrupt records
// discarded at the tail. Replay is tolerant of the crash signature (a
// torn final record) and of record interleavings: results and done
// markers arriving before their job record are buffered and merged,
// duplicate and out-of-order result indices are dropped, and a second job
// record for a known id is ignored. Orphan results whose job record never
// appears are attached to a synthetic spec-less job so their cache keys
// remain recoverable.
func Replay(r io.Reader) ([]ReplayedJob, int, int, error) {
	st := newReplayState()
	sc := recordScan{file: fileLog, apply: st.apply}
	if _, err := sc.replay(r); err != nil {
		return nil, sc.records, sc.dropped, err
	}
	return st.sorted(), sc.records, sc.dropped, nil
}

// Dump writes every record of a log or snapshot stream, binary or
// JSON-era, to w as one JSON line, in file order. That is the JSON-era log
// format, so a dump replays to the same jobs as the stream it came from.
// The store does not know the result payloads' encoding: resultJSON turns
// each result payload into the JSON that line embeds (nil embeds payloads
// as they are, which then must be JSON). Records up to a torn or corrupt
// tail are written before the tail is reported as an error.
func Dump(r io.Reader, w io.Writer, resultJSON func([]byte) ([]byte, error)) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	enc.SetEscapeHTML(false) // payloads are embedded verbatim
	var werr error
	sc := recordScan{apply: func(rec any, _ frameRef) error {
		if rr, ok := rec.(ResultRecord); ok && resultJSON != nil && werr == nil {
			rr.Result, werr = resultJSON(rr.Result)
			rec = rr
		}
		if werr == nil {
			werr = enc.Encode(rec)
		}
		return nil
	}}
	_, err := sc.replay(r)
	if ferr := bw.Flush(); werr == nil {
		werr = ferr
	}
	switch {
	case err != nil:
		return err
	case werr != nil:
		return fmt.Errorf("store: dump: %w", werr)
	case sc.dropped > 0:
		return fmt.Errorf("store: dump: %d torn or corrupt tail records skipped", sc.dropped)
	}
	return nil
}

// JobIDLess orders job ids for replay and listings: ids sharing a prefix
// are compared by their trailing decimal counter, so "job-1000000" sorts
// after "job-999999" (plain string order would put it first the moment the
// counter outgrows its zero padding). Ids without a numeric suffix fall
// back to string order.
func JobIDLess(a, b string) bool {
	pa, na, aok := splitNumericSuffix(a)
	pb, nb, bok := splitNumericSuffix(b)
	if aok && bok && pa == pb {
		if na != nb {
			return na < nb
		}
		return a < b // differing zero padding only
	}
	return a < b
}

// splitNumericSuffix splits "job-001234" into ("job-", 1234, true).
func splitNumericSuffix(id string) (prefix string, n uint64, ok bool) {
	i := len(id)
	for i > 0 && id[i-1] >= '0' && id[i-1] <= '9' {
		i--
	}
	if i == len(id) {
		return id, 0, false
	}
	// Overflow-proof enough for ids minted from an int64 counter; a
	// hostile 30-digit suffix just falls back to string order.
	if len(id)-i > 19 {
		return id, 0, false
	}
	for _, c := range []byte(id[i:]) {
		n = n*10 + uint64(c-'0')
	}
	return id[:i], n, true
}
