package store

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"
)

// The two on-disk formats a store reads, as refEncode's codec argument and
// subtest names. The store writes only the binary one; JSON-era files are
// seeded through refEncode.
const (
	CodecBinary = "binary"
	CodecJSON   = "json"
)

// refEncode is this test's own encoder for one record, written from the
// format description (see encodeRecord) rather than shared with the
// store: a JSON-era line, or uvarint payload length | kind, flags, body
// (flate-compressed from 256 bytes when that is smaller) | CRC32-IEEE.
func refEncode(t testing.TB, codec string, v any) []byte {
	t.Helper()
	if codec == CodecJSON {
		line, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return append(line, '\n')
	}
	var (
		kind byte
		body []byte
	)
	blob := func(p []byte) {
		body = binary.AppendUvarint(body, uint64(len(p)))
		body = append(body, p...)
	}
	switch r := v.(type) {
	case JobRecord:
		created, err := r.Created.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		kind = 1
		blob([]byte(r.ID))
		blob([]byte(r.Kind))
		blob(created)
		blob(r.Specs)
		if r.Tenant != "" {
			blob([]byte(r.Tenant))
		}
	case ResultRecord:
		kind = 2
		blob([]byte(r.JobID))
		body = binary.AppendUvarint(body, uint64(r.Index))
		blob([]byte(r.Key))
		blob(r.Result)
	case DoneRecord:
		kind = 3
		blob([]byte(r.JobID))
		blob([]byte(r.State))
		blob([]byte(r.Error))
	case StateRecord:
		kind = 4
		blob([]byte(r.Name))
		blob(r.Payload)
	default:
		t.Fatalf("refEncode: %T", v)
	}
	flags := byte(0)
	if len(body) >= 256 {
		var z bytes.Buffer
		zw, _ := flate.NewWriter(&z, flate.BestSpeed)
		zw.Write(body)
		zw.Close()
		if z.Len() < len(body) {
			body, flags = z.Bytes(), 1
		}
	}
	payload := append([]byte{kind, flags}, body...)
	frame := binary.AppendUvarint(nil, uint64(len(payload)))
	frame = append(frame, payload...)
	return binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
}

// writeJSONEraLog seeds dir with a log of the given records in the
// headerless JSON-lines format daemons wrote before the binary codec.
func writeJSONEraLog(t testing.TB, dir string, recs ...any) {
	t.Helper()
	var log bytes.Buffer
	for _, rec := range recs {
		log.Write(refEncode(t, CodecJSON, rec))
	}
	if err := os.WriteFile(filepath.Join(dir, WALName), log.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// rewriteJSONEra turns a binary store file into the JSON-era file holding
// the same records in the same order, as an old daemon would have written.
func rewriteJSONEra(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	sc := recordScan{apply: func(rec any, _ frameRef) error {
		out.Write(refEncode(t, CodecJSON, rec))
		return nil
	}}
	if format, err := sc.replay(bytes.NewReader(raw)); err != nil || format != formatBinary || sc.dropped != 0 {
		t.Fatalf("%s: format %d, %d dropped, err %v", path, format, sc.dropped, err)
	}
	if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// checkBinaryFiles asserts that the store files in dir open with the
// binary header, as every file does once Open has migrated it.
func checkBinaryFiles(t *testing.T, dir string) {
	t.Helper()
	for _, name := range []string{SnapName, WALName} {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if errors.Is(err, os.ErrNotExist) && name == SnapName {
			continue
		}
		if err != nil || !bytes.HasPrefix(raw, walMagic[:]) {
			t.Fatalf("%s is not binary (err=%v, head=%q)", name, err, raw[:min(len(raw), 8)])
		}
	}
}

// wantSnapshot re-encodes the store directory's live state the way
// compaction did before it copied frames: replay the snapshot and the
// log, evict the oldest terminal jobs beyond retain, then encode every
// job's record, results and done marker in first-seen order, and the
// state blobs in name order.
func wantSnapshot(t *testing.T, dir string, retain int) []byte {
	t.Helper()
	st := newReplayState()
	for _, name := range []string{SnapName, WALName} {
		f, err := os.Open(filepath.Join(dir, name))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		sc := recordScan{apply: st.apply}
		_, err = sc.replay(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	terminal := 0
	for _, id := range st.order {
		if st.jobs[id].Terminal() {
			terminal++
		}
	}
	var buf bytes.Buffer
	buf.Write(walMagic[:])
	evict := terminal - retain
	for _, id := range st.order {
		j := st.jobs[id]
		if evict > 0 && j.Terminal() {
			evict--
			continue
		}
		buf.Write(refEncode(t, CodecBinary, j.Job))
		for _, r := range j.Results {
			buf.Write(refEncode(t, CodecBinary, r))
		}
		if j.Terminal() {
			buf.Write(refEncode(t, CodecBinary, DoneRecord{Type: recDone, JobID: id, State: j.State, Error: j.Error}))
		}
	}
	names := make([]string, 0, len(st.states))
	for name := range st.states {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		buf.Write(refEncode(t, CodecBinary, StateRecord{Type: recState, Name: name, Payload: st.states[name]}))
	}
	return buf.Bytes()
}

// checkCompact compacts s and checks the snapshot against wantSnapshot
// taken just before.
func checkCompact(t *testing.T, s *Store, dir string) {
	t.Helper()
	want := wantSnapshot(t, dir, s.opts.RetainJobs)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	checkSnapshot(t, dir, want)
}

func checkSnapshot(t *testing.T, dir string, want []byte) {
	t.Helper()
	got, err := os.ReadFile(filepath.Join(dir, SnapName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("snapshot is %d bytes, the re-encoded index %d; first difference at byte %d", len(got), len(want), i)
	}
}

// crash drops the store's handles without Close's final compaction, as a
// SIGKILL would.
func crash(s *Store) {
	s.mu.Lock()
	s.closeFiles()
	s.f = nil
	s.mu.Unlock()
}

// fill appends jobs first..last, each with n results (large, flate-worthy
// payloads and small ones alternating); every job but the last ends with
// a done marker, every third one failed with an error.
func fill(t *testing.T, s *Store, first, last, n int) {
	t.Helper()
	for id := first; id <= last; id++ {
		jid := fmt.Sprintf("job-%06d", id)
		tenant := ""
		if id%2 == 0 {
			tenant = "alice"
		}
		if err := s.AppendJob(JobRecord{ID: jid, Kind: "sweep", Created: time.Unix(1700000000+int64(id), 0).UTC(),
			Specs: mustJSON(t, []map[string]int{{"distance": id}}), Tenant: tenant}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			payload := resultPayload(t, id*100+i)
			if i%2 == 1 {
				payload = mustJSON(t, map[string]int{"index": i})
			}
			if err := s.AppendResult(ResultRecord{JobID: jid, Index: i, Key: fmt.Sprintf("key-%d-%d", id, i), Result: payload}); err != nil {
				t.Fatal(err)
			}
		}
		if id == last {
			continue // interrupted
		}
		done := DoneRecord{JobID: jid, State: "done"}
		if id%3 == 0 {
			done = DoneRecord{JobID: jid, State: "failed", Error: fmt.Sprintf("service: %d/%d configurations failed", n, n)}
		}
		if err := s.AppendDone(done); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCompactSnapshotByteIdentical: compaction copies frames, and its
// snapshot is byte-identical to re-encoding the live index record by
// record, through eviction, orphans, errors, tenants, state blobs,
// repeated compactions, a crash mid-compaction and codec migration.
func TestCompactSnapshotByteIdentical(t *testing.T) {
	t.Run("eviction-errors-tenants-state", func(t *testing.T) {
		dir := t.TempDir()
		s, err := Open(dir, Options{RetainJobs: 3, CompactEvery: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		fill(t, s, 1, 7, 5)
		if err := s.PutState("analytics", []byte(`{"v":1}`)); err != nil {
			t.Fatal(err)
		}
		if err := s.PutState("analytics", []byte(`{"v":2}`)); err != nil {
			t.Fatal(err)
		}
		if err := s.PutState("aux", []byte(`"x"`)); err != nil {
			t.Fatal(err)
		}
		checkCompact(t, s, dir)
		if st := s.Stats(); st.Jobs != 4 {
			t.Fatalf("after eviction: %d jobs, want 3 terminal + 1 interrupted", st.Jobs)
		}
	})

	t.Run("repeated", func(t *testing.T) {
		dir := t.TempDir()
		s, err := Open(dir, Options{RetainJobs: 4, CompactEvery: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for round := 0; round < 5; round++ {
			fill(t, s, 10*round+1, 10*round+3, 4)
			// Interleave: finish the previous round's interrupted job now,
			// so its records straddle the snapshot and the log.
			if round > 0 {
				prev := fmt.Sprintf("job-%06d", 10*(round-1)+3)
				appendResult(t, s, prev, 4)
				if err := s.AppendDone(DoneRecord{JobID: prev, State: "done"}); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.PutState("analytics", mustJSON(t, map[string]int{"round": round})); err != nil {
				t.Fatal(err)
			}
			checkCompact(t, s, dir)
		}
		if st := s.Stats(); st.Compactions != 5 {
			t.Fatalf("compactions = %d", st.Compactions)
		}
	})

	t.Run("orphans", func(t *testing.T) {
		// A log whose results precede (or never meet) their job record:
		// compaction writes a stub job record for the orphan.
		dir := t.TempDir()
		var log bytes.Buffer
		log.Write(walMagic[:])
		for _, rec := range []any{
			ResultRecord{Type: recResult, JobID: "job-000009", Index: 0, Key: "k0", Result: resultPayload(t, 1)},
			ResultRecord{Type: recResult, JobID: "job-000009", Index: 1, Key: "k1", Result: json.RawMessage(`{"ok":1}`)},
			ResultRecord{Type: recResult, JobID: "job-000002", Index: 0, Key: "k2", Result: resultPayload(t, 2)},
			JobRecord{Type: recJob, ID: "job-000002", Kind: "run", Created: time.Unix(1700000000, 0).UTC(),
				Specs: json.RawMessage(`[{"benchmark":"gcm_n13"}]`)},
			DoneRecord{Type: recDone, JobID: "job-000009", State: "done"},
		} {
			log.Write(refEncode(t, CodecBinary, rec))
		}
		if err := os.WriteFile(filepath.Join(dir, WALName), log.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{CompactEvery: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		checkCompact(t, s, dir)
		// The stub now sits in the snapshot and is copied like any frame.
		appendResult(t, s, "job-000002", 1)
		checkCompact(t, s, dir)
	})

	t.Run("crash-between-rename-and-truncate", func(t *testing.T) {
		dir := t.TempDir()
		s, err := Open(dir, Options{RetainJobs: 2, CompactEvery: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		fill(t, s, 1, 3, 3)
		checkCompact(t, s, dir)
		fill(t, s, 4, 6, 3)
		stale, err := os.ReadFile(filepath.Join(dir, WALName))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		crash(s)
		// The crash hit after the rename: the new snapshot is in place,
		// and the log still holds every record it absorbed.
		if err := os.WriteFile(filepath.Join(dir, WALName), stale, 0o644); err != nil {
			t.Fatal(err)
		}
		want := wantSnapshot(t, dir, 2)
		s2, err := Open(dir, Options{RetainJobs: 2, CompactEvery: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		if st := s2.Stats(); st.Compactions != 1 {
			t.Fatalf("Open did not compact the duplicated records: %+v", st)
		}
		checkSnapshot(t, dir, want)
		checkCompact(t, s2, dir)
	})

	t.Run("json-era-migration", func(t *testing.T) {
		// A JSON-era snapshot and log delta, as an old daemon left them.
		dir := t.TempDir()
		s, err := Open(dir, Options{RetainJobs: 3, CompactEvery: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		fill(t, s, 1, 3, 3)
		if err := s.PutState("analytics", []byte(`{"v":1}`)); err != nil {
			t.Fatal(err)
		}
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		fill(t, s, 4, 5, 3)
		crash(s)
		rewriteJSONEra(t, filepath.Join(dir, SnapName))
		rewriteJSONEra(t, filepath.Join(dir, WALName))
		want := wantSnapshot(t, dir, 3)
		s2, err := Open(dir, Options{RetainJobs: 3, CompactEvery: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		if st := s2.Stats(); st.Compactions != 1 {
			t.Fatalf("Open did not migrate the JSON-era files: %+v", st)
		}
		checkBinaryFiles(t, dir)
		checkSnapshot(t, dir, want)
		fill(t, s2, 6, 7, 2)
		checkCompact(t, s2, dir)
	})

	t.Run("json-era-crash-between-rename-and-truncate", func(t *testing.T) {
		// The migration renamed its binary snapshot into place, then the
		// process died before truncating the JSON-era log it absorbed.
		dir := t.TempDir()
		s, err := Open(dir, Options{CompactEvery: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		fill(t, s, 1, 4, 3)
		crash(s)
		logPath := filepath.Join(dir, WALName)
		rewriteJSONEra(t, logPath)
		stale, err := os.ReadFile(logPath)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := Open(dir, Options{CompactEvery: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		migrated := s2.Replayed()
		crash(s2)
		if err := os.WriteFile(logPath, stale, 0o644); err != nil {
			t.Fatal(err)
		}
		want := wantSnapshot(t, dir, 1024)
		s3, err := Open(dir, Options{CompactEvery: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		defer s3.Close()
		if got := s3.Replayed(); !reflect.DeepEqual(got, migrated) {
			t.Fatalf("reopen next to the stale JSON-era log replays\n%+v\nwant\n%+v", got, migrated)
		}
		checkBinaryFiles(t, dir)
		checkSnapshot(t, dir, want)
	})
}

// TestCompactRefusesCorruptFrame: a frame on disk that no longer matches
// the index fails the compaction instead of being copied into the
// snapshot, and the previous snapshot stays in place.
func TestCompactRefusesCorruptFrame(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{CompactEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fill(t, s, 1, 2, 3)
	checkCompact(t, s, dir)
	before, err := os.ReadFile(filepath.Join(dir, SnapName))
	if err != nil {
		t.Fatal(err)
	}
	appendResult(t, s, "job-000002", 3)
	// Flip the last byte of the log: the CRC of the result just appended.
	f, err := os.OpenFile(filepath.Join(dir, WALName), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	fi, _ := f.Stat()
	var b [1]byte
	f.ReadAt(b[:], fi.Size()-1)
	b[0] ^= 0xff
	f.WriteAt(b[:], fi.Size()-1)
	f.Close()
	if err := s.Compact(); err == nil {
		t.Fatal("compaction copied a frame that fails its CRC")
	}
	after, err := os.ReadFile(filepath.Join(dir, SnapName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("a failed compaction replaced the snapshot")
	}
	if matches, _ := filepath.Glob(filepath.Join(dir, SnapName+".tmp-*")); len(matches) != 0 {
		t.Fatalf("failed compaction left temp files: %v", matches)
	}
}
