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
	"sort"
	"testing"
	"time"
)

// refEncode is this test's own encoder for one record, written from the
// format description (see encodeBinaryRecord) rather than shared with the
// store: a JSON line, or uvarint payload length | kind, flags, body
// (flate-compressed from 256 bytes when that is smaller) | CRC32-IEEE.
func refEncode(t *testing.T, codec string, v any) []byte {
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

// wantSnapshot re-encodes the store directory's live state the way
// compaction did before it copied frames: replay the snapshot and the
// log, evict the oldest terminal jobs beyond retain, then encode every
// job's record, results and done marker in first-seen order, and the
// state blobs in name order.
func wantSnapshot(t *testing.T, dir, codec string, retain int) []byte {
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
		_, err = replayStream(st, f)
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
	if codec == CodecBinary {
		buf.Write(walMagic[:])
	}
	evict := terminal - retain
	for _, id := range st.order {
		j := st.jobs[id]
		if evict > 0 && j.Terminal() {
			evict--
			continue
		}
		buf.Write(refEncode(t, codec, j.Job))
		for _, r := range j.Results {
			buf.Write(refEncode(t, codec, r))
		}
		if j.Terminal() {
			buf.Write(refEncode(t, codec, DoneRecord{Type: recDone, JobID: id, State: j.State, Error: j.Error}))
		}
	}
	names := make([]string, 0, len(st.states))
	for name := range st.states {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		buf.Write(refEncode(t, codec, StateRecord{Type: recState, Name: name, Payload: st.states[name]}))
	}
	return buf.Bytes()
}

// checkCompact compacts s and checks the snapshot against wantSnapshot
// taken just before.
func checkCompact(t *testing.T, s *Store, dir string) {
	t.Helper()
	want := wantSnapshot(t, dir, s.opts.Codec, s.opts.RetainJobs)
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
		want := wantSnapshot(t, dir, CodecBinary, 2)
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

	t.Run("json-codec", func(t *testing.T) {
		dir := t.TempDir()
		s, err := Open(dir, Options{Codec: CodecJSON, RetainJobs: 2, CompactEvery: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		fill(t, s, 1, 4, 3)
		checkCompact(t, s, dir)
		fill(t, s, 5, 6, 3)
		checkCompact(t, s, dir)
	})

	t.Run("json-era-migration", func(t *testing.T) {
		dir := t.TempDir()
		s, err := Open(dir, Options{Codec: CodecJSON, RetainJobs: 3, CompactEvery: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		fill(t, s, 1, 3, 3)
		if err := s.PutState("analytics", []byte(`{"v":1}`)); err != nil {
			t.Fatal(err)
		}
		if err := s.Compact(); err != nil { // a JSON snapshot...
			t.Fatal(err)
		}
		fill(t, s, 4, 5, 3) // ...and a JSON log delta
		crash(s)
		want := wantSnapshot(t, dir, CodecBinary, 3)
		s2, err := Open(dir, Options{RetainJobs: 3, CompactEvery: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		if st := s2.Stats(); st.Compactions != 1 || st.Codec != CodecBinary {
			t.Fatalf("Open did not migrate the JSON-era files: %+v", st)
		}
		checkSnapshot(t, dir, want)
		fill(t, s2, 6, 7, 2)
		checkCompact(t, s2, dir)
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
