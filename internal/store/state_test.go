package store

import (
	"bytes"
	"testing"
)

// TestStateRoundTrip: PutState survives a close/reopen, last writer wins,
// and the value rides the compaction snapshot. The json leg writes the
// same records into a JSON-era log, which Open must replay and migrate.
func TestStateRoundTrip(t *testing.T) {
	for _, codec := range []string{CodecBinary, CodecJSON} {
		t.Run(codec, func(t *testing.T) {
			dir := t.TempDir()
			if codec == CodecJSON {
				writeJSONEraLog(t, dir,
					StateRecord{Type: recState, Name: "analytics", Payload: []byte(`{"v":1}`)},
					StateRecord{Type: recState, Name: "analytics", Payload: []byte(`{"v":2}`)},
					StateRecord{Type: recState, Name: "other", Payload: []byte(`"x"`)},
				)
			}
			s, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if codec == CodecBinary {
				for _, put := range [][2]string{{"analytics", `{"v":1}`}, {"analytics", `{"v":2}`}, {"other", `"x"`}} {
					if err := s.PutState(put[0], []byte(put[1])); err != nil {
						t.Fatal(err)
					}
				}
			}
			if got, ok := s.State("analytics"); !ok || !bytes.Equal(got, []byte(`{"v":2}`)) {
				t.Fatalf("State before close = %q, %v", got, ok)
			}
			appendJob(t, s, "job-000001", "sweep")
			if err := s.Close(); err != nil { // Close compacts: states must ride the snapshot
				t.Fatal(err)
			}

			s2, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if got, ok := s2.State("analytics"); !ok || !bytes.Equal(got, []byte(`{"v":2}`)) {
				t.Fatalf("State after reopen = %q, %v (last writer must win through compaction)", got, ok)
			}
			if got, ok := s2.State("other"); !ok || !bytes.Equal(got, []byte(`"x"`)) {
				t.Fatalf("second state lost: %q, %v", got, ok)
			}
			if _, ok := s2.State("missing"); ok {
				t.Fatal("missing state reported present")
			}
			if len(s2.Replayed()) != 1 {
				t.Fatalf("state records leaked into job replay: %+v", s2.Replayed())
			}
		})
	}
}

// TestStateCrossCodecMigration: a state in a JSON-era log survives the
// compaction that migrates the log to binary.
func TestStateCrossCodecMigration(t *testing.T) {
	dir := t.TempDir()
	writeJSONEraLog(t, dir, StateRecord{Type: recState, Name: "analytics", Payload: []byte(`{"cells":[]}`)})
	s, err := Open(dir, Options{}) // migrates at Open
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got, ok := s.State("analytics"); !ok || !bytes.Equal(got, []byte(`{"cells":[]}`)) {
		t.Fatalf("state lost across codec migration: %q, %v", got, ok)
	}
	checkBinaryFiles(t, dir)
}

func TestPutStateValidation(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.PutState("", []byte(`{}`)); err == nil {
		t.Fatal("empty state name accepted")
	}
}

func TestHasJob(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{RetainJobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	appendJob(t, s, "job-000001", "sweep")
	if !s.HasJob("job-000001") {
		t.Fatal("appended job not indexed")
	}
	if s.HasJob("job-999999") {
		t.Fatal("unknown job reported present")
	}
	// Push two more terminal jobs through so compaction evicts the oldest.
	for _, id := range []string{"job-000001", "job-000002", "job-000003"} {
		appendJob(t, s, id, "sweep")
		if err := s.AppendDone(DoneRecord{JobID: id, State: "done"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if s.HasJob("job-000001") {
		t.Fatal("evicted job still reported present")
	}
	if !s.HasJob("job-000003") {
		t.Fatal("retained job lost")
	}
}
