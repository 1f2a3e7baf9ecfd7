package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func mustJSON(t testing.TB, v any) json.RawMessage {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func appendJob(t *testing.T, s *Store, id, kind string) {
	t.Helper()
	if err := s.AppendJob(JobRecord{ID: id, Kind: kind, Created: time.Unix(1700000000, 0).UTC(),
		Specs: mustJSON(t, []map[string]string{{"benchmark": "gcm_n13"}})}); err != nil {
		t.Fatalf("AppendJob(%s): %v", id, err)
	}
}

func appendResult(t *testing.T, s *Store, id string, idx int) {
	t.Helper()
	if err := s.AppendResult(ResultRecord{JobID: id, Index: idx, Key: fmt.Sprintf("key-%s-%d", id, idx),
		Result: mustJSON(t, map[string]int{"index": idx})}); err != nil {
		t.Fatalf("AppendResult(%s,%d): %v", id, idx, err)
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendJob(t, s, "job-000001", "sweep")
	appendResult(t, s, "job-000001", 0)
	appendResult(t, s, "job-000001", 1)
	if err := s.AppendDone(DoneRecord{JobID: "job-000001", State: "done"}); err != nil {
		t.Fatal(err)
	}
	appendJob(t, s, "job-000002", "run") // interrupted: no done record
	appendResult(t, s, "job-000002", 0)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	jobs := s2.Replayed()
	if len(jobs) != 2 {
		t.Fatalf("replayed %d jobs, want 2", len(jobs))
	}
	j1, j2 := jobs[0], jobs[1]
	if j1.Job.ID != "job-000001" || !j1.Terminal() || j1.State != "done" || len(j1.Results) != 2 {
		t.Fatalf("job 1 = %+v", j1)
	}
	if j1.Results[1].Key != "key-job-000001-1" {
		t.Fatalf("result key = %q", j1.Results[1].Key)
	}
	if j2.Job.ID != "job-000002" || j2.Terminal() || len(j2.Results) != 1 {
		t.Fatalf("interrupted job = %+v", j2)
	}
	if j2.Job.Kind != "run" || string(j2.Job.Specs) == "" {
		t.Fatalf("interrupted job lost its record: %+v", j2.Job)
	}
}

// TestReplayTruncatedTail: a crash mid-append leaves a torn final line;
// replay recovers every complete record before it.
func TestReplayTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendJob(t, s, "job-000001", "sweep")
	appendResult(t, s, "job-000001", 0)
	s.Close()

	path := filepath.Join(dir, WALName)
	// Simulate the crash: append half of a record, no newline.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"type":"result","job":"job-000001","ind`)
	f.Close()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open after torn tail: %v", err)
	}
	defer s2.Close()
	jobs := s2.Replayed()
	if len(jobs) != 1 || len(jobs[0].Results) != 1 {
		t.Fatalf("replay after torn tail = %+v", jobs)
	}
	if st := s2.Stats(); st.TailDropped != 1 {
		t.Fatalf("tail dropped = %d, want 1", st.TailDropped)
	}
	// Open compacted the torn tail away; a third open is clean.
	s2.Close()
	s3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if st := s3.Stats(); st.TailDropped != 0 {
		t.Fatalf("compaction left a torn tail behind: %+v", st)
	}
}

// TestReplayMidLogCorruption: garbage followed by more complete records is
// not a crash signature — replay refuses rather than silently dropping
// history.
func TestReplayMidLogCorruption(t *testing.T) {
	log := `{"type":"job","id":"job-000001","kind":"run","specs":[]}
NOT JSON AT ALL
{"type":"done","job":"job-000001","state":"done"}
`
	_, _, _, err := Replay(strings.NewReader(log))
	if err == nil {
		t.Fatal("mid-log corruption accepted")
	}
	if !strings.Contains(err.Error(), "corrupt record") {
		t.Fatalf("err = %v", err)
	}
}

func TestReplayOutOfOrderAndDuplicates(t *testing.T) {
	log := `{"type":"result","job":"job-000002","index":0,"key":"k0","result":{}}
{"type":"job","id":"job-000002","kind":"sweep","specs":[{"benchmark":"x"}]}
{"type":"result","job":"job-000002","index":0,"key":"dup","result":{}}
{"type":"result","job":"job-000002","index":2,"key":"gap","result":{}}
{"type":"result","job":"job-000002","index":1,"key":"k1","result":{}}
{"type":"job","id":"job-000002","kind":"run","specs":[]}
{"type":"done","job":"job-000002","state":"cancelled","error":"ctx"}
{"type":"done","job":"job-000002","state":"done"}
{"type":"result","job":"job-000001","index":0,"key":"orphan","result":{}}
`
	jobs, records, dropped, err := Replay(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if records != 9 || dropped != 0 {
		t.Fatalf("records=%d dropped=%d", records, dropped)
	}
	if len(jobs) != 2 {
		t.Fatalf("jobs = %d, want 2 (orphan job synthesized)", len(jobs))
	}
	orphan, j := jobs[0], jobs[1]
	if j.Job.ID != "job-000002" || j.Job.Kind != "sweep" {
		t.Fatalf("first job record must win: %+v", j.Job)
	}
	if len(j.Results) != 2 || j.Results[0].Key != "k0" || j.Results[1].Key != "k1" {
		t.Fatalf("results = %+v (dups and gaps must be dropped)", j.Results)
	}
	if j.State != "cancelled" || j.Error != "ctx" {
		t.Fatalf("first done record must win: %+v", j)
	}
	if orphan.Job.ID != "job-000001" || orphan.Job.Specs != nil || len(orphan.Results) != 1 {
		t.Fatalf("orphan = %+v", orphan)
	}
}

func TestCompactionRetentionAndShrink(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{RetainJobs: 4, CompactEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		id := fmt.Sprintf("job-%06d", i)
		appendJob(t, s, id, "run")
		appendResult(t, s, id, 0)
		if err := s.AppendDone(DoneRecord{JobID: id, State: "done"}); err != nil {
			t.Fatal(err)
		}
	}
	appendJob(t, s, "job-000011", "sweep") // interrupted: always retained
	before := s.Stats()
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if after.Jobs != 5 { // 4 newest terminal + the interrupted one
		t.Fatalf("jobs after compaction = %d, want 5", after.Jobs)
	}
	if after.Bytes >= before.Bytes || after.Records >= before.Records {
		t.Fatalf("compaction did not shrink: before %+v after %+v", before, after)
	}
	if after.Compactions == 0 {
		t.Fatal("compaction not counted")
	}
	s.Close()

	s2, err := Open(dir, Options{RetainJobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	jobs := s2.Replayed()
	if len(jobs) != 5 {
		t.Fatalf("replayed %d jobs after compaction, want 5", len(jobs))
	}
	if got := jobs[0].Job.ID; got != "job-000007" {
		t.Fatalf("oldest retained = %s, want job-000007", got)
	}
	last := jobs[len(jobs)-1]
	if last.Job.ID != "job-000011" || last.Terminal() {
		t.Fatalf("interrupted job lost by compaction: %+v", last)
	}
}

func TestAutoCompactionOnThreshold(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{RetainJobs: 2, CompactEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 1; i <= 20; i++ {
		id := fmt.Sprintf("job-%06d", i)
		appendJob(t, s, id, "run")
		if err := s.AppendDone(DoneRecord{JobID: id, State: "done"}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Compactions == 0 {
		t.Fatal("append threshold never triggered compaction")
	}
	if st.Jobs > 4 || st.Records > 8 {
		t.Fatalf("auto-compaction failed to bound the log: %+v", st)
	}
}

// TestAutoCompactionIsGeometric: once the snapshot outgrows CompactEvery,
// the log must grow as large as the snapshot before the next compaction,
// so a growing store compacts at doubling sizes (8, 16, 32, ... records
// here) rather than rewriting the whole snapshot every CompactEvery
// appends.
func TestAutoCompactionIsGeometric(t *testing.T) {
	const every = 8
	s, err := Open(t.TempDir(), Options{CompactEvery: every})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	appendJob(t, s, "job-000001", "sweep")
	for i := 0; i < 1000; i++ {
		appendResult(t, s, "job-000001", i)
		st := s.Stats()
		if log := st.Records - st.SnapshotRecords; log > max(every, st.SnapshotRecords) {
			t.Fatalf("after %d results the log holds %d records beside a %d-record snapshot", i+1, log, st.SnapshotRecords)
		}
	}
	// 1,001 appends compact at 8, 16, 32, ..., 512 records: 7 times,
	// where a fixed interval of 8 would have compacted 125 times.
	if st := s.Stats(); st.Compactions != 7 || st.Records != 1001 {
		t.Fatalf("compactions = %d, records = %d; want 7 compactions over 1001 records", st.Compactions, st.Records)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := s.AppendJob(JobRecord{ID: "job-000001"}); err == nil {
		t.Fatal("append after close succeeded")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestDuplicateJobAppendIsNoop(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	appendJob(t, s, "job-000001", "run")
	recordsBefore := s.Stats().Records
	appendJob(t, s, "job-000001", "run")
	if got := s.Stats().Records; got != recordsBefore {
		t.Fatalf("duplicate job appended a record (%d -> %d)", recordsBefore, got)
	}
}
