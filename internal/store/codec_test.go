package store

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	rescq "repro"
	"repro/internal/fault"
	"repro/internal/resultcodec"
)

// resultFixture builds a representative persisted result: a ConfigResult
// summary as the service stores it (latencies stripped). run varies the
// numbers so payloads are distinct but realistically shaped.
func resultFixture(run int) resultcodec.ConfigResult {
	runs := make([]rescq.Result, 3)
	for i := range runs {
		runs[i] = rescq.Result{
			Scheduler:        "rescq",
			Benchmark:        "gcm_n13",
			Seed:             int64(1000*run + i),
			TotalCycles:      48211 + 13*run + i,
			MeanIdleFraction: 0.31 + float64(run%7)/100,
			PrepsStarted:     911 + run,
			InjectionsCount:  402 + i,
			EdgeRotations:    87,
		}
	}
	return resultcodec.ConfigResult{Index: run, Summary: &rescq.Summary{
		Benchmark:  "gcm_n13",
		Scheduler:  "rescq",
		Runs:       runs,
		MeanCycles: 48217.3 + float64(run),
		MinCycles:  48211 + run,
		MaxCycles:  48224 + run,
		StdCycles:  5.43,
		MeanIdle:   0.312,
	}}
}

// resultPayload is resultFixture(run) as JSON, the payload of logs
// written before the typed encoding, with the heavily repeated key
// structure real summaries have.
func resultPayload(t testing.TB, run int) json.RawMessage {
	t.Helper()
	return mustJSON(t, resultFixture(run))
}

// typedResultPayload is resultFixture(run) in the typed encoding, the
// payload the daemon writes.
func typedResultPayload(t testing.TB, run int) []byte {
	t.Helper()
	res := resultFixture(run)
	b, err := resultcodec.Append(nil, &res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBinaryRecordRoundTrip(t *testing.T) {
	recs := []any{
		JobRecord{Type: recJob, ID: "job-000001", Kind: "sweep",
			Created: time.Unix(1700000000, 123).UTC(),
			Specs:   json.RawMessage(`[{"benchmark":"gcm_n13"}]`)},
		JobRecord{Type: recJob, ID: "job-000002"}, // zero time, nil specs
		ResultRecord{Type: recResult, JobID: "job-000001", Index: 0, Key: "cache-key",
			Result: resultPayload(t, 0)}, // results are never compressed, however big
		ResultRecord{Type: recResult, JobID: "job-000001", Index: 1,
			Result: json.RawMessage(`{}`)},
		DoneRecord{Type: recDone, JobID: "job-000001", State: "failed", Error: "boom"},
		DoneRecord{Type: recDone, JobID: "job-000002", State: "done"},
	}
	var buf bytes.Buffer
	for _, rec := range recs {
		frame, err := encodeRecord(rec)
		if err != nil {
			t.Fatalf("encode %T: %v", rec, err)
		}
		buf.Write(frame)
	}
	br := bufio.NewReader(&buf)
	for i, want := range recs {
		got, complete, err := readBinaryRecord(br)
		if err != nil || !complete {
			t.Fatalf("decode record %d: complete=%v err=%v", i, complete, err)
		}
		// Every field (including raw payload bytes) survives the JSON
		// projection, so comparing marshaled forms covers the round-trip
		// without tripping over time.Time's internal representation.
		if !bytes.Equal(mustJSON(t, got), mustJSON(t, want)) {
			t.Fatalf("record %d round-trip:\n got %s\nwant %s", i, mustJSON(t, got), mustJSON(t, want))
		}
	}
	if _, _, err := readBinaryRecord(br); err != io.EOF {
		t.Fatalf("trailing read = %v, want EOF", err)
	}
}

// TestBinaryBytesPerResultRecord pins the acceptance criterion: a binary
// result record with the typed payload the daemon writes spends at least
// 2x fewer bytes than a JSON-era log line of the same result.
func TestBinaryBytesPerResultRecord(t *testing.T) {
	const n = 64
	var jsonBytes, binBytes int
	for i := 0; i < n; i++ {
		rec := ResultRecord{Type: recResult, JobID: "job-000042", Index: i,
			Key: fmt.Sprintf("cachekey-%032d", i), Result: resultPayload(t, i)}
		jf := refEncode(t, CodecJSON, rec)
		rec.Result = typedResultPayload(t, i)
		bf, err := encodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		jsonBytes += len(jf)
		binBytes += len(bf)
	}
	ratio := float64(jsonBytes) / float64(binBytes)
	t.Logf("bytes/record: json=%d binary=%d ratio=%.2fx", jsonBytes/n, binBytes/n, ratio)
	if ratio < 2 {
		t.Fatalf("binary codec saves only %.2fx bytes per result record, want >= 2x", ratio)
	}
}

// TestFlateResultFramesReplayAndCopyVerbatim: a log whose result frames
// are flate-compressed JSON, as the store wrote them before results went
// uncompressed, replays to the same records as the current encoding of
// them, and compaction copies its frames as they are.
func TestFlateResultFramesReplayAndCopyVerbatim(t *testing.T) {
	recs := []any{JobRecord{Type: recJob, ID: "job-000001", Kind: "sweep", Created: time.Unix(1700000000, 0).UTC(),
		Specs: mustJSON(t, []map[string]string{{"benchmark": "gcm_n13"}})}}
	for i := 0; i < 3; i++ {
		recs = append(recs, ResultRecord{Type: recResult, JobID: "job-000001", Index: i,
			Key: fmt.Sprintf("k%d", i), Result: resultPayload(t, i)})
	}
	recs = append(recs, DoneRecord{Type: recDone, JobID: "job-000001", State: "done"})
	logs := map[string][]byte{}
	for _, codec := range []string{codecBinaryV1, CodecBinary} {
		log := append([]byte{}, walMagic[:]...)
		for _, rec := range recs {
			log = append(log, refEncode(t, codec, rec)...)
		}
		logs[codec] = log
	}
	// The fixture really holds compressed result frames, and only they
	// differ from today's encoding.
	if bytes.Equal(logs[codecBinaryV1], logs[CodecBinary]) {
		t.Fatal("the v1 fixture compresses nothing")
	}
	var dumps [2]bytes.Buffer
	for i, codec := range []string{codecBinaryV1, CodecBinary} {
		if err := Dump(bytes.NewReader(logs[codec]), &dumps[i], nil); err != nil {
			t.Fatal(err)
		}
	}
	if dumps[0].String() != dumps[1].String() {
		t.Fatalf("v1 frames replay differently:\n%s\nvs\n%s", dumps[0].String(), dumps[1].String())
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, WALName), logs[codecBinaryV1], 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	jobs := s.Replayed()
	if len(jobs) != 1 || len(jobs[0].Results) != 3 || !bytes.Equal(jobs[0].Results[2].Result, resultPayload(t, 2)) {
		t.Fatalf("replayed %+v", jobs)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(dir, SnapName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap, logs[codecBinaryV1]) {
		t.Fatal("compaction did not copy the v1 frames verbatim")
	}
}

// TestJSONLogMigratesForward: a JSON-era wal.jsonl opens, replays
// byte-identically, and is migrated to the binary codec by the Open-time
// compaction.
func TestJSONLogMigratesForward(t *testing.T) {
	dir := t.TempDir()
	payload := resultPayload(t, 1)
	log := `{"type":"job","id":"job-000001","kind":"sweep","created":"2026-01-02T03:04:05Z","specs":[{"benchmark":"gcm_n13"}]}
{"type":"result","job":"job-000001","index":0,"key":"k0","result":` + string(payload) + `}
{"type":"done","job":"job-000001","state":"done"}
{"type":"job","id":"job-000002","kind":"run","specs":[{"benchmark":"qft_n18"}]}
`
	if err := os.WriteFile(filepath.Join(dir, WALName), []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open on a JSON-era log: %v", err)
	}
	jobs := s.Replayed()
	if len(jobs) != 2 {
		t.Fatalf("replayed %d jobs, want 2", len(jobs))
	}
	if !bytes.Equal(jobs[0].Results[0].Result, payload) {
		t.Fatalf("result payload not byte-identical after migration:\n got %s\nwant %s",
			jobs[0].Results[0].Result, payload)
	}
	if st := s.Stats(); st.Compactions == 0 {
		t.Fatal("Open did not compact the JSON log forward")
	}
	checkBinaryFiles(t, dir)
	// New appends land in the binary codec.
	appendResult(t, s, "job-000002", 0)
	if st := s.Stats(); st.AppendsBinary != 1 {
		t.Fatalf("append accounting after migration = %+v", st)
	}
	s.Close()

	// The on-disk files are still binary, and a second Open sees it all.
	checkBinaryFiles(t, dir)
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	jobs = s2.Replayed()
	if len(jobs) != 2 || len(jobs[0].Results) != 1 || len(jobs[1].Results) != 1 {
		t.Fatalf("replay after migration = %+v", jobs)
	}
	if !bytes.Equal(jobs[0].Results[0].Result, payload) {
		t.Fatal("result payload corrupted by the binary round-trip")
	}
}

// TestTornTailShortWriteRecovery is the regression test for the append
// corruption bug: a short write used to leave a torn partial record that
// the next successful append concatenated onto, making the log
// unreplayable. Now the partial write is truncated back immediately, so
// recovery + append + restart replays with zero dropped records. The json
// leg starts from a JSON-era store holding a finished job, which Open
// migrates into the snapshot before the appends under test.
func TestTornTailShortWriteRecovery(t *testing.T) {
	for _, codec := range []string{CodecBinary, CodecJSON} {
		t.Run(codec, func(t *testing.T) {
			dir := t.TempDir()
			wantJobs := 1
			if codec == CodecJSON {
				writeJSONEraLog(t, dir,
					JobRecord{Type: recJob, ID: "job-000000", Kind: "run", Specs: mustJSON(t, []string{"spec"})},
					DoneRecord{Type: recDone, JobID: "job-000000", State: "done"})
				wantJobs = 2
			}
			s, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			appendJob(t, s, "job-000001", "sweep")
			sizeBefore := s.Stats().Bytes
			logPath := filepath.Join(dir, WALName)
			fi, err := os.Stat(logPath)
			if err != nil {
				t.Fatal(err)
			}
			logBefore := fi.Size()

			// The disk completes half the record's write, then errors.
			if err := fault.Configure(fault.WALWrite+"=1*err(short)", 1); err != nil {
				t.Fatal(err)
			}
			defer fault.Disable()
			err = s.AppendResult(ResultRecord{JobID: "job-000001", Index: 0,
				Key: "k0", Result: resultPayload(t, 0)})
			if !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("append under short write = %v, want ErrInjected", err)
			}

			// The partial record was truncated back off the log: the file
			// is exactly as long as before the failed append, and nothing
			// partial was counted into Stats.Bytes.
			if st := s.Stats(); st.Bytes != sizeBefore {
				t.Fatalf("Stats.Bytes counted a failed append: %d, want %d", st.Bytes, sizeBefore)
			}
			if fi, err = os.Stat(logPath); err != nil {
				t.Fatal(err)
			}
			if fi.Size() != logBefore {
				t.Fatalf("torn tail left on disk: log is %d bytes, want %d", fi.Size(), logBefore)
			}

			// Durability recovers, the append succeeds, and the raw log —
			// before any compaction could paper over damage — replays
			// cleanly with every record intact.
			fault.Disable()
			if err := s.AppendResult(ResultRecord{JobID: "job-000001", Index: 0,
				Key: "k0", Result: resultPayload(t, 0)}); err != nil {
				t.Fatalf("append after recovery: %v", err)
			}
			raw, err := os.ReadFile(logPath)
			if err != nil {
				t.Fatal(err)
			}
			jobs, records, dropped, err := Replay(bytes.NewReader(raw))
			if err != nil {
				t.Fatalf("replay after recovery: %v", err)
			}
			if records != 2 || dropped != 0 {
				t.Fatalf("replay after recovery: records=%d dropped=%d, want 2/0", records, dropped)
			}
			if len(jobs) != 1 || len(jobs[0].Results) != 1 || jobs[0].Results[0].Key != "k0" {
				t.Fatalf("replay after recovery lost data: %+v", jobs)
			}

			// And the restart path agrees: Open replays without drops.
			s.Close()
			s2, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("Open after recovery: %v", err)
			}
			defer s2.Close()
			if st := s2.Stats(); st.TailDropped != 0 {
				t.Fatalf("restart dropped %d records after a recovered short write", st.TailDropped)
			}
			if jobs := s2.Replayed(); len(jobs) != wantJobs || len(jobs[wantJobs-1].Results) != 1 {
				t.Fatalf("restart replay = %+v", jobs)
			}
		})
	}
}

// TestSnapshotDeltaReplay: after a compaction, state lives in the
// snapshot and new appends in the log delta; a crash (no Close, no final
// compaction) must replay the union.
func TestSnapshotDeltaReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendJob(t, s, "job-000001", "sweep")
	appendResult(t, s, "job-000001", 0)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.SnapshotRecords != 2 || st.Records != 2 {
		t.Fatalf("after compaction: %+v, want 2 snapshot records", st)
	}
	// Delta after the snapshot.
	appendResult(t, s, "job-000001", 1)
	appendJob(t, s, "job-000002", "run")

	// Crash: drop the handle without Close's final compaction.
	s.mu.Lock()
	s.f.Close()
	s.f = nil
	s.mu.Unlock()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open after crash: %v", err)
	}
	defer s2.Close()
	jobs := s2.Replayed()
	if len(jobs) != 2 || len(jobs[0].Results) != 2 || jobs[1].Job.Kind != "run" {
		t.Fatalf("snapshot+delta replay = %+v", jobs)
	}
	if st := s2.Stats(); st.TailDropped != 0 {
		t.Fatalf("clean crash replay dropped records: %+v", st)
	}
}

// TestUnsupportedBinaryVersion: a future-versioned log is refused whole
// rather than misparsed.
func TestUnsupportedBinaryVersion(t *testing.T) {
	future := append([]byte{}, walMagic[:]...)
	future[6] = binVersion + 1
	_, _, _, err := Replay(bytes.NewReader(future))
	if err == nil || !strings.Contains(err.Error(), "unsupported binary log version") {
		t.Fatalf("future version replay = %v, want unsupported-version error", err)
	}

	// And Open refuses it too, rather than clobbering the log.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, WALName), future, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "unsupported binary log version") {
		t.Fatalf("Open on future version = %v, want unsupported-version error", err)
	}
}

// TestBinaryMidLogCorruption: a bit flip in a non-final frame fails the
// replay (CRC catches it, and complete records after it prove it is not a
// crash tail); the same flip in the final frame is tolerated as a tail.
func TestBinaryMidLogCorruption(t *testing.T) {
	frame := func(v any) []byte {
		f, err := encodeRecord(v)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	j := frame(JobRecord{ID: "job-000001", Kind: "run"})
	r := frame(ResultRecord{JobID: "job-000001", Index: 0, Result: json.RawMessage(`{}`)})
	d := frame(DoneRecord{JobID: "job-000001", State: "done"})

	log := append([]byte{}, walMagic[:]...)
	log = append(log, j...)
	log = append(log, r...)
	log = append(log, d...)
	flip := len(walMagic) + len(j) + 4 // inside the result frame's payload
	log[flip] ^= 0x40

	_, _, _, err := Replay(bytes.NewReader(log))
	if err == nil || !strings.Contains(err.Error(), "corrupt record") {
		t.Fatalf("mid-log bit flip replay = %v, want corrupt-record error", err)
	}

	// Same flip in the final frame: tolerated as a (possibly torn) tail.
	tail := append([]byte{}, walMagic[:]...)
	tail = append(tail, j...)
	tail = append(tail, r...)
	tail[len(walMagic)+len(j)+4] ^= 0x40
	jobs, records, dropped, err := Replay(bytes.NewReader(tail))
	if err != nil {
		t.Fatalf("corrupt-tail replay = %v, want tolerated", err)
	}
	if records != 1 || dropped != 1 || len(jobs) != 1 {
		t.Fatalf("corrupt tail: records=%d dropped=%d jobs=%d, want 1/1/1", records, dropped, len(jobs))
	}
}

// allocatedBy returns the heap bytes fn allocates.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDeflateKeepsItsWriterAcrossGC: the compressor survives a GC cycle,
// so compressing a sweep's job record does not build a new megabyte-sized
// flate writer each time.
func TestDeflateKeepsItsWriterAcrossGC(t *testing.T) {
	specs := make([]map[string]any, 384)
	for i := range specs {
		specs[i] = map[string]any{
			"Benchmark": []string{"vqe_n13", "qft_n18", "gcm_n13"}[i%3],
			"Opts":      map[string]any{"distance": 5 + 2*(i%4), "phys_error": 1e-4 * float64(1+i%4), "runs": 1, "seed": 42},
		}
	}
	body, err := json.Marshal(specs)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := deflate(body); !ok {
		t.Fatal("a 384-spec job body should compress")
	}
	// Two cycles: the first only moves a sync.Pool's items to its victim
	// cache, the second drops them.
	runtime.GC()
	runtime.GC()
	second := allocatedBy(func() { deflate(body) })
	fresh := allocatedBy(func() { flate.NewWriter(io.Discard, flate.BestSpeed) })
	t.Logf("deflate after GC allocated %d B; a fresh flate writer %d B", second, fresh)
	if second >= fresh/10 {
		t.Fatalf("deflate after GC allocated %d B, want < %d (a tenth of a fresh writer)", second, fresh/10)
	}
}
