package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"
)

// BenchmarkWALAppendBinary measures the serving-path record append: one
// result record per iteration into a live store, compaction disabled so
// the numbers are pure encode+write. bytes/record is the acceptance
// criterion's metric.
func BenchmarkWALAppendBinary(b *testing.B) {
	s, err := Open(b.TempDir(), Options{RetainJobs: 1 << 20, CompactEvery: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	if err := s.AppendJob(JobRecord{ID: "job-000001", Kind: "sweep", Created: time.Unix(1700000000, 0).UTC(),
		Specs: mustJSON(b, []map[string]string{{"benchmark": "gcm_n13"}})}); err != nil {
		b.Fatal(err)
	}
	payloads := make([]json.RawMessage, 16)
	for i := range payloads {
		payloads[i] = resultPayload(b, i)
	}
	before := s.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.AppendResult(ResultRecord{JobID: "job-000001", Index: i,
			Key: fmt.Sprintf("cachekey-%032d", i), Result: payloads[i%len(payloads)]}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	after := s.Stats()
	if n := after.Records - before.Records; n > 0 {
		b.ReportMetric(float64(after.Bytes-before.Bytes)/float64(n), "bytes/record")
	}
}

// benchReplayLog builds a one-job, many-result log in memory, binary or
// JSON-era, for the replay benchmarks.
func benchReplayLog(b *testing.B, codec string, results int) []byte {
	var buf bytes.Buffer
	if codec == CodecBinary {
		buf.Write(walMagic[:])
	}
	emit := func(v any) { buf.Write(refEncode(b, codec, v)) }
	emit(JobRecord{Type: recJob, ID: "job-000001", Kind: "sweep", Created: time.Unix(1700000000, 0).UTC(),
		Specs: mustJSON(b, []map[string]string{{"benchmark": "gcm_n13"}})})
	payloads := make([]json.RawMessage, 16)
	for i := range payloads {
		payloads[i] = resultPayload(b, i)
	}
	for i := 0; i < results; i++ {
		emit(ResultRecord{Type: recResult, JobID: "job-000001", Index: i,
			Key: fmt.Sprintf("cachekey-%032d", i), Result: payloads[i%len(payloads)]})
	}
	emit(DoneRecord{Type: recDone, JobID: "job-000001", State: "done"})
	return buf.Bytes()
}

// benchReplay measures a full 100k-result WAL replay — the restart cost
// the snapshot+binary work is meant to bound.
func benchReplay(b *testing.B, codec string) {
	const results = 100_000
	log := benchReplayLog(b, codec, results)
	b.SetBytes(int64(len(log)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jobs, records, dropped, err := Replay(bytes.NewReader(log))
		if err != nil || dropped != 0 {
			b.Fatalf("replay: records=%d dropped=%d err=%v", records, dropped, err)
		}
		if len(jobs) != 1 || len(jobs[0].Results) != results {
			b.Fatalf("replay lost results: %d jobs", len(jobs))
		}
	}
}

func BenchmarkWALReplayBinary(b *testing.B) { benchReplay(b, CodecBinary) }
func BenchmarkWALReplayJSON(b *testing.B)   { benchReplay(b, CodecJSON) }

// BenchmarkWALCompact measures one compaction of a store holding about 40k
// live results — 104 finished 384-configuration sweeps, the payload
// fixtures of benchAppend — the whole-snapshot rewrite that runs inline
// under the store lock every CompactEvery appends.
func BenchmarkWALCompact(b *testing.B) {
	const jobs, perJob = 104, 384
	s, err := Open(b.TempDir(), Options{RetainJobs: jobs, CompactEvery: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	payloads := make([]json.RawMessage, 16)
	for i := range payloads {
		payloads[i] = resultPayload(b, i)
	}
	for j := 1; j <= jobs; j++ {
		id := fmt.Sprintf("job-%06d", j)
		if err := s.AppendJob(JobRecord{ID: id, Kind: "sweep", Created: time.Unix(1700000000, 0).UTC(),
			Specs: mustJSON(b, []map[string]string{{"benchmark": "gcm_n13"}})}); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < perJob; i++ {
			if err := s.AppendResult(ResultRecord{JobID: id, Index: i,
				Key: fmt.Sprintf("cachekey-%032d", j*perJob+i), Result: payloads[i%len(payloads)]}); err != nil {
				b.Fatal(err)
			}
		}
		if err := s.AppendDone(DoneRecord{JobID: id, State: "done"}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Compact(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := s.Stats(); st.SnapshotRecords != jobs*(perJob+2) {
		b.Fatalf("snapshot holds %d records", st.SnapshotRecords)
	}
}
