package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
	"time"
)

// binFrame encodes one record for fuzz seeding, panicking on the
// impossible (seed records are all encodable).
func binFrame(v any) []byte {
	f, err := encodeRecord(v)
	if err != nil {
		panic(err)
	}
	return f
}

// binLog assembles a header plus frames into one binary log.
func binLog(frames ...[]byte) []byte {
	log := append([]byte{}, walMagic[:]...)
	for _, f := range frames {
		log = append(log, f...)
	}
	return log
}

// FuzzReplay hammers the WAL replayer with arbitrary log bytes — valid
// prefixes with truncated/corrupt tails, binary garbage, oversized lines —
// and asserts the crash-tolerance contract: no panic, a clean log replays
// fully, and appending a torn tail to any valid log never loses the
// records before it.
func FuzzReplay(f *testing.F) {
	valid := `{"type":"job","id":"job-000001","kind":"sweep","specs":[{"benchmark":"gcm_n13"}]}
{"type":"result","job":"job-000001","index":0,"key":"abc","result":{"index":0}}
{"type":"done","job":"job-000001","state":"done"}
`
	f.Add([]byte(valid))
	f.Add([]byte(valid + `{"type":"result","job":"job-000001","ind`))
	f.Add([]byte(`{"type":"job","id":"job-000001"`))
	f.Add([]byte("\x00\x01\x02 not a log"))
	f.Add([]byte(`{"type":"mystery","job":"x"}`))
	f.Add([]byte(`{"type":"result","job":"","index":0}` + "\n"))
	f.Add([]byte(strings.Repeat(`{"type":"done","job":"job-000009","state":"done"}`+"\n", 50)))
	f.Add(bytes.Repeat([]byte("a"), 1<<16))

	// Binary-codec logs: clean, torn mid-frame, bit-flipped, and a bare
	// header — the sniffing replayer must route and survive them all.
	validBin := binLog(
		binFrame(JobRecord{ID: "job-000001", Kind: "sweep", Created: time.Unix(1700000000, 0).UTC(),
			Specs: json.RawMessage(`[{"benchmark":"gcm_n13"}]`)}),
		binFrame(ResultRecord{JobID: "job-000001", Index: 0, Key: "abc", Result: json.RawMessage(`{"index":0}`)}),
		binFrame(DoneRecord{JobID: "job-000001", State: "done"}),
	)
	f.Add(validBin)
	f.Add(validBin[:len(validBin)-7])
	flipped := append([]byte{}, validBin...)
	flipped[len(validBin)/2] ^= 0x20
	f.Add(flipped)
	f.Add(walMagic[:])
	f.Add([]byte("RQWAL\x00\x07\n binary log from the future"))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Replay must never panic and must account every input record as
		// either replayed or dropped.
		jobs, records, dropped, err := Replay(bytes.NewReader(data))
		if err != nil {
			return // corrupt mid-log: rejected, fine
		}
		if records < 0 || dropped < 0 {
			t.Fatalf("negative accounting: records=%d dropped=%d", records, dropped)
		}
		for _, j := range jobs {
			if j.Job.ID == "" {
				t.Fatalf("replayed job without id: %+v", j)
			}
			for i, r := range j.Results {
				if r.Index != i {
					t.Fatalf("job %s results out of order: %+v", j.Job.ID, j.Results)
				}
			}
		}

		// Crash signature: any replayable log plus a torn tail must keep
		// every record of the clean prefix.
		torn := append([]byte(valid), data...)
		if i := bytes.LastIndexByte(torn, '\n'); i >= 0 && i < len(torn)-1 {
			torn = torn[:i+1+(len(torn)-i-1)/2] // truncate inside the final line
		}
		jobs2, records2, _, err := Replay(bytes.NewReader(torn))
		if err != nil {
			return // the fuzz payload itself was mid-log corrupt
		}
		if records2 < 3 {
			t.Fatalf("torn tail lost the clean prefix: %d records", records2)
		}
		found := false
		for _, j := range jobs2 {
			if j.Job.ID == "job-000001" && len(j.Results) >= 1 && j.Results[0].Key == "abc" {
				found = true
			}
		}
		if !found {
			t.Fatal("torn tail lost job-000001's persisted result")
		}
	})
}

// FuzzDecodeRecord hammers the binary frame decoder with arbitrary bytes —
// seeded from real encoded records plus truncated, bit-flipped and
// oversized frames — and asserts its contract: no panic, every decoded
// record is well-formed and re-encodable, and errors classify cleanly as
// end-of-stream, torn tail, or corruption.
func FuzzDecodeRecord(f *testing.F) {
	job := binFrame(JobRecord{ID: "job-000001", Kind: "sweep", Created: time.Unix(1700000000, 42).UTC(),
		Specs: json.RawMessage(`[{"benchmark":"gcm_n13"}]`)})
	// Big enough to take the compressed path.
	res := binFrame(ResultRecord{JobID: "job-000001", Index: 3, Key: "abc",
		Result: json.RawMessage(`{"summary":{"runs":[` + strings.Repeat(`{"total_cycles":48211},`, 20) + `{}]}}`)})
	done := binFrame(DoneRecord{JobID: "job-000001", State: "failed", Error: "boom"})

	f.Add(job)
	f.Add(res)
	f.Add(done)
	f.Add(append(append([]byte{}, job...), done...)) // two frames back to back
	f.Add(job[:len(job)/2])                          // torn mid-frame
	f.Add(job[:1])                                   // torn inside the length prefix
	flipped := append([]byte{}, res...)
	flipped[len(res)/2] ^= 0x01
	f.Add(flipped)                                                   // CRC must catch the flip
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1})       // oversized frame length
	f.Add([]byte{0x00})                                              // frame length below minimum
	f.Add([]byte{4, binKindJob, 0xff, 0, 0, 0xde, 0xad, 0xbe, 0xef}) // unknown flags

	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		for {
			rec, complete, err := readBinaryRecord(br)
			if err != nil {
				if err == io.EOF && complete {
					t.Fatal("EOF reported alongside a complete frame")
				}
				return
			}
			if !complete {
				t.Fatal("decoded record from an incomplete frame")
			}
			// Whatever decodes must be well-formed enough to survive a
			// round-trip: the store re-encodes exactly these shapes at
			// compaction time.
			switch r := rec.(type) {
			case JobRecord:
				if r.Type != recJob {
					t.Fatalf("job record with type %q", r.Type)
				}
			case ResultRecord:
				if r.Type != recResult || r.Index < 0 {
					t.Fatalf("malformed result record: %+v", r)
				}
			case DoneRecord:
				if r.Type != recDone {
					t.Fatalf("done record with type %q", r.Type)
				}
			default:
				t.Fatalf("decoder produced unknown type %T", rec)
			}
			if _, err := encodeRecord(rec); err != nil {
				t.Fatalf("decoded record does not re-encode: %v (%+v)", err, rec)
			}
		}
	})
}
