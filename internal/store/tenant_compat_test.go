package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"
)

// TestJobRecordTenantRoundTrip: a tagged job record survives the binary
// codec, and a JSON-era line, with its tenant intact.
func TestJobRecordTenantRoundTrip(t *testing.T) {
	rec := JobRecord{Type: recJob, ID: "job-000001", Kind: "sweep",
		Created: time.Unix(1700000000, 123).UTC(),
		Specs:   json.RawMessage(`[{"benchmark":"gcm_n13"}]`),
		Tenant:  "alice"}

	t.Run("json", func(t *testing.T) {
		got, err := decodeJSONLine(refEncode(t, CodecJSON, rec))
		if err != nil {
			t.Fatal(err)
		}
		if jr, ok := got.(JobRecord); !ok || jr.Tenant != "alice" {
			t.Fatalf("JSON-era line decodes to %+v, want tenant alice", got)
		}
	})

	t.Run("binary", func(t *testing.T) {
		frame, err := encodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		got, complete, err := readBinaryRecord(bufio.NewReader(bytes.NewReader(frame)))
		if err != nil || !complete {
			t.Fatalf("decode: complete=%v err=%v", complete, err)
		}
		jr, ok := got.(JobRecord)
		if !ok {
			t.Fatalf("decoded %T, want JobRecord", got)
		}
		if !bytes.Equal(mustJSON(t, jr), mustJSON(t, rec)) {
			t.Fatalf("binary round-trip:\n got %s\nwant %s", mustJSON(t, jr), mustJSON(t, rec))
		}
	})
}

// TestUntaggedJobRecordUnchanged pins backward compatibility in both
// directions: a record without a tenant encodes exactly as the pre-tenancy
// codecs did (no tenant key, no fifth blob), and pre-tenancy bytes decode
// to Tenant "" (which the service maps to the default tenant on replay).
func TestUntaggedJobRecordUnchanged(t *testing.T) {
	rec := JobRecord{Type: recJob, ID: "job-000007", Kind: "run",
		Created: time.Unix(1700000000, 0).UTC(),
		Specs:   json.RawMessage(`[{"benchmark":"qft_n18"}]`)}

	jsonFrame := refEncode(t, CodecJSON, rec)
	if strings.Contains(string(jsonFrame), "tenant") {
		t.Fatalf("untagged JSON record leaks a tenant key: %s", jsonFrame)
	}

	plain, err := encodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	tagged := rec
	tagged.Tenant = "alice"
	taggedFrame, err := encodeRecord(tagged)
	if err != nil {
		t.Fatal(err)
	}
	// The only delta a tenant adds is its own trailing blob (1-byte uvarint
	// length + the name); an untagged record is byte-compatible with logs
	// written before tenancy existed.
	if want := len(plain) + 1 + len("alice"); len(taggedFrame) != want {
		t.Fatalf("tagged frame is %d bytes, want %d (untagged %d + tenant blob)",
			len(taggedFrame), want, len(plain))
	}
	got, complete, err := readBinaryRecord(bufio.NewReader(bytes.NewReader(plain)))
	if err != nil || !complete {
		t.Fatalf("decode untagged: complete=%v err=%v", complete, err)
	}
	if jr := got.(JobRecord); jr.Tenant != "" {
		t.Fatalf("untagged record decodes with tenant %q, want empty", jr.Tenant)
	}
}

// TestReplayMixedTenantRecords: one log holding pre-tenancy (untagged) and
// tenant-tagged job records replays both, preserving each job's tag, on
// both codecs.
func TestReplayMixedTenantRecords(t *testing.T) {
	records := []any{
		JobRecord{Type: recJob, ID: "job-000001", Kind: "sweep",
			Specs: json.RawMessage(`[{"benchmark":"gcm_n13"}]`)}, // pre-tenancy
		ResultRecord{Type: recResult, JobID: "job-000001", Index: 0, Key: "k0",
			Result: json.RawMessage(`{"ok":1}`)},
		DoneRecord{Type: recDone, JobID: "job-000001", State: "done"},
		JobRecord{Type: recJob, ID: "job-000002", Kind: "run", Tenant: "alice",
			Specs: json.RawMessage(`[{"benchmark":"qft_n18"}]`)},
	}
	for _, codec := range []string{CodecJSON, CodecBinary} {
		t.Run(codec, func(t *testing.T) {
			var buf bytes.Buffer
			if codec == CodecBinary {
				buf.Write(walMagic[:])
			}
			for _, rec := range records {
				buf.Write(refEncode(t, codec, rec))
			}
			jobs, n, dropped, err := Replay(&buf)
			if err != nil || dropped != 0 {
				t.Fatalf("replay: err=%v dropped=%d", err, dropped)
			}
			if n != len(records) || len(jobs) != 2 {
				t.Fatalf("replayed %d records / %d jobs, want %d / 2", n, len(jobs), len(records))
			}
			if got := jobs[0].Job.Tenant; got != "" {
				t.Fatalf("pre-tenancy job replays with tenant %q, want empty", got)
			}
			if jobs[0].State != "done" || len(jobs[0].Results) != 1 {
				t.Fatalf("job-000001 = state %q, %d results", jobs[0].State, len(jobs[0].Results))
			}
			if got := jobs[1].Job.Tenant; got != "alice" {
				t.Fatalf("tagged job replays with tenant %q, want alice", got)
			}
		})
	}
}

// TestTenantSurvivesStoreReopen: the tenant tag round-trips through the
// real append/compact/replay path, not just the codec.
func TestTenantSurvivesStoreReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendJob(JobRecord{ID: "job-000001", Kind: "run", Tenant: "alice",
		Specs: json.RawMessage(`[{"benchmark":"gcm_n13"}]`)}); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendJob(JobRecord{ID: "job-000002", Kind: "run",
		Specs: json.RawMessage(`[{"benchmark":"qft_n18"}]`)}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	jobs := st2.Replayed()
	if len(jobs) != 2 {
		t.Fatalf("replayed %d jobs, want 2", len(jobs))
	}
	if jobs[0].Job.Tenant != "alice" || jobs[1].Job.Tenant != "" {
		t.Fatalf("tenants = %q/%q, want alice/empty", jobs[0].Job.Tenant, jobs[1].Job.Tenant)
	}
}

// TestBinaryJobTrailingJunkRejected: bytes after the optional tenant blob
// are corruption, not silently ignored.
func TestBinaryJobTrailingJunkRejected(t *testing.T) {
	created, err := time.Time{}.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var body []byte
	body = appendBlob(body, []byte("job-000001"))
	body = appendBlob(body, []byte("run"))
	body = appendBlob(body, created)
	body = appendBlob(body, nil) // nil Specs
	body = appendBlob(body, []byte("alice"))
	if _, err := decodeBinaryBody(binKindJob, body); err != nil {
		t.Fatalf("well-formed tagged body rejected: %v", err)
	}
	junk := appendBlob(body, []byte("junk"))
	if _, err := decodeBinaryBody(binKindJob, junk); !errors.Is(err, errCorruptRecord) {
		t.Fatalf("trailing junk decode err = %v, want errCorruptRecord", err)
	}
}
