package store

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestDumpReplaysLikeItsSource: the JSON lines Dump prints for a binary
// snapshot or log are themselves a valid JSON-era log, replaying to the
// same jobs as the binary file.
func TestDumpReplaysLikeItsSource(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{RetainJobs: 3, CompactEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, s, 1, 4, 3)
	if err := s.PutState("analytics", []byte(`{"v":"<&>"}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	fill(t, s, 5, 6, 2)
	crash(s)

	for _, name := range []string{SnapName, WALName} {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		var dump bytes.Buffer
		if err := Dump(bytes.NewReader(raw), &dump); err != nil {
			t.Fatalf("dump %s: %v", name, err)
		}
		if bytes.HasPrefix(dump.Bytes(), walMagic[:]) || !bytes.HasPrefix(dump.Bytes(), []byte(`{"type":`)) {
			t.Fatalf("dump of %s is not JSON lines: %q", name, dump.Bytes()[:min(dump.Len(), 40)])
		}
		want, wantRecords, _, err := Replay(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		got, gotRecords, dropped, err := Replay(&dump)
		if err != nil || dropped != 0 {
			t.Fatalf("replay dump of %s: dropped %d, err %v", name, dropped, err)
		}
		if gotRecords != wantRecords || !reflect.DeepEqual(got, want) {
			t.Fatalf("dump of %s replays to %d records\n%+v\nwant %d\n%+v", name, gotRecords, got, wantRecords, want)
		}
	}
}

// TestDumpJSONEraAndTornTail: a JSON-era log dumps to its own lines, and a
// torn tail is reported after the records before it are printed.
func TestDumpJSONEraAndTornTail(t *testing.T) {
	var log bytes.Buffer
	for _, rec := range []any{
		JobRecord{Type: recJob, ID: "job-000001", Kind: "run", Specs: mustJSON(t, []string{"spec"})},
		DoneRecord{Type: recDone, JobID: "job-000001", State: "done"},
	} {
		log.Write(refEncode(t, CodecJSON, rec))
	}
	var dump bytes.Buffer
	if err := Dump(bytes.NewReader(log.Bytes()), &dump); err != nil {
		t.Fatal(err)
	}
	if dump.String() != log.String() {
		t.Fatalf("JSON-era dump:\n%s\nwant\n%s", dump.String(), log.String())
	}

	bin := append(append([]byte{}, walMagic[:]...), refEncode(t, CodecBinary, DoneRecord{Type: recDone, JobID: "j", State: "done"})...)
	dump.Reset()
	err := Dump(bytes.NewReader(bin[:len(bin)-2]), &dump)
	if err == nil || !strings.Contains(err.Error(), "1 torn") || dump.Len() != 0 {
		t.Fatalf("torn dump: err %v, output %q", err, dump.String())
	}
}
