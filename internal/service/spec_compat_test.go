package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/config"
	"repro/internal/resultcodec"
	"repro/internal/store"
)

// TestJobSpecErasReplayAlike is the migration test for typed job specs.
// Two sources of records are each written in the forms a store dir can
// hold:
//
//   - as written: testdata/json_specs_wal.bin, a crashed store of the
//     build before typed specs (binary frames, flate-compressed JSON
//     specs, typed results): a sweep, a tenant's latency-keeping run on a
//     layout with params, a circuit-text run and an experiment;
//   - json-era: headerless JSON lines (the analytics fixture's own form);
//   - typed: binary frames with uncompressed typed specs and typed
//     results, as this build writes them.
//
// Every form of a source must replay to the same GET /v1/jobs listing, the
// same job views and the same cache entries under the same keys. The
// typed form's job frames must be uncompressed and hold typed specs, so
// replaying them inflates nothing and decodes no JSON.
func TestJobSpecErasReplayAlike(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "json_specs_wal.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if jobFrames(t, raw, func(flags byte, _ []byte) bool { return flags != 0 }) == 0 {
		t.Fatal("the fixture holds no compressed job frame")
	}
	sources := map[string]struct {
		recs    []any
		written string
	}{
		"parent fixture":   {replayedRecords(t, raw), writeStoreDir(t, raw)},
		"analytics golden": {fixtureRecords(), ""},
	}
	for name, src := range sources {
		dirs := map[string]string{
			"json-era": writeStoreDir(t, jsonLinesLog(t, jsonEraRecords(t, src.recs))),
			"typed":    typedStoreDir(t, typedSpecRecords(t, src.recs)),
		}
		if src.written != "" {
			dirs["as written"] = src.written
		}
		all, bad := 0, 0
		for _, name := range []string{store.SnapName, store.WALName} {
			log, err := os.ReadFile(filepath.Join(dirs["typed"], name))
			if err != nil {
				t.Fatal(err)
			}
			all += jobFrames(t, log, func(byte, []byte) bool { return true })
			bad += jobFrames(t, log, func(flags byte, specs []byte) bool {
				return flags != 0 || len(specs) == 0 || specs[0] == '['
			})
		}
		if all == 0 || bad != 0 {
			t.Fatalf("%s: %d of %d typed job frames are compressed or hold JSON specs", name, bad, all)
		}
		want := replayViews(t, dirs["json-era"])
		if len(want) < 3 {
			t.Fatalf("%s: json-era replay shows %d views", name, len(want))
		}
		for form, dir := range dirs {
			got := replayViews(t, dir)
			if len(got) != len(want) {
				t.Errorf("%s %s: %d views, json-era %d", name, form, len(got), len(want))
			}
			for k, v := range want {
				if got[k] != v {
					t.Errorf("%s %s %s:\n got %s\nwant %s", name, form, k, got[k], v)
				}
			}
		}
	}
}

// replayViews boots a daemon on a copy of dir and returns what it serves
// from the replay: the job listing, each job's view, and each cache
// entry, keyed by what they are.
func replayViews(t *testing.T, dir string) map[string]string {
	t.Helper()
	copyDir := t.TempDir()
	for _, name := range []string{store.SnapName, store.WALName} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(copyDir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := New(config.Daemon{Workers: 1}, newGatedRunner())
	if _, err := s.AttachStore(copyDir); err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer shutdownServer(t, s)
	h := s.Handler()
	fetch := func(url string) string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		if rec.Code != 200 {
			t.Fatalf("GET %s = %d: %s", url, rec.Code, rec.Body.String())
		}
		return rec.Body.String()
	}
	views := map[string]string{"GET /v1/jobs": fetch("/v1/jobs")}
	var list []JobView
	if err := json.Unmarshal([]byte(views["GET /v1/jobs"]), &list); err != nil {
		t.Fatal(err)
	}
	for _, j := range list {
		views["GET /v1/jobs/"+j.ID] = fetch("/v1/jobs/" + j.ID)
	}
	s.cache.mu.Lock()
	keys := make([]string, 0, len(s.cache.entries))
	for k := range s.cache.entries {
		keys = append(keys, k)
	}
	s.cache.mu.Unlock()
	sort.Strings(keys)
	for _, k := range keys {
		v, _ := s.cache.get(k)
		var b []byte
		var err error
		if cs, ok := v.(*cachedSummary); ok {
			b, err = json.Marshal(struct {
				Opts    any
				Sum     any
				Partial bool
			}{cs.opts, cs.sum, cs.partial})
		} else {
			b, err = json.Marshal(v)
		}
		if err != nil {
			t.Fatal(err)
		}
		views["cache "+k] = string(b)
	}
	return views
}

// replayedRecords reads a log back as records in replay order: each job's
// record, its results, then its done marker.
func replayedRecords(t *testing.T, raw []byte) []any {
	t.Helper()
	jobs, _, dropped, err := store.Replay(bytes.NewReader(raw))
	if err != nil || dropped != 0 {
		t.Fatalf("replay: dropped %d, err %v", dropped, err)
	}
	var recs []any
	for _, j := range jobs {
		recs = append(recs, j.Job)
		for _, r := range j.Results {
			recs = append(recs, r)
		}
		if j.Terminal() {
			recs = append(recs, store.DoneRecord{Type: "done", JobID: j.Job.ID, State: j.State, Error: j.Error})
		}
	}
	return recs
}

// jsonEraRecords returns recs with every spec list and result payload in
// its JSON form.
func jsonEraRecords(t *testing.T, recs []any) []any {
	t.Helper()
	out := make([]any, len(recs))
	for i, rec := range recs {
		var err error
		switch r := rec.(type) {
		case store.JobRecord:
			r.Specs, err = resultcodec.JSON(r.Specs)
			rec = r
		case store.ResultRecord:
			r.Result, err = resultcodec.JSON(r.Result)
			rec = r
		}
		if err != nil {
			t.Fatal(err)
		}
		out[i] = rec
	}
	return out
}

// typedSpecRecords returns recs with every spec list in its typed
// encoding, as the daemon's persist path writes it.
func typedSpecRecords(t *testing.T, recs []any) []any {
	t.Helper()
	out := make([]any, len(recs))
	for i, rec := range recs {
		if r, ok := rec.(store.JobRecord); ok {
			specs, err := decodeJobSpecs(r.Specs)
			if err != nil {
				t.Fatal(err)
			}
			list := make([]*resultcodec.Spec, len(specs))
			for k := range specs {
				list[k] = &specs[k].Spec
			}
			if r.Specs, err = resultcodec.AppendSpecs(nil, list...); err != nil {
				t.Fatal(err)
			}
			rec = r
		}
		out[i] = rec
	}
	return out
}

// jobFrames walks a binary log's frames (the format internal/store
// documents) and counts the job frames for which match, given the frame's
// flags byte and its spec blob (nil when the body is compressed), is true.
func jobFrames(t *testing.T, log []byte, match func(flags byte, specs []byte) bool) int {
	t.Helper()
	if !bytes.HasPrefix(log, []byte(binaryWALHeader)) {
		t.Fatal("not a binary log")
	}
	b := log[len(binaryWALHeader):]
	n := 0
	for len(b) > 0 {
		size, sz := binary.Uvarint(b)
		if sz <= 0 || uint64(len(b)-sz) < size+4 {
			t.Fatal("torn frame")
		}
		payload := b[sz : sz+int(size)]
		b = b[sz+int(size)+4:]
		if payload[0] != 1 { // job
			continue
		}
		var specs []byte
		if payload[1] == 0 {
			body := payload[2:]
			for i := 0; i < 4; i++ { // id, kind, created, specs
				l, lsz := binary.Uvarint(body)
				specs, body = body[lsz:lsz+int(l)], body[lsz+int(l):]
			}
		}
		if match(payload[1], specs) {
			n++
		}
	}
	return n
}
