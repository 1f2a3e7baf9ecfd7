package service

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/config"
	"repro/internal/resultcodec"
	"repro/internal/store"
)

// TestResultPayloadErasReplayAlike is the migration test for typed result
// payloads. The analytics fixture's records are written in each format a
// store dir can hold:
//
//   - json-era: headerless JSON lines;
//   - binary-flate: binary frames with flate-compressed JSON results, as
//     logs were written before results went typed;
//   - typed: binary frames with uncompressed typed results, as the daemon
//     writes them now.
//
// All three must print the same JSON lines through rescq-walcat's dump,
// and a daemon booted on each must replay the same jobs, cache entries
// and analytics answers (the checked-in goldens). So must a JSON-era log
// written while rescq.Options had a "parallel" field, whose job specs and
// result payloads carry "parallel":true: those decoders are not strict.
func TestResultPayloadErasReplayAlike(t *testing.T) {
	recs := fixtureRecords()
	dirs := map[string]string{
		"json-era":     writeStoreDir(t, jsonLinesLog(t, recs)),
		"binary-flate": writeStoreDir(t, flateResultsLog(t, recs)),
		"typed":        typedStoreDir(t, recs),
	}
	eras := []string{"json-era", "binary-flate", "typed"}
	parallelLog := jsonLinesLog(t, withParallelOption(recs))
	if !bytes.Contains(parallelLog, []byte(`"options":{"parallel":true,`)) {
		t.Fatal("no result payload carries the parallel option")
	}
	dirs["json-era parallel"] = writeStoreDir(t, parallelLog)

	// The dumps match each other and the JSON-era log itself.
	want := string(jsonLinesLog(t, recs))
	for _, era := range eras {
		if got := dumpStoreDir(t, dirs[era]); got != want {
			t.Errorf("%s dump differs from the JSON-era log:\n got %s\nwant %s", era, got, want)
		}
	}

	type replayed struct {
		stats   ReplayStats
		jobs    map[string]string
		cache   map[string]string
		answers map[string]string
	}
	boot := func(dir string) replayed {
		s := New(config.Daemon{Workers: 1}, newGatedRunner())
		rs, err := s.AttachStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		s.Start()
		defer shutdownServer(t, s)
		r := replayed{stats: rs, jobs: map[string]string{}, cache: map[string]string{}, answers: map[string]string{}}
		h := s.Handler()
		fetch := func(url string) string {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
			if rec.Code != 200 {
				t.Fatalf("GET %s = %d: %s", url, rec.Code, rec.Body.String())
			}
			return rec.Body.String()
		}
		for _, rec := range recs {
			switch rec := rec.(type) {
			case store.JobRecord:
				r.jobs[rec.ID] = fetch("/v1/jobs/" + rec.ID)
			case store.ResultRecord:
				v, ok := s.cache.get(rec.Key)
				if !ok {
					continue
				}
				cs := v.(*cachedSummary)
				b, err := json.Marshal(struct {
					Opts    any
					Sum     any
					Partial bool
				}{cs.opts, cs.sum, cs.partial})
				if err != nil {
					t.Fatal(err)
				}
				r.cache[rec.Key] = string(b)
			}
		}
		for _, q := range goldenQueries {
			r.answers[q.name] = fetch(q.url)
		}
		return r
	}

	base := boot(dirs["json-era"])
	if base.stats.Jobs != 2 || len(base.cache) != 12 {
		t.Fatalf("json-era replay: %+v, %d cache entries; want 2 jobs, 12 entries", base.stats, len(base.cache))
	}
	for _, q := range goldenQueries {
		golden, err := os.ReadFile(goldenPath(q.name))
		if err != nil {
			t.Fatal(err)
		}
		if base.answers[q.name] != string(golden) {
			t.Fatalf("json-era %s diverged from its golden", q.name)
		}
	}
	for _, era := range append(eras[1:], "json-era parallel") {
		got := boot(dirs[era])
		if got.stats != base.stats {
			t.Errorf("%s replay stats %+v, json-era %+v", era, got.stats, base.stats)
		}
		for name, m := range map[string][2]map[string]string{
			"job": {got.jobs, base.jobs}, "cache entry": {got.cache, base.cache}, "analytics answer": {got.answers, base.answers},
		} {
			if len(m[0]) != len(m[1]) {
				t.Errorf("%s: %d %ss, json-era %d", era, len(m[0]), name, len(m[1]))
			}
			for k, v := range m[1] {
				if m[0][k] != v {
					t.Errorf("%s %s %s:\n got %s\nwant %s", era, name, k, m[0][k], v)
				}
			}
		}
	}
}

// withParallelOption returns recs with "parallel":true added to every job
// spec's and result payload's options, as logs carried it while
// rescq.Options had that field.
func withParallelOption(recs []any) []any {
	out := make([]any, len(recs))
	for i, rec := range recs {
		switch r := rec.(type) {
		case store.JobRecord:
			r.Specs = bytes.ReplaceAll(r.Specs, []byte(`"Opts":{`), []byte(`"Opts":{"parallel":true,`))
			rec = r
		case store.ResultRecord:
			r.Result = bytes.ReplaceAll(r.Result, []byte(`"options":{`), []byte(`"options":{"parallel":true,`))
			rec = r
		}
		out[i] = rec
	}
	return out
}

// jsonLinesLog renders records as a JSON-era log.
func jsonLinesLog(t *testing.T, recs []any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// flateResultsLog renders records as a binary log whose frames compress
// every body of 256 bytes or more, result records included: the frames
// the store wrote before results went uncompressed. It is written from
// the frame format the internal/store package documents: uvarint payload
// length | kind, flags, length-prefixed fields | CRC32-IEEE.
func flateResultsLog(t *testing.T, recs []any) []byte {
	t.Helper()
	log := []byte(binaryWALHeader)
	compressed := 0
	for _, rec := range recs {
		var kind byte
		var body []byte
		blob := func(p []byte) {
			body = binary.AppendUvarint(body, uint64(len(p)))
			body = append(body, p...)
		}
		switch r := rec.(type) {
		case store.JobRecord:
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
		case store.ResultRecord:
			kind = 2
			blob([]byte(r.JobID))
			body = binary.AppendUvarint(body, uint64(r.Index))
			blob([]byte(r.Key))
			blob(r.Result)
		case store.DoneRecord:
			kind = 3
			blob([]byte(r.JobID))
			blob([]byte(r.State))
			blob([]byte(r.Error))
		default:
			t.Fatalf("flateResultsLog: %T", rec)
		}
		flags := byte(0)
		if len(body) >= 256 {
			var z bytes.Buffer
			zw, _ := flate.NewWriter(&z, flate.BestSpeed)
			zw.Write(body)
			zw.Close()
			if z.Len() < len(body) {
				body, flags = z.Bytes(), 1
				if kind == 2 {
					compressed++
				}
			}
		}
		payload := append([]byte{kind, flags}, body...)
		log = binary.AppendUvarint(log, uint64(len(payload)))
		log = append(log, payload...)
		log = binary.LittleEndian.AppendUint32(log, crc32.ChecksumIEEE(payload))
	}
	if compressed == 0 {
		t.Fatal("flateResultsLog compressed no result frame")
	}
	return log
}

// writeStoreDir makes a store dir whose log is the given bytes.
func writeStoreDir(t *testing.T, log []byte) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, store.WALName), log, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// typedStoreDir writes records through the store, with each result
// payload in the typed encoding, as the daemon's persist path does.
func typedStoreDir(t *testing.T, recs []any) string {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		switch r := rec.(type) {
		case store.JobRecord:
			err = st.AppendJob(r)
		case store.ResultRecord:
			var res ConfigResult
			if err = resultcodec.Decode(r.Result, &res); err != nil {
				t.Fatal(err)
			}
			if r.Result, err = resultcodec.Append(nil, &res); err != nil {
				t.Fatal(err)
			}
			err = st.AppendResult(r)
		case store.DoneRecord:
			err = st.AppendDone(r)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// dumpStoreDir prints a store dir's snapshot, then its log, as
// rescq-walcat does.
func dumpStoreDir(t *testing.T, dir string) string {
	t.Helper()
	var out bytes.Buffer
	for _, name := range []string{store.SnapName, store.WALName} {
		f, err := os.Open(filepath.Join(dir, name))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		err = store.Dump(f, &out, resultcodec.JSON)
		f.Close()
		if err != nil {
			t.Fatalf("dump %s: %v", name, err)
		}
	}
	return out.String()
}
