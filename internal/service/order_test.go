package service

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/resultcodec"
	"repro/internal/store"
)

// TestJobsListOrderAfterReplay pins the GET /v1/jobs ordering fix: the
// listing must come back in numeric job-id order regardless of the map
// iteration order of the registry shards the WAL replay landed in, and
// regardless of ids that outgrew their zero padding ("job-1000000" sorts
// after "job-999999", where plain string order would put it first).
func TestJobsListOrderAfterReplay(t *testing.T) {
	dir := t.TempDir()
	// Hand-write a WAL whose record order is maximally unhelpful:
	// terminal jobs appended out of id order, with a 7-digit id between
	// 6-digit ones.
	var wal []byte
	for _, id := range []string{"job-1000000", "job-000007", "job-999999", "job-000002"} {
		wal = append(wal, []byte(fmt.Sprintf(
			`{"type":"job","id":%q,"kind":"run","specs":[{"Benchmark":"gcm_n13"}]}`+"\n"+
				`{"type":"done","job":%q,"state":"done"}`+"\n", id, id))...)
	}
	if err := os.WriteFile(filepath.Join(dir, store.WALName), wal, 0o644); err != nil {
		t.Fatal(err)
	}

	s := New(config.Daemon{}, &countingRunner{})
	if _, err := s.AttachStore(dir); err != nil {
		t.Fatalf("AttachStore: %v", err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})

	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	views := decode[[]JobView](t, resp)
	want := []string{"job-000002", "job-000007", "job-999999", "job-1000000"}
	if len(views) != len(want) {
		t.Fatalf("listed %d jobs, want %d", len(views), len(want))
	}
	for i, v := range views {
		if v.ID != want[i] {
			t.Fatalf("listing[%d] = %s, want %s (full order %v)", i, v.ID, want[i], ids(views))
		}
	}

	// The replay must also have advanced the id counter past the largest
	// replayed id, so a fresh submission cannot collide.
	j := s.newJob("run", "", []runSpec{{Spec: resultcodec.Spec{Benchmark: "gcm_n13"}}})
	if store.JobIDLess(j.ID, "job-1000000") || j.ID == "job-1000000" {
		t.Fatalf("fresh job id %s does not follow job-1000000", j.ID)
	}
}

func ids(views []JobView) []string {
	out := make([]string, len(views))
	for i, v := range views {
		out[i] = v.ID
	}
	return out
}

// TestJobIDLess pins the comparator itself.
func TestJobIDLess(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"job-000001", "job-000002", true},
		{"job-000002", "job-000001", false},
		{"job-999999", "job-1000000", true},
		{"job-1000000", "job-999999", false},
		{"job-000010", "job-000009", false},
		{"job-01", "job-1", true}, // equal counters: string order breaks the tie
		{"alpha", "beta", true},   // no numeric suffix: string order
		{"job-5", "task-2", true}, // different prefixes: string order
	}
	for _, tc := range cases {
		if got := store.JobIDLess(tc.a, tc.b); got != tc.want {
			t.Errorf("JobIDLess(%q, %q) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}
