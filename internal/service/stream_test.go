package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/store"
)

// flushCounter counts a streaming response's flushes. The first one (the
// headers) runs beforeFirst, which lets a test hold the stream back.
type flushCounter struct {
	*httptest.ResponseRecorder
	flushes     int
	beforeFirst func()
}

func (w *flushCounter) Flush() {
	w.flushes++
	if w.flushes == 1 && w.beforeFirst != nil {
		w.beforeFirst()
	}
	w.ResponseRecorder.Flush()
}

// flushSweep is 2 benchmarks x 3 schedulers x 4 distances x 2 error rates
// = 48 configurations.
var flushSweep = SweepRequest{
	Benchmarks: []string{"gcm_n13", "qft_n18"},
	Distances:  []int{3, 5, 7, 9},
	PhysErrors: []float64{1e-4, 1e-3},
	Runs:       1,
}

// TestCachedStreamFlushesOncePerWakeUp: a stream writes every result
// delivered since its last wake-up and then flushes once, so a cached
// sweep that lands while the stream is busy costs one flush, not one per
// line. The header flush here waits until the job has finished, so the
// whole sweep is ready at the stream's first wake-up: at most one flush
// for the headers, one for that wake-up and one for the terminal record.
func TestCachedStreamFlushesOncePerWakeUp(t *testing.T) {
	runner := &countingRunner{}
	s, _ := newTestServer(t, config.Daemon{Workers: 2}, runner)
	serve := func(req SweepRequest, w http.ResponseWriter) {
		data, _ := json.Marshal(req)
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(data)))
	}
	serve(flushSweep, httptest.NewRecorder()) // fills the cache
	const configs = 48
	if n := runner.calls.Load(); n != configs {
		t.Fatalf("cold sweep ran %d configurations, want %d", n, configs)
	}
	for _, mode := range []string{StreamNDJSON, StreamSSE} {
		t.Run(mode, func(t *testing.T) {
			w := &flushCounter{ResponseRecorder: httptest.NewRecorder()}
			w.beforeFirst = func() {
				for _, j := range s.Jobs() {
					select {
					case <-j.Done():
					case <-time.After(10 * time.Second):
						t.Errorf("%s did not finish", j.ID)
					}
				}
			}
			req := flushSweep
			req.Stream = mode
			serve(req, w)
			body := w.Body.String()
			got, want := strings.Count(body, "\n"), configs+1 // the configurations, then the job view
			if mode == StreamSSE {
				got, want = strings.Count(body, "event: config\n"), configs
			}
			if got != want {
				t.Fatalf("streamed %d records, want %d", got, want)
			}
			if w.flushes > 3 {
				t.Fatalf("a fully cached %d-config stream flushed %d times, want <= 3 (headers, one wake-up, end)", configs, w.flushes)
			}
			if n := runner.calls.Load(); n != configs {
				t.Fatalf("cached sweep reached the engine: %d runs", n-configs)
			}
		})
	}
}

// TestStreamSendsFirstResultWhileSecondComputes: flushing once per wake-up
// holds nothing back. A stream that has caught up flushes at once, so the
// first line of an engine-backed sweep reaches the client while the second
// configuration is still blocked in the runner.
func TestStreamSendsFirstResultWhileSecondComputes(t *testing.T) {
	runner := &countingRunner{block: make(chan struct{}), started: make(chan struct{})}
	_, ts := newTestServer(t, config.Daemon{Workers: 1}, runner)
	req := SweepRequest{Benchmarks: []string{"gcm_n13"}, Schedulers: []string{"greedy"}, Distances: []int{3, 5}, Stream: StreamNDJSON}
	data, _ := json.Marshal(req)
	type line struct {
		text string
		err  error
	}
	lines := make(chan line, 3)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(data))
		if err != nil {
			lines <- line{err: err}
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			lines <- line{text: sc.Text()}
		}
		close(lines)
	}()
	<-runner.started
	runner.block <- struct{}{} // the first configuration completes
	<-runner.started           // the second is now held in the runner
	select {
	case l := <-lines:
		if l.err != nil {
			t.Fatal(l.err)
		}
		var res ConfigResult
		if err := json.Unmarshal([]byte(l.text), &res); err != nil || res.Index != 0 || res.Summary == nil {
			t.Fatalf("first streamed line %q is not configuration 0 (%v)", l.text, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the first result did not reach the client while the second configuration computed")
	}
	close(runner.block)
	n := 1
	for range lines {
		n++
	}
	if n != 3 {
		t.Fatalf("stream carried %d lines, want 2 configurations and the job view", n)
	}
}

// TestStreamedResultIsPersistedFirst: a result reaches the stream only
// after its WAL record is written. Every WAL write is slowed by 2 ms, and
// as each NDJSON line arrives the test reads the log file directly (not
// through the store, whose lock would wait out a write in progress): it
// must already hold the record of that line and of every line before it.
func TestStreamedResultIsPersistedFirst(t *testing.T) {
	if err := fault.Configure(fault.WALWrite+"=delay(2ms)", 1); err != nil {
		t.Fatal(err)
	}
	defer fault.Disable()
	dir := t.TempDir()
	_, ts, _ := durableServer(t, config.Daemon{Workers: 2}, &countingRunner{}, dir)
	data, _ := json.Marshal(determinismSweep)
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	id := resp.Header.Get("X-Job-ID")
	sc := bufio.NewScanner(resp.Body)
	const configs = 24
	for i := 0; i < configs; i++ {
		if !sc.Scan() {
			t.Fatalf("stream ended after %d lines: %v", i, sc.Err())
		}
		if n := loggedResults(t, dir, id); n < i+1 {
			t.Fatalf("line %d reached the client with %d of its job's results in the WAL, want >= %d", i, n, i+1)
		}
	}
}

// loggedResults replays the WAL's log file and counts job id's results.
func loggedResults(t *testing.T, dir, id string) int {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, store.WALName))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	jobs, _, _, err := store.Replay(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, rj := range jobs {
		if rj.Job.ID == id {
			return len(rj.Results)
		}
	}
	return 0
}
