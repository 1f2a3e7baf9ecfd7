package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDaemon compiles cmd/rescqd from the checkout at repo into out. The
// go command skips the link when out is already up to date.
func buildDaemon(repo, out string) error {
	cmd := exec.Command("go", "build", "-o", out, "./cmd/rescqd")
	cmd.Dir = repo
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("build rescqd: %w", err)
	}
	return nil
}

// findRepo walks up from the working directory to the checkout that holds
// cmd/rescqd, so the harness runs the same from the repository root and
// from its own directory.
func findRepo() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "rescqd", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no checkout with cmd/rescqd above the working directory")
		}
		dir = parent
	}
}

// daemon is one running rescqd process.
type daemon struct {
	name   string
	url    string
	cmd    *exec.Cmd
	exited chan struct{}
}

// live tracks every daemon not yet reaped, so an error path or a signal
// can stop them all.
var live = struct {
	sync.Mutex
	set map[*daemon]bool
}{set: make(map[*daemon]bool)}

// addrWatch forwards the daemon's stdout to its log and reports the bound
// address from the "listening on" line.
type addrWatch struct {
	mu   sync.Mutex
	log  io.Writer
	buf  []byte
	addr chan string
}

func (w *addrWatch) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.log.Write(p)
	if w.buf == nil {
		return len(p), nil // address already reported
	}
	w.buf = append(w.buf, p...)
	const marker = "listening on "
	if i := bytes.Index(w.buf, []byte(marker)); i >= 0 {
		rest := w.buf[i+len(marker):]
		if j := bytes.IndexByte(rest, ' '); j >= 0 {
			w.addr <- string(rest[:j])
			w.buf = nil
		}
	}
	return len(p), nil
}

// startDaemon launches bin with a fresh store directory under dir plus the
// extra flags, and returns once it has printed its bound address. Logs go
// to dir/<name>.log.
func startDaemon(bin, dir, name string, extra ...string) (*daemon, error) {
	logf, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	// The daemons run below the harness's priority: the load generator
	// needs little CPU, but when the daemons saturate both cores its send
	// times would otherwise slip behind them.
	args := append([]string{"-n", "10", bin, "-addr", "127.0.0.1:0"}, extra...)
	cmd := exec.Command("nice", args...)
	watch := &addrWatch{log: logf, buf: []byte{}, addr: make(chan string, 1)}
	cmd.Stdout, cmd.Stderr = watch, logf
	// The daemons must not outlive the harness, whatever ends it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	d := &daemon{name: name, cmd: cmd, exited: make(chan struct{})}
	live.Lock()
	live.set[d] = true
	live.Unlock()
	go func() {
		cmd.Wait()
		logf.Close()
		close(d.exited)
	}()
	select {
	case addr := <-watch.addr:
		d.url = "http://" + addr
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("%s exited before listening; see %s", name, logf.Name())
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, fmt.Errorf("%s did not listen within 60s", name)
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// kill crashes the daemon with SIGKILL and reaps it.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
	d.forget()
}

func (d *daemon) forget() {
	live.Lock()
	delete(live.set, d)
	live.Unlock()
}

// killAll crashes every daemon still running.
func killAll() {
	live.Lock()
	ds := make([]*daemon, 0, len(live.set))
	for d := range live.set {
		ds = append(ds, d)
	}
	live.Unlock()
	for _, d := range ds {
		d.kill()
	}
}

// cpuTime reads a process's user+system CPU time from /proc/<pid>/stat.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	// utime and stime are fields 14 and 15, the 12th and 13th after it.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var ticks int64
	for _, s := range f[11:13] {
		t, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += t
	}
	// USER_HZ is 100 on every Linux ABI the daemon builds for.
	return time.Duration(ticks) * 10 * time.Millisecond, nil
}

// statusKB reads one memory field of /proc/<pid>/status, in KiB: VmRSS
// (resident now) or VmHWM (its high-water mark).
func statusKB(pid int, field string) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, field+":"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// deployment is the set of daemons one workload talks to; api is the one
// clients send requests to (the standalone daemon or the coordinator).
type deployment struct {
	api     *daemon
	daemons []*daemon
}

func (dp *deployment) cpu() (time.Duration, error) {
	var sum time.Duration
	for _, d := range dp.daemons {
		t, err := cpuTime(d.pid())
		if err != nil {
			return 0, err
		}
		sum += t
	}
	return sum, nil
}

func (dp *deployment) memKB(field string) (int64, error) {
	var sum int64
	for _, d := range dp.daemons {
		kb, err := statusKB(d.pid(), field)
		if err != nil {
			return 0, err
		}
		sum += kb
	}
	return sum, nil
}

func (dp *deployment) rssKB() (int64, error)  { return dp.memKB("VmRSS") }
func (dp *deployment) peakKB() (int64, error) { return dp.memKB("VmHWM") }

// scrape sums every /metrics series over the deployment's daemons.
func (dp *deployment) scrape(c *http.Client) (prom, error) {
	defer dp.dropWorkerConns(c)
	sum := prom{}
	for _, d := range dp.daemons {
		body, err := get(c, d.url+"/metrics")
		if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(string(body), "\n") {
			if line == "" || line[0] == '#' {
				continue
			}
			i := strings.LastIndexByte(line, ' ')
			if i < 0 {
				continue
			}
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if err != nil {
				continue
			}
			sum[line[:i]] += v
		}
	}
	return sum, nil
}

// dropWorkerConns closes the client's idle connections after it has
// talked to a cluster's workers, which the load never goes to, so the
// connection limit holds across daemons and not only per daemon. Closing
// the idle connection to the coordinator too costs one local reconnect.
func (dp *deployment) dropWorkerConns(c *http.Client) {
	if len(dp.daemons) > 1 {
		c.CloseIdleConnections()
	}
}

func (dp *deployment) kill() {
	for _, d := range dp.daemons {
		d.kill()
	}
}

// prom is one scrape of Prometheus series, keyed by name and labels.
type prom map[string]float64

// delta returns after−before summed over the named series, matching every
// label set of each name.
func delta(before, after prom, names ...string) float64 {
	var d float64
	for key, v := range after {
		name, _, _ := strings.Cut(key, "{")
		for _, n := range names {
			if name == n {
				d += v - before[key]
			}
		}
	}
	return d
}

// newClient returns an HTTP client holding at most conns connections to
// each daemon, idle ones included; a request that finds them all busy
// waits for one.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

func get(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

func getJSON(c *http.Client, url string, v any) error {
	body, err := get(c, url)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

// post sends a JSON body and returns the status and the response body.
func post(c *http.Client, url string, v any) (int, []byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

func del(c *http.Client, url string) error {
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("DELETE %s: %s", url, resp.Status)
	}
	return nil
}

// health is the part of /healthz the harness waits on.
type health struct {
	Status  string `json:"status"`
	Cluster *struct {
		LiveWorkers int `json:"live_workers"`
	} `json:"cluster"`
}

// waitReady polls /healthz every 100µs until the daemon answers 200 and,
// when workers > 0, reports that many live workers. The short interval
// keeps the poll from adding a visible share to a boot of a few
// milliseconds.
func waitReady(c *http.Client, d *daemon, workers int) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		var h health
		err := getJSON(c, d.url+"/healthz", &h)
		if err == nil && (workers == 0 || (h.Cluster != nil && h.Cluster.LiveWorkers >= workers)) {
			return nil
		}
		select {
		case <-d.exited:
			return fmt.Errorf("%s exited during start-up", d.name)
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after 60s: %v", d.name, err)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// readLines reads newline-terminated records, passing each (without the
// newline) to fn as it arrives. The slice is only valid during the call.
func readLines(r io.Reader, fn func(line []byte) error) error {
	br := bufio.NewReaderSize(r, 64<<10)
	for {
		line, err := br.ReadSlice('\n')
		if errors.Is(err, bufio.ErrBufferFull) {
			// A record longer than the buffer: gather the rest of it.
			full := append([]byte(nil), line...)
			for errors.Is(err, bufio.ErrBufferFull) {
				line, err = br.ReadSlice('\n')
				full = append(full, line...)
			}
			line = full
		}
		if len(line) > 0 && line[len(line)-1] == '\n' {
			if ferr := fn(line[:len(line)-1]); ferr != nil {
				return ferr
			}
		} else if len(line) > 0 && err == io.EOF {
			return io.ErrUnexpectedEOF // a record cut off mid-line
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}
