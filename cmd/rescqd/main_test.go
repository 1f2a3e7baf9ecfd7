package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/config"
)

// TestDaemonServesAndDrains boots the real daemon on an ephemeral port,
// runs one tiny simulation through the HTTP API, then delivers SIGTERM and
// asserts a clean drain.
func TestDaemonServesAndDrains(t *testing.T) {
	if testing.Short() {
		t.Skip("real daemon boot in -short mode")
	}
	var out, errOut bytes.Buffer
	ready := make(chan string, 1)
	exit := make(chan int, 1)
	go func() {
		exit <- run([]string{"-addr", "127.0.0.1:0", "-workers", "2", "-queue", "8"}, &out, &errOut, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatalf("daemon did not start; stderr: %s", errOut.String())
	}
	base := "http://" + addr

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}

	body := `{"benchmark":"vqe_n13","options":{"distance":5,"runs":1}}`
	resp, err = http.Post(base+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var runResp struct {
		State   string `json:"state"`
		Summary *struct {
			MeanCycles float64 `json:"mean_cycles"`
		} `json:"summary"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&runResp); err != nil {
		t.Fatalf("decode run response: %v", err)
	}
	resp.Body.Close()
	if runResp.State != "done" || runResp.Summary == nil || runResp.Summary.MeanCycles <= 0 {
		t.Fatalf("run response = %+v", runResp)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("signal: %v", err)
	}
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit code %d; stderr: %s", code, errOut.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not drain after SIGTERM")
	}
	if !strings.Contains(out.String(), "drained cleanly") {
		t.Errorf("stdout missing drain confirmation:\n%s", out.String())
	}
}

func TestDaemonFlagAndConfigErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
	}{
		{"bad flag", []string{"-nope"}, 2},
		{"positional junk", []string{"extra"}, 2},
		{"missing config", []string{"-config", "/does/not/exist.json"}, 1},
		{"invalid workers", []string{"-workers", "-3"}, 1},
		{"unbindable addr", []string{"-addr", "256.0.0.1:99999"}, 1},
		{"unknown mode", []string{"-mode", "leader"}, 1},
		{"worker without coordinator", []string{"-mode", "worker"}, 1},
		{"worker with bad coordinator url", []string{"-mode", "worker", "-coordinator", "not-a-url"}, 1},
		{"coordinator flag in standalone", []string{"-coordinator", "http://coord:8321"}, 1},
		{"advertise flag in standalone", []string{"-advertise", "http://me:9000"}, 1},
		{"removed batch-size flag", []string{"-mode", "coordinator", "-batch-size", "2"}, 2},
		{"sub-ms heartbeat interval", []string{"-mode", "coordinator", "-heartbeat-interval", "500us"}, 2},
		{"sub-ms batch target", []string{"-mode", "coordinator", "-batch-target", "500us"}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			if code := run(tc.args, &out, &errOut, nil); code != tc.code {
				t.Fatalf("exit %d, want %d (stderr: %s)", code, tc.code, errOut.String())
			}
			if errOut.Len() == 0 {
				t.Error("error path produced no stderr output")
			}
		})
	}
}

// TestReadmeDocumentsEveryKnob keeps the README's knob list in step with
// the code: every flag in the usage text and every JSON field of the
// config file must appear in backticks in README.md.
func TestReadmeDocumentsEveryKnob(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	var out, usage bytes.Buffer
	if code := run([]string{"-h"}, &out, &usage, nil); code != 2 {
		t.Fatalf("-h exited %d, want 2", code)
	}
	var knobs []string
	for _, m := range regexp.MustCompile(`(?m)^\s+(-[a-z][a-z0-9-]*)`).FindAllStringSubmatch(usage.String(), -1) {
		knobs = append(knobs, m[1])
	}
	if len(knobs) == 0 {
		t.Fatalf("no flags found in usage output:\n%s", usage.String())
	}
	for _, v := range []any{config.Daemon{}, config.Cluster{}, config.Tenants{}, config.TenantPolicy{}} {
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumField(); i++ {
			if name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ","); name != "" {
				knobs = append(knobs, name)
			}
		}
	}
	for _, k := range knobs {
		if !bytes.Contains(readme, []byte("`"+k+"`")) {
			t.Errorf("README.md does not document %s", k)
		}
	}
}

// TestReadmeDocumentsEveryMetric: every metric family in the /metrics
// exposition goldens has a row with its type in the README's metrics
// table, so a new series cannot ship undocumented.
func TestReadmeDocumentsEveryMetric(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	goldens, err := filepath.Glob("../../internal/service/testdata/golden/metrics_*.prom")
	if err != nil || len(goldens) == 0 {
		t.Fatalf("no exposition goldens found (%v)", err)
	}
	seen := map[string]bool{}
	for _, path := range goldens {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range regexp.MustCompile(`(?m)^# TYPE (\S+) (\S+)$`).FindAllSubmatch(data, -1) {
			family, kind := string(m[1]), string(m[2])
			if seen[family] {
				continue
			}
			seen[family] = true
			if row := "| `" + family + "` | " + kind + " |"; !bytes.Contains(readme, []byte(row)) {
				t.Errorf("README.md has no metrics-table row %q", row)
			}
		}
	}
}
