package config

import (
	"strings"
	"testing"
	"time"
)

// TestClusterValidate is the table-driven coverage of every cluster
// configuration error path: bad peer URLs, degenerate heartbeat/liveness
// windows, and cluster-only knobs leaking into standalone mode.
func TestClusterValidate(t *testing.T) {
	valid := Cluster{
		Mode:                ModeWorker,
		CoordinatorURL:      "http://coord:8321",
		HeartbeatIntervalMS: 2000,
		LivenessExpiryMS:    6000,
	}
	cases := []struct {
		name    string
		mutate  func(*Cluster)
		wantErr string // substring; "" means valid
	}{
		{"zero value is standalone", func(c *Cluster) { *c = Cluster{} }, ""},
		{"explicit standalone", func(c *Cluster) { *c = Cluster{Mode: ModeStandalone} }, ""},
		{"valid worker", func(c *Cluster) {}, ""},
		{"valid worker with advertise", func(c *Cluster) { c.AdvertiseURL = "http://me:9000" }, ""},
		{"valid coordinator", func(c *Cluster) {
			*c = Cluster{Mode: ModeCoordinator, HeartbeatIntervalMS: 2000, LivenessExpiryMS: 6000}
		}, ""},
		{"unknown mode", func(c *Cluster) { c.Mode = "leader" }, `unknown mode "leader"`},
		{"coordinator_url in standalone", func(c *Cluster) {
			*c = Cluster{CoordinatorURL: "http://coord:8321"}
		}, "mode is standalone"},
		{"advertise_url in standalone", func(c *Cluster) {
			*c = Cluster{Mode: ModeStandalone, AdvertiseURL: "http://me:9000"}
		}, "mode is standalone"},
		{"coordinator with upstream", func(c *Cluster) {
			*c = Cluster{Mode: ModeCoordinator, CoordinatorURL: "http://other:8321",
				HeartbeatIntervalMS: 2000, LivenessExpiryMS: 6000}
		}, "mode is coordinator"},
		{"coordinator with advertise", func(c *Cluster) {
			*c = Cluster{Mode: ModeCoordinator, AdvertiseURL: "http://me:9000",
				HeartbeatIntervalMS: 2000, LivenessExpiryMS: 6000}
		}, "worker-only"},
		{"worker without coordinator", func(c *Cluster) { c.CoordinatorURL = "" }, "requires coordinator_url"},
		{"relative coordinator url", func(c *Cluster) { c.CoordinatorURL = "coord:8321" }, "absolute http(s)"},
		{"bad scheme", func(c *Cluster) { c.CoordinatorURL = "ftp://coord:8321" }, "absolute http(s)"},
		{"hostless url", func(c *Cluster) { c.CoordinatorURL = "http://" }, "no host"},
		{"unparseable url", func(c *Cluster) { c.CoordinatorURL = "http://bad host\x00" }, "coordinator_url"},
		{"bad advertise url", func(c *Cluster) { c.AdvertiseURL = "not-a-url" }, "absolute http(s)"},
		{"zero heartbeat interval", func(c *Cluster) { c.HeartbeatIntervalMS = 0 }, "heartbeat_interval_ms must be positive"},
		{"negative heartbeat interval", func(c *Cluster) { c.HeartbeatIntervalMS = -5 }, "heartbeat_interval_ms must be positive"},
		{"expiry not beyond heartbeat", func(c *Cluster) { c.LivenessExpiryMS = 2000 }, "must exceed heartbeat_interval_ms"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := valid
			tc.mutate(&c)
			err := c.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestClusterDefaults: cluster modes get production defaults; standalone
// stays zero so pre-cluster configs remain byte-identical.
func TestClusterDefaults(t *testing.T) {
	if got := (Cluster{}).WithDefaults(); got != (Cluster{}) {
		t.Fatalf("standalone defaults mutated the zero value: %+v", got)
	}
	c := Cluster{Mode: ModeCoordinator}.WithDefaults()
	if c.HeartbeatIntervalMS != 2000 || c.LivenessExpiryMS != 6000 || c.BatchTargetMS != 500 {
		t.Fatalf("coordinator defaults = %+v", c)
	}
	if c.HeartbeatInterval() != 2*time.Second || c.LivenessExpiry() != 6*time.Second {
		t.Fatalf("duration accessors = %v/%v", c.HeartbeatInterval(), c.LivenessExpiry())
	}
	// A custom heartbeat scales the derived expiry default.
	c = Cluster{Mode: ModeWorker, CoordinatorURL: "http://c", HeartbeatIntervalMS: 500}.WithDefaults()
	if c.LivenessExpiryMS != 1500 {
		t.Fatalf("derived expiry = %d, want 1500", c.LivenessExpiryMS)
	}
}

// TestDaemonValidatesCluster: Daemon.Validate covers the nested cluster
// section, and daemon JSON configs can carry it.
func TestDaemonValidatesCluster(t *testing.T) {
	d := Daemon{Cluster: Cluster{Mode: "nonsense"}}.WithDefaults()
	if err := d.Validate(); err == nil || !strings.Contains(err.Error(), "unknown mode") {
		t.Fatalf("Daemon.Validate() = %v, want unknown-mode error", err)
	}
	cfg, err := ReadDaemon(strings.NewReader(`{
		"workers": 2,
		"cluster": {"mode": "worker", "coordinator_url": "http://coord:8321"}
	}`))
	if err != nil {
		t.Fatalf("ReadDaemon: %v", err)
	}
	if cfg.Cluster.Mode != ModeWorker || cfg.Cluster.HeartbeatIntervalMS != 2000 {
		t.Fatalf("parsed cluster = %+v", cfg.Cluster)
	}
	if _, err := ReadDaemon(strings.NewReader(`{"cluster": {"mode": "worker"}}`)); err == nil {
		t.Fatal("ReadDaemon accepted a worker without coordinator_url")
	}
}
