package config

import (
	"strings"
	"testing"
	"time"
)

func TestDaemonDefaults(t *testing.T) {
	d := Daemon{}.WithDefaults()
	if d.Addr != ":8321" || d.QueueDepth != 256 || d.CacheEntries != 1024 || d.DrainTimeoutSec != 30 {
		t.Fatalf("defaults = %+v", d)
	}
	if d.Workers != 0 {
		t.Fatalf("workers default = %+v", d)
	}
	if d.MaxQueueDepth != 4096 {
		t.Fatalf("max_queue_depth default = %d, want 4096", d.MaxQueueDepth)
	}
	if d.StoreDir != "" {
		t.Fatalf("store_dir default = %q, want disabled", d.StoreDir)
	}
	if d.DrainTimeout() != 30*time.Second {
		t.Fatalf("drain timeout = %v", d.DrainTimeout())
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
}

func TestDaemonCacheDisabled(t *testing.T) {
	// 0 is "unset" (re-defaulted), negative is the explicit off switch.
	d := Daemon{CacheEntries: -1}.WithDefaults()
	if d.CacheEntries != -1 || !d.CacheDisabled() {
		t.Fatalf("negative cache_entries should survive defaults and disable: %+v", d)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("disabled cache should validate: %v", err)
	}
	if (Daemon{}).WithDefaults().CacheDisabled() {
		t.Fatal("default config should have the cache enabled")
	}
}

func TestDaemonAnalytics(t *testing.T) {
	// Unset means on; an explicit false survives both defaults and a
	// config-file round trip.
	if !(Daemon{}).WithDefaults().AnalyticsEnabled() {
		t.Fatal("analytics should default to enabled")
	}
	d, err := ReadDaemon(strings.NewReader(`{"analytics":false,"analytics_max_groups":128}`))
	if err != nil {
		t.Fatal(err)
	}
	if d.AnalyticsEnabled() || d.AnalyticsMaxGroups != 128 {
		t.Fatalf("analytics config lost in parsing: enabled=%t cap=%d", d.AnalyticsEnabled(), d.AnalyticsMaxGroups)
	}
	on := true
	if !(Daemon{Analytics: &on}).AnalyticsEnabled() {
		t.Fatal("explicit true should enable analytics")
	}
}

func TestDaemonValidate(t *testing.T) {
	cases := []struct {
		name string
		d    Daemon
		want string
	}{
		{"negative workers", Daemon{Workers: -1, QueueDepth: 1}, "workers"},
		{"zero queue", Daemon{QueueDepth: 0}, "queue_depth"},
		{"negative drain", Daemon{QueueDepth: 1, DrainTimeoutSec: -1}, "drain_timeout_sec"},
		{"negative analytics cap", Daemon{QueueDepth: 1, AnalyticsMaxGroups: -1}, "analytics_max_groups"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.d.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want error mentioning %q", err, tc.want)
			}
		})
	}
}

func TestDaemonStoreAndAdmission(t *testing.T) {
	d, err := ReadDaemon(strings.NewReader(`{"store_dir":"/tmp/rescqd-wal","max_queue_depth":64}`))
	if err != nil {
		t.Fatal(err)
	}
	if d.StoreDir != "/tmp/rescqd-wal" || d.MaxQueueDepth != 64 {
		t.Fatalf("parsed durability fields = %+v", d)
	}
	// Negative disables admission control and must survive defaulting.
	d = Daemon{MaxQueueDepth: -1}.WithDefaults()
	if d.MaxQueueDepth != -1 {
		t.Fatalf("negative max_queue_depth re-defaulted: %+v", d)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("disabled admission control should validate: %v", err)
	}
}

func TestReadDaemon(t *testing.T) {
	d, err := ReadDaemon(strings.NewReader(`{"addr":":9000","workers":4,"cache_entries":16}`))
	if err != nil {
		t.Fatal(err)
	}
	if d.Addr != ":9000" || d.Workers != 4 || d.CacheEntries != 16 || d.QueueDepth != 256 {
		t.Fatalf("parsed daemon = %+v", d)
	}
	if _, err := ReadDaemon(strings.NewReader(`{"nope":1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	// WFQ is the only queue policy; the removed knob is an unknown field.
	if _, err := ReadDaemon(strings.NewReader(`{"queue_policy":"wfq"}`)); err == nil || !strings.Contains(err.Error(), "queue_policy") {
		t.Fatalf("queue_policy accepted: %v", err)
	}
	if _, err := ReadDaemon(strings.NewReader(`{"workers":-2}`)); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestDaemonLayout(t *testing.T) {
	d, err := ReadDaemon(strings.NewReader(`{"layout": "linear"}`))
	if err != nil {
		t.Fatalf("ReadDaemon: %v", err)
	}
	if d.Layout != "linear" {
		t.Errorf("layout = %q, want linear", d.Layout)
	}
	if err := (Daemon{}.WithDefaults()).Validate(); err != nil {
		t.Errorf("unset layout should validate (engine default): %v", err)
	}
	_, err = ReadDaemon(strings.NewReader(`{"layout": "moebius"}`))
	if err == nil {
		t.Fatal("unknown layout accepted")
	}
	for _, want := range []string{"moebius", "star", "linear", "compact", "custom"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q should enumerate %q", err, want)
		}
	}
}
