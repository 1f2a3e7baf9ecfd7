package config

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
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
	if d.CacheEntries != -1 {
		t.Fatalf("negative cache_entries should survive defaults: %+v", d)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("disabled cache should validate: %v", err)
	}
	if n := (Daemon{}).WithDefaults().CacheEntries; n <= 0 {
		t.Fatalf("default cache_entries = %d, want the cache enabled", n)
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
	if _, err := ReadDaemon(strings.NewReader(`{"workers":-2}`)); err == nil {
		t.Fatal("invalid config accepted")
	}
	// The decoder is strict, and knobs that older builds accepted are
	// unknown fields now: a config still setting one fails loudly rather
	// than silently running with the fixed behaviour.
	cases := []struct {
		field   string
		cluster bool // nested under "cluster"
	}{
		{"nope", false},
		{"queue_policy", false},
		{"analytics", false},
		{"analytics_max_groups", false},
		{"failpoints", false},
		{"fault_seed", false},
		{"batch_size", true},
		{"dial_timeout_ms", true},
		{"idle_conn_timeout_ms", true},
		{"retry_backoff_ms", true},
		{"dispatch_retries", true},
		{"breaker_failures", true},
		{"breaker_cooldown_ms", true},
		{"heartbeat_jitter", true},
	}
	for _, tc := range cases {
		t.Run("unknown "+tc.field, func(t *testing.T) {
			doc := fmt.Sprintf(`{%q: 1}`, tc.field)
			if tc.cluster {
				doc = fmt.Sprintf(`{"cluster": {"mode": "coordinator", %q: 1}}`, tc.field)
			}
			_, err := ReadDaemon(strings.NewReader(doc))
			if want := fmt.Sprintf("unknown field %q", tc.field); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("ReadDaemon(%s) = %v, want an error containing %s", doc, err, want)
			}
		})
	}
}

// TestRemovedBatchSize: the batch cap is a constant now, so every
// cluster.batch_size value is refused, including the ones older builds
// accepted (up to the per-batch wire limit), not just the ones they refused.
func TestRemovedBatchSize(t *testing.T) {
	cases := []struct {
		name string
		size int
	}{
		{"zero", 0},
		{"negative", -1},
		{"at the wire limit", cluster.MaxBatchConfigs},
		{"beyond the wire limit", cluster.MaxBatchConfigs + 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			doc := fmt.Sprintf(`{"cluster": {"mode": "coordinator", "batch_size": %d}}`, tc.size)
			_, err := ReadDaemon(strings.NewReader(doc))
			if err == nil || !strings.Contains(err.Error(), `unknown field "batch_size"`) {
				t.Fatalf("ReadDaemon(%s) = %v, want an unknown-field error", doc, err)
			}
		})
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
