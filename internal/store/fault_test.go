package store

import (
	"errors"
	"testing"

	"repro/internal/fault"
)

// TestFaultInjectionOnAppendAndProbe: the wal.write failpoint surfaces
// injected errors from every append path and from Probe, and clears the
// moment the schedule is disarmed — the store carries no sticky failure
// state of its own (lossy-mode bookkeeping lives in the service layer,
// keyed off these errors).
func TestFaultInjectionOnAppendAndProbe(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	if err := s.AppendJob(JobRecord{ID: "job-000001"}); err != nil {
		t.Fatalf("append before injection: %v", err)
	}

	if err := fault.Configure(fault.WALWrite+"=err(disk full)", 1); err != nil {
		t.Fatalf("Configure: %v", err)
	}
	defer fault.Disable()

	if err := s.AppendJob(JobRecord{ID: "job-000002"}); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("AppendJob under injection = %v, want ErrInjected", err)
	}
	if err := s.AppendResult(ResultRecord{JobID: "job-000001", Index: 0, Result: []byte(`{}`)}); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("AppendResult under injection = %v, want ErrInjected", err)
	}
	if err := s.AppendDone(DoneRecord{JobID: "job-000001", State: "done"}); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("AppendDone under injection = %v, want ErrInjected", err)
	}
	if err := s.Probe(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Probe under injection = %v, want ErrInjected", err)
	}

	// A failed append must not corrupt in-memory state: the job whose
	// record never hit the disk is not tracked.
	if got := s.Stats().Jobs; got != 1 {
		t.Fatalf("tracked jobs after failed appends = %d, want 1", got)
	}

	// Disarming clears the failure instantly: this is the re-attach the
	// service's durability probe waits for.
	fault.Disable()
	if err := s.Probe(); err != nil {
		t.Fatalf("Probe after disarm: %v", err)
	}
	if err := s.AppendJob(JobRecord{ID: "job-000002"}); err != nil {
		t.Fatalf("AppendJob after disarm: %v", err)
	}
}

// TestFaultCountedBurst: a count-limited wal.write schedule injects
// exactly N failures and then gets out of the way, modelling a transient
// disk hiccup rather than a dead volume.
func TestFaultCountedBurst(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	if err := fault.Configure(fault.WALWrite+"=2*err(disk full)", 1); err != nil {
		t.Fatalf("Configure: %v", err)
	}
	defer fault.Disable()

	for i := 0; i < 2; i++ {
		if err := s.AppendJob(JobRecord{ID: "job-000009"}); !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("append %d = %v, want ErrInjected", i, err)
		}
	}
	if err := s.AppendJob(JobRecord{ID: "job-000009"}); err != nil {
		t.Fatalf("append after the burst: %v", err)
	}
	if n := fault.Fires(fault.WALWrite); n != 2 {
		t.Fatalf("fires = %d, want 2", n)
	}
}
