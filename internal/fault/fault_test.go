package fault

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// arm configures a schedule for one test and disarms on cleanup, so the
// package's global state never leaks between tests.
func arm(t *testing.T, schedule string, seed int64) {
	t.Helper()
	if err := Configure(schedule, seed); err != nil {
		t.Fatalf("Configure(%q): %v", schedule, err)
	}
	t.Cleanup(Disable)
}

func TestDormantIsNil(t *testing.T) {
	Disable()
	if armed.Load() {
		t.Fatal("failpoints armed with nothing configured")
	}
	if err := Check("anything"); err != nil {
		t.Fatalf("dormant Check: %v", err)
	}
	if Active() != "" {
		t.Fatalf("dormant Active() = %q", Active())
	}
}

func TestErrAlways(t *testing.T) {
	arm(t, "wal.write=err(disk full)", 1)
	err := Check("wal.write")
	if err == nil {
		t.Fatal("armed err point returned nil")
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("injected error does not match ErrInjected: %v", err)
	}
	var fe *Error
	if !errors.As(err, &fe) || fe.Point != "wal.write" || fe.Msg != "disk full" {
		t.Fatalf("error = %#v", err)
	}
	// Unarmed points on an armed schedule stay silent.
	if err := Check("cluster.dispatch"); err != nil {
		t.Fatalf("unarmed point fired: %v", err)
	}
}

func TestCountTrigger(t *testing.T) {
	arm(t, WALWrite+"=2*err", 1)
	for i := 0; i < 2; i++ {
		if Check(WALWrite) == nil {
			t.Fatalf("eval %d: count trigger did not fire", i)
		}
	}
	for i := 0; i < 5; i++ {
		if err := Check(WALWrite); err != nil {
			t.Fatalf("count exhausted but still firing: %v", err)
		}
	}
	if got := Fires(WALWrite); got != 2 {
		t.Fatalf("Fires = %d, want 2", got)
	}
	if st := Stats()[WALWrite]; st.Evals != 7 || st.Fires != 2 {
		t.Fatalf("Stats = %+v, want 7 evals / 2 fires", st)
	}
}

func TestProbabilityIsSeededAndDeterministic(t *testing.T) {
	fires := func(seed int64) []bool {
		arm(t, ClusterDispatch+"=err%0.5", seed)
		out := make([]bool, 64)
		for i := range out {
			out[i] = Check(ClusterDispatch) != nil
		}
		Disable()
		return out
	}
	a, b := fires(42), fires(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at eval %d", i)
		}
	}
	some := 0
	for _, f := range a {
		if f {
			some++
		}
	}
	if some == 0 || some == len(a) {
		t.Fatalf("p=0.5 fired %d/%d times; trigger looks stuck", some, len(a))
	}
	c := fires(43)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestDelay(t *testing.T) {
	arm(t, ClusterExecute+"=delay(30ms)", 1)
	start := time.Now()
	if err := Check(ClusterExecute); err != nil {
		t.Fatalf("delay point returned an error: %v", err)
	}
	if took := time.Since(start); took < 20*time.Millisecond {
		t.Fatalf("delay(30ms) returned after %s", took)
	}
}

func TestMultiPointSchedule(t *testing.T) {
	schedule := "cluster.dispatch=err; cluster.execute=1*err(boom); wal.write=off"
	arm(t, schedule, 7)
	if Check(ClusterDispatch) == nil || Check(ClusterExecute) == nil {
		t.Fatal("armed points did not fire")
	}
	if err := Check(ClusterExecute); err != nil {
		t.Fatalf("cluster.execute's count exhausted but fired again: %v", err)
	}
	if err := Check(WALWrite); err != nil {
		t.Fatalf("off point fired: %v", err)
	}
	if got := Active(); got != schedule {
		t.Fatalf("Active() = %q", got)
	}
	want := []string{ClusterDispatch, ClusterExecute, WALWrite}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"noequals",
		"wal.write=",
		"=err",
		"wal.write=explode",
		"wal.write=err%2",
		"wal.write=err%0",
		"wal.write=err%x",
		"wal.write=0*err",
		"wal.write=-1*err",
		"wal.write=delay",
		"wal.write=delay(xyz)",
		"wal.write=delay(-5ms)",
		"wal.write=off(arg)",
		"wal.write=err(unclosed",
		"wal.write=err;wal.write=err",
	} {
		if err := Configure(bad, 1); err == nil {
			Disable()
			t.Fatalf("Configure(%q) accepted a malformed schedule", bad)
		}
	}
	// A failed Configure must not leave a half-armed schedule behind.
	if armed.Load() {
		t.Fatal("failed Configure left failpoints armed")
	}
}

// TestUnknownPointRefused: a name no site checks is refused, with the
// known names in the error, and arms nothing (not even the valid terms
// beside it).
func TestUnknownPointRefused(t *testing.T) {
	Disable()
	for _, bad := range []string{"wal.sync=err", "wal.writ=err(disk full)", "wal.write=err;cluster.dispach=delay(5ms)"} {
		err := Configure(bad, 1)
		if err == nil {
			Disable()
			t.Fatalf("Configure(%q) accepted an unknown failpoint", bad)
		}
		if !strings.Contains(err.Error(), "unknown failpoint") || !strings.Contains(err.Error(), WALWrite) {
			t.Fatalf("Configure(%q) = %v, want the unknown name and the known ones", bad, err)
		}
		if armed.Load() || Active() != "" {
			t.Fatalf("Configure(%q) failed but left failpoints armed", bad)
		}
	}
	t.Setenv(EnvSpec, "wal.sync=err")
	if _, err := FromEnv(); err == nil {
		Disable()
		t.Fatal("FromEnv accepted an unknown failpoint")
	}
}

func TestEnvActivation(t *testing.T) {
	t.Setenv(EnvSpec, "wal.write=err")
	t.Setenv(EnvSeed, "99")
	spec, err := FromEnv()
	if err != nil || spec != "wal.write=err" {
		t.Fatalf("FromEnv() = %q, %v", spec, err)
	}
	t.Cleanup(Disable)
	if Check(WALWrite) == nil {
		t.Fatal("env-armed point did not fire")
	}

	t.Setenv(EnvSeed, "not-a-number")
	if _, err := FromEnv(); err == nil {
		t.Fatal("bad seed accepted")
	}

	Disable()
	t.Setenv(EnvSpec, "")
	if spec, err := FromEnv(); err != nil || spec != "" {
		t.Fatalf("empty env: %q, %v", spec, err)
	}
	if armed.Load() {
		t.Fatal("empty env armed failpoints")
	}
}

func TestConcurrentChecks(t *testing.T) {
	arm(t, "cluster.dispatch=err%0.5;cluster.execute=delay(1ms)%0.2", 3)
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 200; j++ {
				Check(ClusterDispatch)
				Check(ClusterExecute)
			}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	st := Stats()
	if st[ClusterDispatch].Evals != 1600 || st[ClusterExecute].Evals != 1600 {
		t.Fatalf("Stats = %+v, want 1600 evals each", st)
	}
}
