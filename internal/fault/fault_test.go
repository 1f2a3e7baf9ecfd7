package fault

import (
	"errors"
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
	arm(t, "p=2*err", 1)
	for i := 0; i < 2; i++ {
		if Check("p") == nil {
			t.Fatalf("eval %d: count trigger did not fire", i)
		}
	}
	for i := 0; i < 5; i++ {
		if err := Check("p"); err != nil {
			t.Fatalf("count exhausted but still firing: %v", err)
		}
	}
	if got := Fires("p"); got != 2 {
		t.Fatalf("Fires = %d, want 2", got)
	}
	if st := Stats()["p"]; st.Evals != 7 || st.Fires != 2 {
		t.Fatalf("Stats = %+v, want 7 evals / 2 fires", st)
	}
}

func TestProbabilityIsSeededAndDeterministic(t *testing.T) {
	fires := func(seed int64) []bool {
		arm(t, "p=err%0.5", seed)
		out := make([]bool, 64)
		for i := range out {
			out[i] = Check("p") != nil
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
	arm(t, "p=delay(30ms)", 1)
	start := time.Now()
	if err := Check("p"); err != nil {
		t.Fatalf("delay point returned an error: %v", err)
	}
	if took := time.Since(start); took < 20*time.Millisecond {
		t.Fatalf("delay(30ms) returned after %s", took)
	}
}

func TestMultiPointSchedule(t *testing.T) {
	arm(t, "a=err; b=1*err(boom); c=off", 7)
	if Check("a") == nil || Check("b") == nil {
		t.Fatal("armed points did not fire")
	}
	if err := Check("b"); err != nil {
		t.Fatalf("b's count exhausted but fired again: %v", err)
	}
	if err := Check("c"); err != nil {
		t.Fatalf("off point fired: %v", err)
	}
	if got := Active(); got != "a=err; b=1*err(boom); c=off" {
		t.Fatalf("Active() = %q", got)
	}
	want := []string{"a", "b", "c"}
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
		"p=",
		"=err",
		"p=explode",
		"p=err%2",
		"p=err%0",
		"p=err%x",
		"p=0*err",
		"p=-1*err",
		"p=delay",
		"p=delay(xyz)",
		"p=delay(-5ms)",
		"p=off(arg)",
		"p=err(unclosed",
		"p=err;p=err",
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

func TestEnvActivation(t *testing.T) {
	t.Setenv(EnvSpec, "p=err")
	t.Setenv(EnvSeed, "99")
	spec, err := FromEnv()
	if err != nil || spec != "p=err" {
		t.Fatalf("FromEnv() = %q, %v", spec, err)
	}
	t.Cleanup(Disable)
	if Check("p") == nil {
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
	arm(t, "p=err%0.5;q=delay(1ms)%0.2", 3)
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 200; j++ {
				Check("p")
				Check("q")
			}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	st := Stats()
	if st["p"].Evals != 1600 || st["q"].Evals != 1600 {
		t.Fatalf("Stats = %+v, want 1600 evals each", st)
	}
}
