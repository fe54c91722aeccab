package atlasapi

import (
	"testing"
	"time"

	"dynaddr/internal/obs"
)

func TestAdmissionGlobalGate(t *testing.T) {
	reg := obs.NewRegistry()
	a := NewAdmission(AdmissionConfig{MaxInFlight: 2, MaxWait: -1}, nil, reg)

	rel1, _, ok := a.Admit("v2")
	rel2, _, ok2 := a.Admit("v2")
	if !ok || !ok2 {
		t.Fatal("first two requests must be admitted")
	}
	if _, reason, ok := a.Admit("v2"); ok || reason != "saturated" {
		t.Fatalf("third request: ok=%v reason=%q, want shed saturated", ok, reason)
	}
	if !a.Hot() {
		t.Fatal("Hot() must be true right after a shed")
	}
	if v, _ := gatherValue(t, reg, "ingest_shed_total", obs.L("route", "v2"), obs.L("reason", "saturated")); v != 1 {
		t.Fatalf("ingest_shed_total{v2,saturated} = %v, want 1", v)
	}

	// Releasing a slot readmits.
	rel1()
	rel3, _, ok := a.Admit("v2")
	if !ok {
		t.Fatal("request after release must be admitted")
	}
	rel2()
	rel3()
	// Full release: both slots available again.
	r1, _, ok1 := a.Admit("v2")
	r2, _, ok2 := a.Admit("v2")
	if !ok1 || !ok2 {
		t.Fatal("slots leaked: full release did not restore capacity")
	}
	r1()
	r2()
}

func TestAdmissionBoundedQueueWait(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxInFlight: 1, MaxWait: 50 * time.Millisecond}, nil, nil)
	rel, _, ok := a.Admit("v2")
	if !ok {
		t.Fatal("first request must be admitted")
	}

	// A queued request is admitted when the slot frees within MaxWait.
	done := make(chan bool, 1)
	go func() {
		rel2, _, ok := a.Admit("v2")
		if ok {
			rel2()
		}
		done <- ok
	}()
	time.Sleep(5 * time.Millisecond)
	rel()
	if !<-done {
		t.Fatal("queued request must win the freed slot inside MaxWait")
	}

	// With the slot held past MaxWait, the wait gives up.
	rel, _, _ = a.Admit("v2")
	start := time.Now()
	if _, reason, ok := a.Admit("v2"); ok || reason != "saturated" {
		t.Fatalf("after MaxWait: ok=%v reason=%q, want shed saturated", ok, reason)
	}
	if waited := time.Since(start); waited < 40*time.Millisecond {
		t.Fatalf("shed after %v, want a bounded queue wait of ~50ms first", waited)
	}
	rel()
}

func TestAdmissionPressureValve(t *testing.T) {
	pressure := 0.0
	a := NewAdmission(AdmissionConfig{MaxInFlight: 4}, func() float64 { return pressure }, nil)

	if _, _, ok := a.Admit("v2"); !ok {
		t.Fatal("low pressure must admit")
	}
	if a.Hot() {
		t.Fatal("Hot() with idle queues and no sheds")
	}

	pressure = 0.95 // over the 0.9 default high-watermark
	if _, reason, ok := a.Admit("v2"); ok || reason != "pressure" {
		t.Fatalf("over high-watermark: ok=%v reason=%q, want shed pressure", ok, reason)
	}
	if !a.Hot() {
		t.Fatal("Hot() must report the pressure overload")
	}
}

func TestRetryAfterHeader(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want string
	}{
		{0, "1"},
		{300 * time.Millisecond, "1"},
		{time.Second, "1"},
		{1500 * time.Millisecond, "2"},
		{5 * time.Second, "5"},
	} {
		if got := retryAfterHeader(tc.d); got != tc.want {
			t.Errorf("retryAfterHeader(%v) = %q, want %q", tc.d, got, tc.want)
		}
	}
}
