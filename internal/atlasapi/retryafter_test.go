package atlasapi

import (
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"dynaddr/internal/backoff"
)

func TestRetryDelay(t *testing.T) {
	p := backoff.Policy{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond}
	// No hint: the policy's jittered exponential delay.
	if d := retryDelay(p, 0, 0, 0); d != 5*time.Millisecond {
		t.Errorf("no hint: delay = %v, want the policy's jitter floor 5ms", d)
	}
	// A hint inside the cap is used as-is (no jitter: the server said
	// exactly when to come back).
	if d := retryDelay(p, 0, 0, 30*time.Millisecond); d != 30*time.Millisecond {
		t.Errorf("hint 30ms: delay = %v, want 30ms", d)
	}
	// A hint past the cap is clamped: a misconfigured or hostile server
	// cannot park the client.
	if d := retryDelay(p, 0, 0, time.Hour); d != 80*time.Millisecond {
		t.Errorf("hint 1h: delay = %v, want the 80ms cap", d)
	}
}

func TestParseRetryAfter(t *testing.T) {
	mk := func(v string) *http.Response {
		h := http.Header{}
		if v != "" {
			h.Set("Retry-After", v)
		}
		return &http.Response{Header: h}
	}
	for _, tc := range []struct {
		v    string
		want time.Duration
	}{
		{"", 0},
		{"3", 3 * time.Second},
		{" 2 ", 2 * time.Second},
		{"0", 0},
		{"-1", 0},
		{"soon", 0},
		{"Tue, 29 Oct 2024 16:56:32 GMT", 0},   // HTTP-date in the past: no usable hint
		{"Tue, 29 Oct 2024 16:56:32 UTC+1", 0}, // not an RFC 7231 date
		{"2024-10-29T16:56:32Z", 0},            // RFC 3339 is not an HTTP-date
		// Seconds past the longest Duration saturate to it instead of
		// wrapping negative.
		{"9300000000", math.MaxInt64},
		{"18446744073", math.MaxInt64},
		{"9223372036854775807", math.MaxInt64},
		{"9223372036", 9223372036 * time.Second},
		{"99999999999999999999999999999999", math.MaxInt64}, // past int as well
		{"-99999999999999999999999999999999", 0},
	} {
		if got := ParseRetryAfter(mk(tc.v)); got != tc.want {
			t.Errorf("ParseRetryAfter(%q) = %v, want %v", tc.v, got, tc.want)
		}
	}

	// The HTTP-date form is relative to the local clock, so a future
	// date must be generated at test time. Allow scheduling slop on the
	// low side; the hint can never exceed the true distance.
	future := time.Now().Add(90 * time.Second)
	for _, layout := range []string{http.TimeFormat, time.RFC850, time.ANSIC} {
		got := ParseRetryAfter(mk(future.UTC().Format(layout)))
		if got <= 80*time.Second || got > 91*time.Second {
			t.Errorf("ParseRetryAfter(%s date 90s out) = %v, want ~90s", layout, got)
		}
	}
}

// FuzzParseRetryAfter: no header value yields a negative pause, and in
// the delay-seconds form more seconds never yield a shorter one.
func FuzzParseRetryAfter(f *testing.F) {
	for _, v := range []string{
		"", "3", " 2 ", "-1", "+5", "soon", "9223372036", "9300000000", "18446744073",
		"9223372036854775807", "99999999999999999999999999999999",
		"Tue, 29 Oct 2024 16:56:32 GMT", "Sun, 06 Nov 2994 08:49:37 GMT",
	} {
		f.Add(v, uint64(0), uint64(1))
	}
	f.Add("", uint64(9223372036), uint64(9223372037))
	f.Add("", uint64(18446744073), uint64(1<<64-1))
	parse := func(v string) time.Duration {
		return ParseRetryAfter(&http.Response{Header: http.Header{"Retry-After": {v}}})
	}
	f.Fuzz(func(t *testing.T, v string, a, b uint64) {
		if d := parse(v); d < 0 {
			t.Fatalf("ParseRetryAfter(%q) = %v", v, d)
		}
		if a > b {
			a, b = b, a
		}
		sa, sb := strconv.FormatUint(a, 10), strconv.FormatUint(b, 10)
		for _, pair := range [][2]string{{sa, sb}, {sb, sb + "0"}, {sb + "0", sb + "00000000000"}} {
			if lo, hi := parse(pair[0]), parse(pair[1]); lo > hi {
				t.Fatalf("ParseRetryAfter(%q) = %v > ParseRetryAfter(%q) = %v", pair[0], lo, pair[1], hi)
			}
		}
	})
}

// TestClientHonorsRetryAfter is the spacing regression test for the 429
// path: when the server sheds load with a Retry-After hint, the client's
// next attempt waits out the hint instead of retrying on the (much
// shorter) backoff schedule.
func TestClientHonorsRetryAfter(t *testing.T) {
	var (
		mu    sync.Mutex
		times []time.Time
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		times = append(times, time.Now())
		n := len(times)
		mu.Unlock()
		if n == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "overloaded", http.StatusTooManyRequests)
			return
		}
		io.WriteString(w, "[]")
	}))
	defer srv.Close()

	// Base 1ms: the policy alone would retry within ~1ms. Max 2s keeps
	// the 1s hint inside the cap, so the hint must set the spacing.
	c := &Client{BaseURL: srv.URL, Retries: 1, Backoff: backoff.Policy{Base: time.Millisecond, Max: 2 * time.Second}}
	if _, err := c.FetchMonths(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(times) != 2 {
		t.Fatalf("%d attempts, want 2", len(times))
	}
	if gap := times[1].Sub(times[0]); gap < 900*time.Millisecond {
		t.Fatalf("retry after %v, want >=1s (the server's Retry-After hint)", gap)
	}
}

// TestClientCapsRetryAfter: a server demanding an hour-long pause gets
// clamped to the policy's maximum delay — the client stays responsive.
func TestClientCapsRetryAfter(t *testing.T) {
	var (
		mu    sync.Mutex
		calls int
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		if n == 1 {
			w.Header().Set("Retry-After", "3600")
			http.Error(w, "overloaded", http.StatusTooManyRequests)
			return
		}
		io.WriteString(w, "[]")
	}))
	defer srv.Close()

	start := time.Now()
	c := &Client{BaseURL: srv.URL, Retries: 1, Backoff: backoff.Policy{Base: time.Millisecond, Max: 50 * time.Millisecond}}
	if _, err := c.FetchMonths(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("fetch took %v: the 1h Retry-After hint was not capped", elapsed)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != 2 {
		t.Fatalf("%d attempts, want 2 (429 must stay retriable)", calls)
	}
}
