package atlasapi

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"dynaddr/internal/obs"
)

// gatherValue finds one series' value in a registry snapshot.
func gatherValue(t *testing.T, reg *obs.Registry, name string, labels ...obs.Label) (float64, bool) {
	t.Helper()
	for _, f := range reg.Gather() {
		if f.Name != name {
			continue
		}
	series:
		for _, m := range f.Metrics {
			if len(m.Labels) != len(labels) {
				continue
			}
			for _, want := range labels {
				found := false
				for _, got := range m.Labels {
					if got == want {
						found = true
						break
					}
				}
				if !found {
					continue series
				}
			}
			return m.Value, true
		}
	}
	return 0, false
}

func TestInstrumentHTTP(t *testing.T) {
	reg := obs.NewRegistry()
	mux := http.NewServeMux()
	mux.HandleFunc("/api/v1/analysis", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc(RouteStreamRecords, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusBadRequest)
	})
	srv := httptest.NewServer(InstrumentHTTP(reg, mux))
	defer srv.Close()

	for i := 0; i < 3; i++ {
		resp, err := http.Get(srv.URL + "/api/v1/analysis")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(srv.URL + RouteStreamRecords)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Get(srv.URL + "/no/such/route")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	checks := []struct {
		route, class string
		want         float64
	}{
		{"/api/v1/analysis", "2xx", 3},
		{RouteStreamRecords, "4xx", 1},
		{"other", "4xx", 1}, // the mux 404s unknown paths
	}
	for _, c := range checks {
		got, ok := gatherValue(t, reg, "http_requests_total",
			obs.L("route", c.route), obs.L("class", c.class))
		if !ok || got != c.want {
			t.Errorf("http_requests_total{route=%q,class=%q} = %v (present=%v), want %v",
				c.route, c.class, got, ok, c.want)
		}
	}
	if v, ok := gatherValue(t, reg, "http_in_flight", obs.L("route", "/api/v1/analysis")); !ok || v != 0 {
		t.Errorf("http_in_flight = %v (present=%v), want 0 after requests finish", v, ok)
	}
	// The latency histogram's _count shows up in Gather as Count.
	for _, f := range reg.Gather() {
		if f.Name != "http_request_seconds" {
			continue
		}
		var total int64
		for _, m := range f.Metrics {
			total += m.Count
		}
		if total != 5 {
			t.Errorf("http_request_seconds observations = %d, want 5", total)
		}
	}
}

// TestInstrumentHTTPPanic: a handler panic is recorded (class 5xx for
// a real panic, "aborted" for http.ErrAbortHandler), the in-flight
// gauge is restored, and the panic keeps unwinding to RecoverPanics.
func TestInstrumentHTTPPanic(t *testing.T) {
	reg := obs.NewRegistry()
	mux := http.NewServeMux()
	mux.HandleFunc("/api/v1/analysis", func(w http.ResponseWriter, r *http.Request) {
		panic("boom")
	})
	mux.HandleFunc("/api/v1/live/summary", func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	})
	srv := httptest.NewServer(RecoverPanics(InstrumentHTTP(reg, mux), func(string, ...any) {}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/api/v1/analysis")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("panicking handler answered %d, want 500", resp.StatusCode)
	}
	// ErrAbortHandler kills the connection; the client sees a transport
	// error, which is the point.
	if resp, err := http.Get(srv.URL + "/api/v1/live/summary"); err == nil {
		resp.Body.Close()
	}

	if v, ok := gatherValue(t, reg, "http_requests_total",
		obs.L("route", "/api/v1/analysis"), obs.L("class", "5xx")); !ok || v != 1 {
		t.Errorf("panic not recorded as 5xx: %v (present=%v)", v, ok)
	}
	if v, ok := gatherValue(t, reg, "http_requests_total",
		obs.L("route", "/api/v1/live/summary"), obs.L("class", "aborted")); !ok || v != 1 {
		t.Errorf("abort not recorded: %v (present=%v)", v, ok)
	}
	if v, _ := gatherValue(t, reg, "http_in_flight", obs.L("route", "/api/v1/analysis")); v != 0 {
		t.Errorf("http_in_flight = %v after panic, want 0", v)
	}
}

func TestInstrumentHTTPNilRegistry(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})
	if got := InstrumentHTTP(nil, inner); got == nil {
		t.Fatal("nil registry must still return a working handler")
	}
}

func TestRouteLabel(t *testing.T) {
	cases := map[string]string{
		"/probes/123/connection-history/": "/probes/{id}/connection-history/",
		"/api/v1/measurements/kroot/99/":  "/api/v1/measurements/kroot/{id}/",
		"/api/v1/measurements/uptime/7/":  "/api/v1/measurements/uptime/{id}/",
		"/caida/pfx2as/201507.txt":        "/caida/pfx2as/{snapshot}",
		"/api/v1/live/as/3320":            "/api/v1/live/as/{asn}",
		"/api/v1/stream/connlogs":         "other",
		"/api/v2/stream/records":          "/api/v2/stream/records",
		"/api/v1/analysis":                "/api/v1/analysis",
		"/api/v1/probe-archive/":          "/api/v1/probe-archive/{date}",
		"/favicon.ico":                    "other",
		"/probes/123/../../etc/passwd":    "/probes/{id}/connection-history/",
	}
	for path, want := range cases {
		if got := routeLabel(path); got != want {
			t.Errorf("routeLabel(%q) = %q, want %q", path, got, want)
		}
	}
}
