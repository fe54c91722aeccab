package atlasapi

import (
	"net/http"
	"strings"
	"time"

	"dynaddr/internal/obs"
)

// routeLabel collapses a request path to a bounded set of route
// labels. Paths carry probe IDs, ASNs, and snapshot names; using the
// raw path as a label value would grow one time series per probe.
func routeLabel(path string) string {
	switch {
	case strings.HasPrefix(path, "/probes/"):
		return "/probes/{id}/connection-history/"
	case strings.HasPrefix(path, "/api/v1/probe-archive/"):
		return "/api/v1/probe-archive/{date}"
	case strings.HasPrefix(path, "/api/v1/measurements/kroot/"):
		return "/api/v1/measurements/kroot/{id}/"
	case strings.HasPrefix(path, "/api/v1/measurements/uptime/"):
		return "/api/v1/measurements/uptime/{id}/"
	case strings.HasPrefix(path, "/caida/pfx2as/"):
		return "/caida/pfx2as/{snapshot}"
	case strings.HasPrefix(path, "/api/v1/live/as/"):
		return "/api/v1/live/as/{asn}"
	case path == "/api/v1/analysis",
		path == RouteStreamRecords,
		path == "/api/v1/live/summary",
		path == "/api/v1/live/continents",
		path == "/api/v1/live/analysis",
		path == "/api/v1/live/cursor":
		return path
	default:
		return "other"
	}
}

// statusWriter captures the response status for the status-class
// label. It forwards Flush because the fault injector's truncate mode
// asserts http.Flusher on the chain it wraps.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func statusClass(status int) string {
	switch {
	case status >= 500:
		return "5xx"
	case status >= 400:
		return "4xx"
	case status >= 300:
		return "3xx"
	default:
		return "2xx"
	}
}

// InstrumentHTTP records per-route request counts by status class, an
// in-flight gauge, and a latency histogram. A panic unwinding through
// the chain (the fault injector aborts responses with
// http.ErrAbortHandler) is recorded under class "aborted" — or "5xx"
// for a genuine handler panic — and re-panicked for RecoverPanics
// above to deal with.
func InstrumentHTTP(reg *obs.Registry, h http.Handler) http.Handler {
	if reg == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := routeLabel(r.URL.Path)
		inFlight := reg.Gauge("http_in_flight",
			"Requests currently being served.", obs.L("route", route))
		inFlight.Inc()
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		defer func() {
			inFlight.Dec()
			reg.Histogram("http_request_seconds",
				"HTTP request latency in seconds.", nil,
				obs.L("route", route)).ObserveSince(start)
			class := ""
			if v := recover(); v != nil {
				class = "5xx"
				if err, ok := v.(error); ok && err == http.ErrAbortHandler {
					class = "aborted"
				}
				defer panic(v)
			} else {
				status := sw.status
				if status == 0 {
					status = http.StatusOK
				}
				class = statusClass(status)
			}
			reg.Counter("http_requests_total",
				"HTTP requests served, by route and status class.",
				obs.L("route", route), obs.L("class", class)).Inc()
		}()
		h.ServeHTTP(sw, r)
	})
}
