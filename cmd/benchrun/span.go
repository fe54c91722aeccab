package main

import (
	"context"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Spans of the traced run. Client and handler spans of one request share
// an ID, carried in a benchmark-only header; a request a handler makes
// while serving (the coordinator's calls to its peers) records the
// handler's ID as its parent, found through the request context. Spans
// stay in memory and are written out once, when the run ends.

const (
	spanHeader   = "X-Bench-Span"
	parentHeader = "X-Bench-Parent"
)

// span is one timed request as one side saw it. Times are nanoseconds
// since the recorder started.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Side   string `json:"side"` // "client" or "server"
	Name   string `json:"name"` // who and what: "coordinator GET /api/v1/live/summary"
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	Self   int64  `json:"self_ns"` // Dur minus the part its children cover
	Bytes  int64  `json:"bytes,omitempty"`
	Status int    `json:"status,omitempty"`
}

func (s span) end() int64 { return s.Start + s.Dur }

type spanRecorder struct {
	t0    time.Time
	next  atomic.Uint64
	on    atomic.Bool // record only while on (warm-ups run untraced)
	mu    sync.Mutex
	spans []span
}

func newSpanRecorder() *spanRecorder {
	r := &spanRecorder{t0: time.Now()}
	r.on.Store(true)
	return r
}

// A nil *spanRecorder records nothing: its handler and transport return
// what they wrap unchanged, which is how the untraced in-process repeat
// runs the very same code without the spans.

func (r *spanRecorder) add(s span) {
	if r == nil || !r.on.Load() {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *spanRecorder) since(t time.Time) int64 {
	if r == nil {
		return 0
	}
	return int64(t.Sub(r.t0))
}

func (r *spanRecorder) newID() uint64 {
	if r == nil {
		return 0
	}
	return r.next.Add(1)
}

// record switches recording on or off (warm-ups run unrecorded).
func (r *spanRecorder) record(on bool) {
	if r != nil {
		r.on.Store(on)
	}
}

type spanKey struct{}

// handler records one server span per request around h, under the
// client's span ID when the request carries one.
func (r *spanRecorder) handler(who string, h http.Handler) http.Handler {
	if r == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id, _ := strconv.ParseUint(req.Header.Get(spanHeader), 10, 64)
		if id == 0 {
			id = r.newID()
		}
		parent, _ := strconv.ParseUint(req.Header.Get(parentHeader), 10, 64)
		start := time.Now()
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, req.WithContext(context.WithValue(req.Context(), spanKey{}, id)))
		r.add(span{
			ID: id, Parent: parent, Side: "server", Name: who + " " + req.Method + " " + req.URL.Path,
			Start: r.since(start), Dur: int64(time.Since(start)), Bytes: cw.n, Status: cw.status(),
		})
	})
}

// countingWriter counts response bytes and remembers the status.
type countingWriter struct {
	http.ResponseWriter
	n    int64
	code int
}

func (w *countingWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

func (w *countingWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// transport records one client span per request over base, from the
// send until the response body is read to its end or closed.
func (r *spanRecorder) transport(who string, base http.RoundTripper) http.RoundTripper {
	if r == nil {
		return base
	}
	return &spanTransport{base: base, rec: r, who: who}
}

type spanTransport struct {
	base http.RoundTripper
	rec  *spanRecorder
	who  string
}

func (t *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := t.rec.newID()
	parent, _ := req.Context().Value(spanKey{}).(uint64)
	out := req.Clone(req.Context())
	out.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	if parent != 0 {
		out.Header.Set(parentHeader, strconv.FormatUint(parent, 10))
	}
	s := span{ID: id, Parent: parent, Side: "client", Name: t.who + " " + req.Method + " " + req.URL.Path}
	start := time.Now()
	s.Start = t.rec.since(start)
	resp, err := t.base.RoundTrip(out)
	if err != nil {
		s.Dur = int64(time.Since(start))
		t.rec.add(s)
		return nil, err
	}
	s.Status = resp.StatusCode
	resp.Body = &spanBody{ReadCloser: resp.Body, finish: func(n int64) {
		s.Dur, s.Bytes = int64(time.Since(start)), n
		t.rec.add(s)
	}}
	return resp, nil
}

func (t *spanTransport) CloseIdleConnections() {
	if c, ok := t.base.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

// spanBody ends its span at EOF or Close, whichever comes first.
type spanBody struct {
	io.ReadCloser
	n      int64
	once   sync.Once
	finish func(n int64)
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	if err != nil {
		b.once.Do(func() { b.finish(b.n) })
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.once.Do(func() { b.finish(b.n) })
	return b.ReadCloser.Close()
}

// finish computes every span's self time: its duration minus the union
// of the intervals its children cover. A server span's children are the
// client spans it caused (a coordinator's peer calls).
func (r *spanRecorder) finish() []span {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	kids := map[uint64][]span{}
	for _, s := range spans {
		if s.Side == "client" && s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for i := range spans {
		s := &spans[i]
		s.Self = s.Dur
		if s.Side != "server" {
			continue
		}
		cs := kids[s.ID]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		covered, lo, hi := int64(0), int64(-1), int64(-1)
		for _, c := range cs {
			cl, ch := max(c.Start, s.Start), min(c.end(), s.end())
			if ch <= cl {
				continue
			}
			if cl > hi {
				covered += hi - lo
				lo, hi = cl, ch
			} else if ch > hi {
				hi = ch
			}
		}
		covered += hi - lo
		s.Self = s.Dur - covered
	}
	sort.Slice(spans, func(a, b int) bool { return spans[a].Start < spans[b].Start })
	return spans
}

// spanGroup summarises the spans of one side and name.
type spanGroup struct {
	Side    string  `json:"side"`
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	DurP50  float64 `json:"dur_p50_us"`
	SelfP50 float64 `json:"self_p50_us"`
	SelfSum float64 `json:"self_sum_ms"`
}

// groupSpans collapses spans by side and name, numeric path segments
// folded ("/api/v1/live/as/3320" → "/api/v1/live/as/N").
func groupSpans(spans []span) []spanGroup {
	type acc struct{ dur, self []float64 }
	by := map[[2]string]*acc{}
	for _, s := range spans {
		k := [2]string{s.Side, foldPath(s.Name)}
		a := by[k]
		if a == nil {
			a = &acc{}
			by[k] = a
		}
		a.dur = append(a.dur, float64(s.Dur)/1e3)
		a.self = append(a.self, float64(s.Self)/1e3)
	}
	var out []spanGroup
	for k, a := range by {
		sum := 0.0
		for _, x := range a.self {
			sum += x
		}
		out = append(out, spanGroup{Side: k[0], Name: k[1], Count: len(a.dur), DurP50: median(a.dur), SelfP50: median(a.self), SelfSum: sum / 1e3})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Side < out[j].Side
	})
	return out
}

func foldPath(name string) string {
	parts := strings.Split(name, "/")
	for i, p := range parts {
		if _, err := strconv.Atoi(p); err == nil && p != "" {
			parts[i] = "N"
		}
	}
	return strings.Join(parts, "/")
}
