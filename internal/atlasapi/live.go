package atlasapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"strings"
	"time"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/obs"
	"dynaddr/internal/serve"
	"dynaddr/internal/stream"
)

// LiveServer publishes a stream.Ingester over HTTP: the write side
// accepts record batches, the read side answers incremental-analysis
// queries.
//
//	POST /api/v2/stream/records           any record mix; codec negotiated by
//	                                      Content-Type (framed binary via
//	                                      application/x-atlas-binary, or the
//	                                      NDJSON envelope fallback)
//	GET  /api/v1/live/summary             stream-wide snapshot (JSON)
//	GET  /api/v1/live/as/{asn}            one AS's aggregates (JSON)
//	GET  /api/v1/live/continents          per-continent aggregates, Figure 1 (JSON)
//	GET  /api/v1/live/cursor?probe=N      a probe's resume cursor (JSON)
//	GET  /api/v1/live/analysis            paper tables/figures computed live (JSON)
//	GET  /api/v1/live/deadletter          quarantine counts and recent samples (JSON)
//
// Every live GET carries an ETag keyed on (checkpoint generation,
// applied sequence) and honours If-None-Match with 304; Cache-Control
// is no-cache, so intermediaries revalidate rather than serve blind.
// With WithServeTier the snapshot-derived endpoints are served from the
// tier's pinned generations — byte-identical to the authoritative fold
// (both render through internal/serve) with bounded staleness. Cursors
// always take an authoritative barrier: a stale cursor would make a
// resuming producer re-send applied records.
//
// Errors are answered in a JSON envelope {"error": ..., "status": ...}.
// 4xx/503 bodies describe the client or capacity condition; 500 bodies
// are generic, with the real error logged server-side (WithErrorLog).
//
// LiveServer is an http.Handler; mount it on any mux.
type LiveServer struct {
	ing *stream.Ingester
	mux *http.ServeMux

	reg      *obs.Registry
	tier     *serve.Tier
	adm      *Admission
	logf     func(format string, args ...any)
	maxBatch int64

	// Cluster peer mode (WithClusterNode): the inter-peer endpoints are
	// mounted and labelled with this node ID.
	nodeID  string
	cluster bool
}

// NewLiveServer wraps an ingester. The caller owns the ingester's
// lifecycle; closing it makes ingest endpoints return 503.
func NewLiveServer(ing *stream.Ingester, opts ...LiveOption) *LiveServer {
	s := &LiveServer{ing: ing, mux: http.NewServeMux(), maxBatch: DefaultMaxBatchBytes, logf: log.Printf}
	for _, opt := range opts {
		opt(s)
	}
	s.mux.HandleFunc(RouteStreamRecords, s.postRecords)
	s.mux.HandleFunc("/api/v1/live/summary", s.summary)
	s.mux.HandleFunc("/api/v1/live/as/", s.asDetail)
	s.mux.HandleFunc("/api/v1/live/continents", s.continents)
	s.mux.HandleFunc("/api/v1/live/cursor", s.cursor)
	s.mux.HandleFunc("/api/v1/live/analysis", s.analysis)
	s.mux.HandleFunc("/api/v1/live/deadletter", s.deadletter)
	if s.cluster {
		s.mux.HandleFunc(RouteClusterView, s.clusterView)
		s.mux.HandleFunc(RouteClusterAnalysisView, s.clusterAnalysisView)
		s.mux.HandleFunc(RouteClusterInfo, s.clusterInfo)
		s.mux.HandleFunc(RouteClusterRelease, s.clusterRelease)
		s.mux.HandleFunc(RouteClusterAdopt, s.clusterAdopt)
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *LiveServer) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// errorEnvelope is the JSON error shape every live endpoint answers
// with — including paths that previously fell through to http.Error's
// text/plain, which broke clients keyed on the advertised Content-Type.
// Ingest failures additionally report Accepted: the prefix of the batch
// the server consumed (routed or quarantined) before the error, which a
// partial-accept producer trims from its buffer instead of re-sending.
type errorEnvelope struct {
	Error    string `json:"error"`
	Status   int    `json:"status"`
	Accepted int    `json:"accepted,omitempty"`
}

// apiError writes the envelope. msg must describe only the client's
// request or the service's capacity, never internal state — 500 paths
// go through internalError instead.
func apiError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorEnvelope{Error: msg, Status: code}) //nolint:errcheck // headers are gone; nothing to do
}

// internalError answers a generic 500 and logs the real error
// server-side: internal error text (paths, addresses, shard state) is
// operator information, not API surface.
func (s *LiveServer) internalError(w http.ResponseWriter, r *http.Request, err error) {
	s.logf("atlasapi: %s %s: %v", r.Method, r.URL.Path, err)
	apiError(w, http.StatusInternalServerError, "internal server error")
}

// retryAfter is the pacing hint capacity responses (429/503) carry.
func (s *LiveServer) retryAfter() time.Duration {
	if s.adm != nil {
		return s.adm.RetryAfter()
	}
	return DefaultRetryAfter
}

// ingestError maps an ingest failure to its status: capacity
// conditions (closed ingester, degraded shards, backpressure the
// client abandoned) answer 503 with a Retry-After pacing hint, and
// everything else is the client's 400. consumed is the batch prefix
// already routed or quarantined, reported so the producer can trim.
func (s *LiveServer) ingestError(w http.ResponseWriter, err error, consumed int) {
	code := http.StatusBadRequest
	switch {
	case errors.Is(err, stream.ErrClosed), errors.Is(err, stream.ErrDegraded):
		code = http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The client went away or the deadline fired while the send was
		// blocked on backpressure — a capacity condition, not a malformed
		// request. 503 tells a well-behaved producer to back off and retry.
		code = http.StatusServiceUnavailable
	case errors.Is(err, stream.ErrNotOwner):
		// A cluster peer got records for a partition it does not own —
		// the coordinator (or a stale producer) misrouted. 421 tells the
		// sender to re-resolve ownership, not to retry here.
		code = http.StatusMisdirectedRequest
	}
	if code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", retryAfterHeader(s.retryAfter()))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorEnvelope{Error: err.Error(), Status: code, Accepted: consumed}) //nolint:errcheck // headers are gone; nothing to do
}

// respondAccepted reports how many records an ingest call took. The
// "accepted" shape is pinned by producers and the CI smokes; the
// quarantined count appears only when records were dead-lettered.
func respondAccepted(w http.ResponseWriter, st stream.WireStats) {
	w.Header().Set("Content-Type", "application/json")
	if st.Quarantined > 0 {
		fmt.Fprintf(w, "{\"accepted\": %d, \"quarantined\": %d}\n", st.Accepted, st.Quarantined)
		return
	}
	fmt.Fprintf(w, "{\"accepted\": %d}\n", st.Accepted)
}

// writeJSON answers a fully rendered artifact under conditional-GET
// semantics: the ETag (keyed on checkpoint generation + applied
// sequence) goes out on hits and misses alike, If-None-Match turns a
// revalidation into a bodyless 304, and Cache-Control: no-cache makes
// intermediaries revalidate instead of serving stale blind. Rendering
// before writing is also what retired the half-written-body 500s: by
// the time any byte leaves, the body cannot fail anymore.
func (s *LiveServer) writeJSON(w http.ResponseWriter, r *http.Request, route, etag string, body []byte) {
	w.Header().Set("ETag", etag)
	w.Header().Set("Cache-Control", "no-cache")
	if serve.ETagMatch(r.Header.Get("If-None-Match"), etag) {
		s.tier.ObserveRequest(route, true)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	s.tier.ObserveRequest(route, false)
	w.Header().Set("Content-Type", "application/json")
	w.Write(body) //nolint:errcheck // client gone; nothing to do
}

// generation pins the serving tier's current read view, refreshing if
// the staleness window lapsed. Callers must only use it when s.tier is
// non-nil.
//
// Pressure valve: while ingest is overloaded (admission is shedding or
// the shard queues are over the high-watermark), a lapsed staleness
// window would make every read race ingest for a snapshot barrier —
// exactly when barriers are slowest. Reads keep serving the last
// published generation instead; freshness resumes when ingest cools.
func (s *LiveServer) generation(w http.ResponseWriter, r *http.Request) *serve.Generation {
	if s.adm != nil && s.adm.Hot() {
		if gen := s.tier.Current(); gen != nil {
			return gen
		}
	}
	gen, err := s.tier.Generation(r.Context())
	if err != nil {
		s.ingestError(w, err, 0)
		return nil
	}
	return gen
}

// snapshot takes a point-in-time view bound to the request: if the
// client disconnects while the snapshot marker is queued behind
// backpressure, the handler returns 503 instead of blocking a server
// goroutine indefinitely.
func (s *LiveServer) snapshot(w http.ResponseWriter, r *http.Request) *stream.Snapshot {
	snap, err := s.ing.SnapshotContext(r.Context())
	if err != nil {
		s.ingestError(w, err, 0)
		return nil
	}
	return snap
}

func (s *LiveServer) summary(w http.ResponseWriter, r *http.Request) {
	if s.tier != nil {
		if gen := s.generation(w, r); gen != nil {
			s.writeJSON(w, r, "summary", gen.ETag(), gen.SummaryJSON())
		}
		return
	}
	snap := s.snapshot(w, r)
	if snap == nil {
		return
	}
	body, err := serve.RenderSummary(snap)
	if err != nil {
		s.internalError(w, r, err)
		return
	}
	s.writeJSON(w, r, "summary", serve.ETag(snap.Version), body)
}

// continents serves the per-continent aggregates — the paper's Figure 1
// grouping as a continuously updated product.
func (s *LiveServer) continents(w http.ResponseWriter, r *http.Request) {
	if s.tier != nil {
		if gen := s.generation(w, r); gen != nil {
			s.writeJSON(w, r, "continents", gen.ETag(), gen.ContinentsJSON())
		}
		return
	}
	snap := s.snapshot(w, r)
	if snap == nil {
		return
	}
	body, err := serve.RenderContinents(snap)
	if err != nil {
		s.internalError(w, r, err)
		return
	}
	s.writeJSON(w, r, "continents", serve.ETag(snap.Version), body)
}

// cursor answers a producer's resume query after a restart: how many
// records of each kind the ingester has durably consumed for a probe.
// A producer that skips that many records per kind resumes gap-free and
// duplicate-free (the per-shard WAL preserves per-probe order). The
// cursor is never served from a cached generation — it validates with
// the owning shard's version instead, so revalidation still works.
func (s *LiveServer) cursor(w http.ResponseWriter, r *http.Request) {
	idStr := r.URL.Query().Get("probe")
	id, err := strconv.Atoi(idStr)
	if err != nil || id <= 0 {
		apiError(w, http.StatusBadRequest, fmt.Sprintf("bad probe id %q", idStr))
		return
	}
	cur, ver, err := s.ing.CursorVersioned(r.Context(), atlasdata.ProbeID(id))
	if err != nil {
		s.ingestError(w, err, 0)
		return
	}
	body, err := serve.RenderCursor(cur)
	if err != nil {
		s.internalError(w, r, err)
		return
	}
	s.writeJSON(w, r, "cursor", serve.ETag(ver), body)
}

// analysis serves the full paper-answer fold — periodic renumbering,
// outage attribution, prefix dynamics, churn — from the pinned
// generation when the tier is on, else computed at a barrier bound to
// the request. 404 distinguishes "this ingester runs without the
// analysis engine" from the transient 503s backpressure produces.
func (s *LiveServer) analysis(w http.ResponseWriter, r *http.Request) {
	if s.tier != nil {
		gen := s.generation(w, r)
		if gen == nil {
			return
		}
		body := gen.AnalysisJSON()
		if body == nil {
			apiError(w, http.StatusNotFound, stream.ErrAnalysisDisabled.Error())
			return
		}
		s.writeJSON(w, r, "analysis", gen.AnalysisETag(), body)
		return
	}
	res, ver, err := s.ing.AnalysisVersioned(r.Context())
	if err != nil {
		if errors.Is(err, stream.ErrAnalysisDisabled) {
			apiError(w, http.StatusNotFound, err.Error())
			return
		}
		s.ingestError(w, err, 0)
		return
	}
	body, err := serve.RenderAnalysis(res)
	if err != nil {
		s.internalError(w, r, err)
		return
	}
	s.writeJSON(w, r, "analysis", serve.ETag(ver), body)
}

// deadletter reports the quarantine state: process-lifetime counts by
// rejection reason plus a ring of recent samples (payloads omitted —
// drain the durable logs with churnctl -deadletter for those). It is an
// operator endpoint: no caching, always computed fresh, never behind
// the serve tier or admission control.
func (s *LiveServer) deadletter(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		apiError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	st := s.ing.DeadLetter()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Cache-Control", "no-store")
	json.NewEncoder(w).Encode(st) //nolint:errcheck // client gone; nothing to do
}

func (s *LiveServer) asDetail(w http.ResponseWriter, r *http.Request) {
	rest := strings.Trim(strings.TrimPrefix(r.URL.Path, "/api/v1/live/as/"), "/")
	asn, err := strconv.ParseUint(rest, 10, 32)
	if err != nil || asn == 0 {
		apiError(w, http.StatusBadRequest, fmt.Sprintf("bad asn %q", rest))
		return
	}
	if s.tier != nil {
		gen := s.generation(w, r)
		if gen == nil {
			return
		}
		body, ok, err := gen.ASJSON(uint32(asn))
		if err != nil {
			s.internalError(w, r, err)
			return
		}
		if !ok {
			apiError(w, http.StatusNotFound, fmt.Sprintf("no analyzable probes in AS%d", asn))
			return
		}
		s.writeJSON(w, r, "as", gen.ETag(), body)
		return
	}
	snap := s.snapshot(w, r)
	if snap == nil {
		return
	}
	agg := snap.AS(uint32(asn))
	if agg == nil {
		apiError(w, http.StatusNotFound, fmt.Sprintf("no analyzable probes in AS%d", asn))
		return
	}
	body, err := serve.RenderASDetail(agg)
	if err != nil {
		s.internalError(w, r, err)
		return
	}
	s.writeJSON(w, r, "as", serve.ETag(snap.Version), body)
}
