package atlasapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dynaddr/internal/asdb"
	"dynaddr/internal/atlasdata"
	"dynaddr/internal/core"
	"dynaddr/internal/ip4"
	"dynaddr/internal/liveanalysis"
	"dynaddr/internal/pfx2as"
	"dynaddr/internal/serve"
	"dynaddr/internal/simclock"
	"dynaddr/internal/stream"
	"dynaddr/internal/wire"
)

// liveStore maps 10.0.0.0/16 to AS64500 for the study's first month, so
// live ingest can attribute the test probe's sessions.
func liveStore(t *testing.T) *pfx2as.SnapshotStore {
	t.Helper()
	tbl, err := pfx2as.NewTable([]pfx2as.Entry{
		{Prefix: ip4.MustParsePrefix("10.0.0.0/16"), ASN: asdb.ASN(64500)},
	})
	if err != nil {
		t.Fatal(err)
	}
	store := pfx2as.NewSnapshotStore()
	store.Put(201501, tbl)
	return store
}

func liveHour(h int) simclock.Time {
	return simclock.StudyStart.Add(simclock.Duration(h) * simclock.Hour)
}

// wireBatch frames records (ProbeMeta, ConnLogEntry, KRootRound or
// UptimeRecord values) as one binary wire batch, in argument order.
func wireBatch(t *testing.T, recs ...any) []byte {
	t.Helper()
	var w wire.BatchWriter
	for _, r := range recs {
		var err error
		switch r := r.(type) {
		case atlasdata.ProbeMeta:
			err = w.Meta(r)
		case atlasdata.ConnLogEntry:
			err = w.ConnLog(r)
		case atlasdata.KRootRound:
			err = w.KRoot(r)
		case atlasdata.UptimeRecord:
			err = w.Uptime(r)
		default:
			t.Fatalf("wireBatch: unsupported record %T", r)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return append([]byte(nil), w.Bytes()...)
}

// postWire POSTs records as one binary batch to the ingest route.
func postWire(t *testing.T, base string, recs ...any) (int, string) {
	t.Helper()
	return postRaw(t, base+RouteStreamRecords, ContentTypeBinary, wireBatch(t, recs...))
}

// TestLiveServerEndToEnd drives one probe's records through the HTTP
// ingest endpoint and reads the analysis back through the live query
// endpoints.
func TestLiveServerEndToEnd(t *testing.T) {
	ing := stream.NewIngester(stream.Config{Shards: 2, Pfx2AS: liveStore(t)})
	defer ing.Close()
	srv := httptest.NewServer(NewLiveServer(ing))
	defer srv.Close()

	meta := atlasdata.ProbeMeta{ID: 206, Country: "DE", Version: atlasdata.V3, ConnectedDays: 200}
	if code, body := postWire(t, srv.URL, meta); code != 200 || !strings.Contains(body, `"accepted": 1`) {
		t.Fatalf("meta ingest: %d %q", code, body)
	}

	// Three sessions on two addresses of AS64500: two address changes,
	// one interior 24h address duration (the middle session).
	entries := []atlasdata.ConnLogEntry{
		{Probe: 206, Start: liveHour(0), End: liveHour(24), Family: atlasdata.V4, Addr: ip4.MustParseAddr("10.0.0.1")},
		{Probe: 206, Start: liveHour(25), End: liveHour(49), Family: atlasdata.V4, Addr: ip4.MustParseAddr("10.0.0.2")},
		{Probe: 206, Start: liveHour(50), End: liveHour(80), Family: atlasdata.V4, Addr: ip4.MustParseAddr("10.0.0.3")},
	}
	if code, body := postWire(t, srv.URL, entries[0], entries[1], entries[2]); code != 200 || !strings.Contains(body, `"accepted": 3`) {
		t.Fatalf("connlog ingest: %d %q", code, body)
	}

	// Two good ping rounds and an uptime reset (one reboot).
	if code, body := postWire(t, srv.URL,
		atlasdata.KRootRound{Probe: 206, Timestamp: liveHour(1), Sent: 3, Success: 3, LTS: 60},
		atlasdata.KRootRound{Probe: 206, Timestamp: liveHour(2), Sent: 3, Success: 3, LTS: 55},
	); code != 200 {
		t.Fatalf("kroot ingest: %d %q", code, body)
	}
	if code, body := postWire(t, srv.URL,
		atlasdata.UptimeRecord{Probe: 206, Timestamp: liveHour(10), Uptime: 10 * 3600},
		atlasdata.UptimeRecord{Probe: 206, Timestamp: liveHour(20), Uptime: 600},
	); code != 200 {
		t.Fatalf("uptime ingest: %d %q", code, body)
	}

	// Summary reflects everything ingested so far.
	resp, err := http.Get(srv.URL + "/api/v1/live/summary")
	if err != nil {
		t.Fatal(err)
	}
	var sum serve.Summary
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	want := stream.RecordCounts{Meta: 1, ConnLogs: 3, KRoot: 2, Uptime: 2}
	if sum.Records != want {
		t.Errorf("summary records = %+v, want %+v", sum.Records, want)
	}
	if sum.Probes != 1 || sum.Changes != 2 || sum.Reboots != 1 {
		t.Errorf("summary = probes %d changes %d reboots %d, want 1/2/1",
			sum.Probes, sum.Changes, sum.Reboots)
	}
	if sum.Categories[core.CatAnalyzable.String()] != 1 {
		t.Errorf("categories = %v, want one analyzable probe", sum.Categories)
	}
	if len(sum.ASes) != 1 || sum.ASes[0] != 64500 {
		t.Errorf("ases = %v, want [64500]", sum.ASes)
	}

	// Per-AS detail: three sessions, two changes, the middle session's
	// 24 hours of interior address-duration mass.
	resp, err = http.Get(srv.URL + "/api/v1/live/as/64500")
	if err != nil {
		t.Fatal(err)
	}
	var det serve.ASDetail
	if err := json.NewDecoder(resp.Body).Decode(&det); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if det.ASN != 64500 || det.Probes != 1 || det.Sessions != 3 || det.Changes != 2 {
		t.Errorf("as detail = %+v", det)
	}
	if det.TotalHours != 24 {
		t.Errorf("TotalHours = %v, want 24", det.TotalHours)
	}
	if len(det.CDF) == 0 {
		t.Error("as detail missing CDF")
	}

	// Cursor: the probe's resume position reflects every record above.
	resp, err = http.Get(srv.URL + "/api/v1/live/cursor?probe=206")
	if err != nil {
		t.Fatal(err)
	}
	var cur stream.ProbeCursor
	if err := json.NewDecoder(resp.Body).Decode(&cur); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	wantCur := stream.ProbeCursor{Probe: 206, Meta: 1, ConnLogs: 3, KRoot: 2, Uptime: 2}
	if cur != wantCur {
		t.Errorf("cursor = %+v, want %+v", cur, wantCur)
	}
	// An unseen probe has the zero cursor, not an error.
	resp, err = http.Get(srv.URL + "/api/v1/live/cursor?probe=999")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&cur); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if cur != (stream.ProbeCursor{Probe: 999}) {
		t.Errorf("unseen probe cursor = %+v, want zero counts", cur)
	}
	if resp, err := http.Get(srv.URL + "/api/v1/live/cursor?probe=bogus"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad cursor probe id: %d, want 400", resp.StatusCode)
	}
}

// TestLiveAnalysisEndpoint reads the full paper-answer fold back over
// HTTP from an analysis-enabled ingester, and pins the 404 an
// analysis-disabled ingester answers with.
func TestLiveAnalysisEndpoint(t *testing.T) {
	ing := stream.NewIngester(stream.Config{Shards: 2, Pfx2AS: liveStore(t), Analysis: true})
	defer ing.Close()
	srv := httptest.NewServer(NewLiveServer(ing))
	defer srv.Close()

	if code, body := postWire(t, srv.URL,
		atlasdata.ProbeMeta{ID: 206, Country: "DE", Version: atlasdata.V3, ConnectedDays: 200},
		atlasdata.ConnLogEntry{Probe: 206, Start: liveHour(0), End: liveHour(24), Family: atlasdata.V4, Addr: ip4.MustParseAddr("10.0.0.1")},
		atlasdata.ConnLogEntry{Probe: 206, Start: liveHour(25), End: liveHour(49), Family: atlasdata.V4, Addr: ip4.MustParseAddr("10.0.0.2")},
	); code != 200 {
		t.Fatalf("ingest: %d %q", code, body)
	}

	resp, err := http.Get(srv.URL + "/api/v1/live/analysis")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("analysis = %d, want 200", resp.StatusCode)
	}
	var res liveanalysis.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if res.Probes != 1 {
		t.Errorf("analysis probes = %d, want 1", res.Probes)
	}
	if res.Table7All.Changes != 1 {
		t.Errorf("Table7All.Changes = %d, want 1", res.Table7All.Changes)
	}
	if len(res.Churn) == 0 {
		t.Error("analysis churn is empty, want the change's study-day window")
	}

	// An ingester built without the engine answers 404, not 400/503.
	plain := stream.NewIngester(stream.Config{Shards: 1})
	defer plain.Close()
	psrv := httptest.NewServer(NewLiveServer(plain))
	defer psrv.Close()
	resp, err = http.Get(psrv.URL + "/api/v1/live/analysis")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("analysis on disabled ingester = %d, want 404", resp.StatusCode)
	}
}

// TestIngestErrorStatusMapping pins the status codes the ingest error
// translator hands producers: capacity conditions (closed ingester,
// degraded shards, cancelled or timed-out context) are 503 retry-later
// with a Retry-After pacing hint, only malformed input is 400.
func TestIngestErrorStatusMapping(t *testing.T) {
	s := &LiveServer{}
	for _, err := range []error{stream.ErrClosed, stream.ErrDegraded, context.Canceled, context.DeadlineExceeded} {
		rec := httptest.NewRecorder()
		s.ingestError(rec, fmt.Errorf("entry 3 of 9: %w", err), 3)
		if rec.Code != http.StatusServiceUnavailable {
			t.Errorf("%v mapped to %d, want 503", err, rec.Code)
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Errorf("%v: 503 without Retry-After", err)
		}
		var env struct {
			Accepted int `json:"accepted"`
		}
		if jerr := json.Unmarshal(rec.Body.Bytes(), &env); jerr != nil || env.Accepted != 3 {
			t.Errorf("%v: envelope accepted = %d (parse err %v), want 3", err, env.Accepted, jerr)
		}
	}
	rec := httptest.NewRecorder()
	s.ingestError(rec, errors.New("probe 3: bad record"), 0)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("validation error mapped to %d, want 400", rec.Code)
	}
	if rec.Header().Get("Retry-After") != "" {
		t.Error("400 carries Retry-After; pacing hints are for capacity conditions")
	}
}

// TestLiveServerErrors exercises the ingest and query failure paths.
func TestLiveServerErrors(t *testing.T) {
	ing := stream.NewIngester(stream.Config{Shards: 1})
	srv := httptest.NewServer(NewLiveServer(ing))
	defer srv.Close()

	// Non-POST methods on the ingest endpoint: method not allowed.
	for _, method := range []string{http.MethodGet, http.MethodPut, http.MethodDelete} {
		req, err := http.NewRequest(method, srv.URL+RouteStreamRecords, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s = %d, want 405", method, RouteStreamRecords, resp.StatusCode)
		}
	}

	// Malformed batches: framing defects fail the batch with 400 (a
	// defective record inside a well-framed batch is quarantined
	// instead), and an unknown or unparseable Content-Type is a 415.
	good := wireBatch(t, atlasdata.UptimeRecord{Probe: 1, Timestamp: 10, Uptime: 60})
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 0x01
	badPosts := []struct {
		name, contentType string
		body              []byte
		want              int
	}{
		{"torn frame", ContentTypeBinary, good[:len(good)-1], http.StatusBadRequest},
		{"checksum mismatch", ContentTypeBinary, flipped, http.StatusBadRequest},
		{"unknown content type", "text/plain", good, http.StatusUnsupportedMediaType},
		{"unparseable content type", "a/b; =", good, http.StatusUnsupportedMediaType},
	}
	for _, bp := range badPosts {
		if code, body := postRaw(t, srv.URL+RouteStreamRecords, bp.contentType, bp.body); code != bp.want {
			t.Errorf("POST %s = %d %q, want %d", bp.name, code, body, bp.want)
		}
	}

	// Query-side errors.
	for path, wantCode := range map[string]int{
		"/api/v1/live/as/64500": http.StatusNotFound, // nothing ingested
		"/api/v1/live/as/abc":   http.StatusBadRequest,
		"/api/v1/live/as/0":     http.StatusBadRequest,
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, wantCode)
		}
	}

	// After Close, valid ingest turns into 503 but queries still work.
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	meta := atlasdata.ProbeMeta{ID: 5, Country: "NL", Version: atlasdata.V3, ConnectedDays: 100}
	if code, body := postWire(t, srv.URL, meta); code != http.StatusServiceUnavailable {
		t.Errorf("binary ingest after close = %d %q, want 503", code, body)
	}
	if code, body := postRaw(t, srv.URL+RouteStreamRecords, ContentTypeNDJSON,
		[]byte(`{"kind":"meta","probe":5,"country":"NL","version":3,"connected_days":100}`)); code != http.StatusServiceUnavailable {
		t.Errorf("NDJSON ingest after close = %d %q, want 503", code, body)
	}
	resp, err := http.Get(srv.URL + "/api/v1/live/summary")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("summary after close = %d, want 200", resp.StatusCode)
	}
}
