package integration

import (
	"bufio"
	"context"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"dynaddr/internal/atlasapi"
	"dynaddr/internal/sim"
)

// promSample is one parsed exposition sample: a metric name, its
// label set, and the value.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parsePromText parses the Prometheus text format well enough for the
// metrics atlasd exposes (no escaped quotes inside label values on
// these series).
func parsePromText(t *testing.T, text string) []promSample {
	t.Helper()
	var out []promSample
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("bad exposition line %q", line)
		}
		series, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		s := promSample{labels: map[string]string{}, value: val}
		if i := strings.IndexByte(series, '{'); i >= 0 {
			s.name = series[:i]
			body := strings.TrimSuffix(series[i+1:], "}")
			for _, pair := range strings.Split(body, ",") {
				k, v, ok := strings.Cut(pair, "=")
				if !ok {
					t.Fatalf("bad label pair %q in %q", pair, line)
				}
				s.labels[k] = strings.Trim(v, `"`)
			}
		} else {
			s.name = series
		}
		out = append(out, s)
	}
	return out
}

// promSum totals every sample of name whose labels include the given
// key=value filters.
func promSum(samples []promSample, name string, filters map[string]string) float64 {
	var total float64
next:
	for _, s := range samples {
		if s.name != name {
			continue
		}
		for k, v := range filters {
			if s.labels[k] != v {
				continue next
			}
		}
		total += s.value
	}
	return total
}

// TestMetricsEndToEnd starts a durable live atlasd, streams a dataset
// into it, and checks that GET /metrics agrees with an independently
// computed tally of what was fed: ingest counters by kind, WAL appends
// covering every record, fsyncs, and the HTTP request counters for the
// stream routes.
func TestMetricsEndToEnd(t *testing.T) {
	bins := buildBinaries(t)
	ds := crashWorld(t, 31)
	walDir := filepath.Join(t.TempDir(), "wal")

	addr := pickAddr(t)
	srv := exec.Command(filepath.Join(bins, "atlasd"), "-live", "-shards", "2",
		"-wal-dir", walDir, "-fsync", "8", "-checkpoint-every", "128",
		"-addr", addr)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		srv.Process.Kill()
		srv.Wait()
	}()
	waitForListen(t, addr)
	base := "http://" + addr
	waitForReady(t, base)

	prod := atlasapi.NewStreamProducer(context.Background(), base)
	if err := sim.ReplayDataset(ds, prod); err != nil {
		t.Fatal(err)
	}
	if err := prod.Flush(); err != nil {
		t.Fatal(err)
	}

	// The independent tally: what the dataset actually contains, counted
	// from the dataset itself.
	var wantMeta, wantConn, wantKRoot, wantUptime float64
	for id := range ds.Probes {
		wantMeta++
		wantConn += float64(len(ds.ConnLogs[id]))
		wantKRoot += float64(len(ds.KRoot[id]))
		wantUptime += float64(len(ds.Uptime[id]))
	}
	totalFed := wantMeta + wantConn + wantKRoot + wantUptime

	// A snapshot request forces the in-band barrier: every record acked
	// above is applied before the summary returns, so the subsequent
	// /metrics scrape sees final counts.
	var summary struct {
		Records struct {
			Meta     float64 `json:"meta"`
			ConnLogs float64 `json:"connlogs"`
			KRoot    float64 `json:"kroot"`
			Uptime   float64 `json:"uptime"`
			Rejected float64 `json:"rejected"`
		} `json:"records"`
	}
	getJSON(t, base+"/api/v1/live/summary", &summary)

	body := getBody(t, base+"/metrics")
	if len(body) == 0 {
		t.Fatal("empty /metrics body")
	}
	samples := parsePromText(t, string(body))

	// Ingest counters vs the dataset tally. The world generator emits
	// strictly ordered per-probe records, so nothing is rejected; assert
	// that instead of silently absorbing disagreement.
	kinds := []struct {
		kind string
		want float64
	}{
		{"meta", wantMeta}, {"connlog", wantConn},
		{"kroot", wantKRoot}, {"uptime", wantUptime},
	}
	for _, k := range kinds {
		got := promSum(samples, "ingest_records_total", map[string]string{"kind": k.kind})
		if got != k.want {
			t.Errorf("ingest_records_total{kind=%q} = %v, want %v (dataset tally)", k.kind, got, k.want)
		}
	}
	if got := promSum(samples, "ingest_records_rejected_total", nil); got != summary.Records.Rejected {
		t.Errorf("ingest_records_rejected_total = %v, want %v (summary)", got, summary.Records.Rejected)
	}

	// Every fed record is appended to a WAL before being applied.
	if got := promSum(samples, "wal_append_total", nil); got != totalFed {
		t.Errorf("wal_append_total = %v, want %v", got, totalFed)
	}
	if got := promSum(samples, "wal_fsync_total", nil); got == 0 {
		t.Error("wal_fsync_total = 0, want > 0")
	}
	if got := promSum(samples, "wal_fsync_seconds_count", nil); got == 0 {
		t.Error("wal_fsync_seconds histogram is empty")
	}
	if got := promSum(samples, "wal_checkpoints_total", nil); got == 0 {
		t.Error("wal_checkpoints_total = 0, want > 0 with -checkpoint-every 128")
	}

	// HTTP middleware: the producer's POSTs and our summary GET must all
	// be on the books as 2xx. Every producer batch is one request to the
	// ingest route, accepted as one binary batch.
	posts := promSum(samples, "http_requests_total",
		map[string]string{"route": atlasapi.RouteStreamRecords, "class": "2xx"})
	if posts == 0 {
		t.Errorf("http_requests_total{route=%q,class=2xx} = 0, want > 0", atlasapi.RouteStreamRecords)
	}
	if batches := promSum(samples, "ingest_batches_total", map[string]string{"codec": "binary"}); batches != posts {
		t.Errorf("ingest_batches_total{codec=binary} = %v, want one per ingest request (%v)", batches, posts)
	}
	if got := promSum(samples, "http_requests_total",
		map[string]string{"route": "/api/v1/live/summary", "class": "2xx"}); got != 1 {
		t.Errorf("http_requests_total{route=/api/v1/live/summary} = %v, want 1", got)
	}
	// /metrics itself is mounted outside the instrumentation; scraping
	// must not move the request counters.
	if got := promSum(samples, "http_requests_total", map[string]string{"route": "/metrics"}); got != 0 {
		t.Errorf("/metrics requests were instrumented (%v); the exposition must not observe itself", got)
	}

	// In-flight gauges are back to zero between requests.
	for _, s := range samples {
		if s.name == "http_in_flight" && s.value != 0 {
			t.Errorf("http_in_flight%v = %v, want 0", s.labels, s.value)
		}
	}

	// Cross-check: a second scrape's ingest counters are unchanged —
	// scraping is read-only for everything but nothing.
	again := parsePromText(t, string(getBody(t, base+"/metrics")))
	for _, k := range kinds {
		if got := promSum(again, "ingest_records_total", map[string]string{"kind": k.kind}); got != k.want {
			t.Errorf("second scrape moved ingest_records_total{kind=%q} to %v", k.kind, got)
		}
	}
}
