package atlasapi

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/backoff"
	"dynaddr/internal/core"
	"dynaddr/internal/pfx2as"
	"dynaddr/internal/sim"
)

// TestScrapeReproducesAnalysis is the collection-boundary end-to-end
// test: generate a world, publish it through the HTTP endpoints, scrape
// it back through the wire formats, and require the analysis pipeline to
// produce identical results on both copies — the property the paper's
// §3 methodology depends on.
func TestScrapeReproducesAnalysis(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Seed = 4242
	cfg.Scale = 0.08
	world, err := sim.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(NewServer(world.Dataset))
	defer srv.Close()

	client := &Client{
		BaseURL:     srv.URL,
		Months:      world.Dataset.Pfx2AS.Months(),
		Concurrency: 8,
	}
	scraped, err := client.ScrapeAll()
	if err != nil {
		t.Fatal(err)
	}

	// A second scrape at different concurrency must assemble the exact
	// same dataset: order independence.
	sequential := &Client{BaseURL: srv.URL, Months: client.Months, Concurrency: 1}
	scraped2, err := sequential.ScrapeAll()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(scraped.ConnLogs, scraped2.ConnLogs) {
		t.Error("scrape results depend on concurrency")
	}

	if len(scraped.Probes) != len(world.Dataset.Probes) {
		t.Fatalf("scraped %d probes, generated %d", len(scraped.Probes), len(world.Dataset.Probes))
	}
	// Connection logs must survive the page format byte-for-byte in
	// meaning (second-resolution timestamps round-trip exactly).
	if !reflect.DeepEqual(scraped.ConnLogs, world.Dataset.ConnLogs) {
		t.Error("connection logs differ after scrape")
	}
	if !reflect.DeepEqual(scraped.KRoot, world.Dataset.KRoot) {
		t.Error("k-root rounds differ after scrape")
	}
	if !reflect.DeepEqual(scraped.Uptime, world.Dataset.Uptime) {
		t.Error("uptime records differ after scrape")
	}

	repLocal, err := core.Run(context.Background(), world.Dataset, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	repWire, err := core.Run(context.Background(), scraped, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if repLocal.Table7All != repWire.Table7All {
		t.Errorf("Table 7 differs over the wire: %+v vs %+v", repLocal.Table7All, repWire.Table7All)
	}
	if len(repLocal.Table5) != len(repWire.Table5) {
		t.Errorf("Table 5 differs over the wire: %d vs %d rows", len(repLocal.Table5), len(repWire.Table5))
	}
	for i := range repLocal.Table5 {
		if repLocal.Table5[i] != repWire.Table5[i] {
			t.Errorf("Table 5 row %d differs: %+v vs %+v", i, repLocal.Table5[i], repWire.Table5[i])
		}
	}
	for _, c := range core.Categories {
		if repLocal.Table2[c] != repWire.Table2[c] {
			t.Errorf("Table 2 %v differs: %d vs %d", c, repLocal.Table2[c], repWire.Table2[c])
		}
	}
}

// TestClientErrorPropagation exercises the failure paths: missing
// server, missing months.
func TestClientErrorPropagation(t *testing.T) {
	c := &Client{BaseURL: "http://127.0.0.1:1", // nothing listens here
		Backoff: backoff.Policy{Base: time.Millisecond, Max: 4 * time.Millisecond}}
	if _, err := c.FetchProbeArchive(); err == nil {
		t.Error("unreachable server should fail")
	}

	cfg := sim.DefaultConfig()
	cfg.Seed = 1
	cfg.Scale = 0.02
	w, err := sim.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(w.Dataset))
	defer srv.Close()
	c2 := &Client{BaseURL: srv.URL, Months: []pfx2as.Month{209901}}
	if _, err := c2.ScrapeAll(); err == nil {
		t.Error("missing pfx2as month should fail the scrape")
	}
}

// relabelled serves probe from's k-root rounds on probe page's page.
type relabelled struct {
	Source
	page, from atlasdata.ProbeID
}

func (r relabelled) ReadKRoot(id atlasdata.ProbeID) ([]atlasdata.KRootRound, error) {
	if id == r.page {
		id = r.from
	}
	return r.Source.ReadKRoot(id)
}

// TestScrapeRefusesForeignKRootRounds checks that a k-root page holding
// another probe's rounds fails that probe's fetch, so its rounds are
// never filed under the page's probe: with no error budget the scrape
// fails, and with one the probe is skipped.
func TestScrapeRefusesForeignKRootRounds(t *testing.T) {
	ds := atlasdata.NewDataset()
	for _, id := range []atlasdata.ProbeID{206, 207} {
		ds.Probes[id] = atlasdata.ProbeMeta{ID: id, Country: "DE", Version: atlasdata.V3, ConnectedDays: 300}
		ds.KRoot[id] = []atlasdata.KRootSample{{Timestamp: 1420082118, Sent: 3, Success: 3, LTS: 60}}
	}
	srv := httptest.NewServer(NewServer(relabelled{Source: ds, page: 206, from: 207}))
	defer srv.Close()

	const want = "probe 206 k-root rounds contain a record for probe 207"
	if _, err := (&Client{BaseURL: srv.URL}).ScrapeAll(); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("ScrapeAll = %v, want an error containing %q", err, want)
	}
	got, report, err := (&Client{BaseURL: srv.URL, AllowFailures: 1}).ScrapeAllContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Skipped) != 1 || report.Skipped[0].Probe != 206 || !strings.Contains(report.Skipped[0].Err.Error(), want) {
		t.Errorf("skipped %+v, want probe 206 for %q", report.Skipped, want)
	}
	if _, ok := got.KRoot[206]; ok || !reflect.DeepEqual(got.KRoot[207], ds.KRoot[207]) {
		t.Errorf("scraped k-root rounds %+v, want probe 207's alone", got.KRoot)
	}
}

// relabelledUptime serves probe from's uptime records on probe page's
// page.
type relabelledUptime struct {
	Source
	page, from atlasdata.ProbeID
}

func (r relabelledUptime) ReadUptime(id atlasdata.ProbeID) ([]atlasdata.UptimeRecord, error) {
	if id == r.page {
		id = r.from
	}
	return r.Source.ReadUptime(id)
}

// TestScrapeRefusesForeignUptimeRecords is TestScrapeRefusesForeignKRootRounds
// for uptime records, which a Dataset also stores without their probe.
func TestScrapeRefusesForeignUptimeRecords(t *testing.T) {
	ds := atlasdata.NewDataset()
	for _, id := range []atlasdata.ProbeID{206, 207} {
		ds.Probes[id] = atlasdata.ProbeMeta{ID: id, Country: "DE", Version: atlasdata.V3, ConnectedDays: 300}
		ds.Uptime[id] = []atlasdata.UptimeSample{{Timestamp: 1420082118, Uptime: 5000}}
	}
	srv := httptest.NewServer(NewServer(relabelledUptime{Source: ds, page: 206, from: 207}))
	defer srv.Close()

	const want = "probe 206 uptime records contain a record for probe 207"
	if _, err := (&Client{BaseURL: srv.URL}).ScrapeAll(); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("ScrapeAll = %v, want an error containing %q", err, want)
	}
	got, report, err := (&Client{BaseURL: srv.URL, AllowFailures: 1}).ScrapeAllContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Skipped) != 1 || report.Skipped[0].Probe != 206 || !strings.Contains(report.Skipped[0].Err.Error(), want) {
		t.Errorf("skipped %+v, want probe 206 for %q", report.Skipped, want)
	}
	if _, ok := got.Uptime[206]; ok || !reflect.DeepEqual(got.Uptime[207], ds.Uptime[207]) {
		t.Errorf("scraped uptime records %+v, want probe 207's alone", got.Uptime)
	}
}

// flakyHandler fails the first n requests per path with a 503, then
// delegates to the real server.
type flakyHandler struct {
	inner    http.Handler
	mu       sync.Mutex
	failures map[string]int
	failN    int
}

func (f *flakyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	n := f.failures[r.URL.Path]
	f.failures[r.URL.Path] = n + 1
	f.mu.Unlock()
	if n < f.failN {
		http.Error(w, "transient", http.StatusServiceUnavailable)
		return
	}
	f.inner.ServeHTTP(w, r)
}

func TestScrapeRetriesTransientFailures(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Seed = 3
	cfg.Scale = 0.02
	world, err := sim.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakyHandler{
		inner:    NewServer(world.Dataset),
		failures: make(map[string]int),
		failN:    2,
	}
	srv := httptest.NewServer(flaky)
	defer srv.Close()

	c := &Client{BaseURL: srv.URL, Months: world.Dataset.Pfx2AS.Months(), Retries: 3,
		Backoff: backoff.Policy{Base: time.Millisecond, Max: 4 * time.Millisecond}}
	scraped, err := c.ScrapeAll()
	if err != nil {
		t.Fatalf("scrape with retries failed: %v", err)
	}
	if len(scraped.Probes) != len(world.Dataset.Probes) {
		t.Errorf("scraped %d probes, want %d", len(scraped.Probes), len(world.Dataset.Probes))
	}

	// With retries below the failure count, the scrape must fail.
	flaky2 := &flakyHandler{inner: NewServer(world.Dataset), failures: make(map[string]int), failN: 5}
	srv2 := httptest.NewServer(flaky2)
	defer srv2.Close()
	c2 := &Client{BaseURL: srv2.URL, Retries: 1,
		Backoff: backoff.Policy{Base: time.Millisecond, Max: 4 * time.Millisecond}}
	if _, err := c2.ScrapeAll(); err == nil {
		t.Error("persistent failures should defeat limited retries")
	}
}

func TestClientDoesNotRetry404(t *testing.T) {
	hits := 0
	var mu sync.Mutex
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		hits++
		mu.Unlock()
		http.NotFound(w, r)
	}))
	defer srv.Close()
	c := &Client{BaseURL: srv.URL, Retries: 5,
		Backoff: backoff.Policy{Base: time.Millisecond, Max: 4 * time.Millisecond}}
	if _, err := c.FetchProbeArchive(); err == nil {
		t.Fatal("404 should fail")
	}
	if hits != 1 {
		t.Errorf("404 fetched %d times; 4xx must not be retried", hits)
	}
}
