package atlasapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/backoff"
	"dynaddr/internal/obs"
	"dynaddr/internal/pfx2as"
)

func jsonDecode(r io.Reader, v any) error { return json.NewDecoder(r).Decode(v) }

// Client scrapes a Server's endpoints and reassembles a dataset — the
// paper's collection step (§3.1: "we scraped each active probe's
// connection logs directly from the probe's webpage"). A year-long
// scrape of ~11k probe pages meets transient failures as a matter of
// course, so the client retries with jittered exponential backoff,
// classifies failures as transient or permanent, and (via
// AllowFailures) can trade isolated probe losses for a partial dataset
// instead of aborting the whole collection.
type Client struct {
	// BaseURL is the server root, e.g. "http://atlas.example.org".
	BaseURL string
	// HTTPClient defaults to a client with a 30-second timeout.
	HTTPClient *http.Client
	// Months lists the pfx2as snapshot months to fetch; empty skips
	// routing data (the analyzer then cannot map addresses to ASes).
	Months []pfx2as.Month
	// Concurrency is the number of probes fetched in parallel during
	// ScrapeAll; zero means 8. The paper scraped 10,977 probe pages —
	// sequential fetching does not survive that scale.
	Concurrency int
	// Retries is how many times a failed fetch is retried before giving
	// up; zero means 2. Only transient failures are retried: transport
	// errors, 5xx responses, and truncated bodies (a response that dies
	// mid-read). 4xx responses and validation errors in a complete body
	// are permanent and fail immediately.
	Retries int
	// Backoff spaces retry attempts with jittered exponential delays;
	// the zero value waits ~100-200ms before the first retry, doubling
	// per attempt up to 5s. Retries never run in a tight loop.
	Backoff backoff.Policy
	// AllowFailures is the per-scrape error budget: how many probes may
	// fail permanently (after retries) before the scrape as a whole is
	// abandoned. Failed probes are skipped — their records are simply
	// absent from the assembled dataset — and listed in the
	// ScrapeReport. Zero keeps the historical all-or-nothing behaviour;
	// negative means unlimited.
	AllowFailures int
	// Metrics, when non-nil, receives request, retry, backoff-sleep and
	// error-budget counters across every fetch this client issues.
	Metrics *obs.Registry

	// jitter feeds Backoff; the zero value is ready to use.
	jitter backoff.Jitter

	cmOnce sync.Once
	cm     *clientMetrics
}

// clientMetrics caches the client's instruments so the per-request
// path never touches the registry. Nil (Metrics unset) records
// nothing; methods are nil-receiver safe.
type clientMetrics struct {
	requests   *obs.Counter
	retries    *obs.Counter
	backoffSec *obs.Histogram
	budget     *obs.Counter
}

func (c *Client) metrics() *clientMetrics {
	c.cmOnce.Do(func() {
		if c.Metrics == nil {
			return
		}
		c.cm = &clientMetrics{
			requests: c.Metrics.Counter("scrape_requests_total",
				"HTTP requests issued by the scrape client, retries included."),
			retries: c.Metrics.Counter("scrape_retries_total",
				"Scrape fetch attempts beyond the first."),
			backoffSec: c.Metrics.Histogram("scrape_backoff_seconds",
				"Backoff sleeps between scrape retries, in seconds (the sum is total time spent backing off).", nil),
			budget: c.Metrics.Counter("scrape_budget_burned_total",
				"Probes skipped under the scrape error budget."),
		}
	})
	return c.cm
}

func (m *clientMetrics) request() {
	if m != nil {
		m.requests.Inc()
	}
}

func (m *clientMetrics) retried(delay time.Duration) {
	if m != nil {
		m.retries.Inc()
		m.backoffSec.Observe(delay.Seconds())
	}
}

func (m *clientMetrics) budgetBurned() {
	if m != nil {
		m.budget.Inc()
	}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return &http.Client{Timeout: 30 * time.Second}
}

// scrapeStats accumulates request counters across the fetches of one
// scrape. A nil *scrapeStats is valid and counts nothing.
type scrapeStats struct {
	attempts atomic.Int64
	retries  atomic.Int64
}

func (s *scrapeStats) attempt() {
	if s != nil {
		s.attempts.Add(1)
	}
}

func (s *scrapeStats) retry() {
	if s != nil {
		s.retries.Add(1)
	}
}

// retryDelay picks the wait before a retry: the server's Retry-After
// hint when it sent one (capped at the backoff policy's maximum delay,
// so a misbehaving server cannot park the client), else the policy's
// jittered exponential delay. u supplies the jitter entropy for the
// latter case.
func retryDelay(p backoff.Policy, attempt int, u uint64, retryAfter time.Duration) time.Duration {
	if retryAfter > 0 {
		if max := p.MaxDelay(); retryAfter > max {
			return max
		}
		return retryAfter
	}
	return p.Delay(attempt, u)
}

// ParseRetryAfter reads a response's Retry-After pacing hint, accepting
// both RFC 7231 forms: delay-seconds ("3") and HTTP-date ("Tue, 29 Oct
// 2024 16:56:32 GMT" and the obsolete date formats http.ParseTime
// knows). A date is converted to a delay against the local clock; dates
// in the past, negative seconds and garbage all mean "no usable hint"
// and return zero. Seconds past the longest Duration saturate to it, as
// RFC 9111 has caches treat an unrepresentable delta-seconds, so a
// longer pause is never read as a shorter one. Exported because the
// cluster coordinator paces its per-peer forwarding off the same header
// its own clients see.
func ParseRetryAfter(resp *http.Response) time.Duration {
	v := strings.TrimSpace(resp.Header.Get("Retry-After"))
	if v == "" {
		return 0
	}
	// Out of int's range, Atoi returns the bound it crossed.
	if secs, err := strconv.Atoi(v); err == nil || errors.Is(err, strconv.ErrRange) {
		switch {
		case secs < 0:
			return 0
		case int64(secs) > math.MaxInt64/int64(time.Second):
			return math.MaxInt64
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

// sleepFor waits d or until ctx is done, whichever comes first.
func sleepFor(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// get fetches a URL and hands the body to parse, converting HTTP errors
// into Go errors with the response text attached. Transient failures
// (transport errors, 429/5xx, truncated bodies) are retried with
// jittered exponential backoff; when the server sends a Retry-After
// pacing hint (it does on 429 and capacity 503s) the hint is honoured
// instead, capped at the policy's maximum delay. Other 4xx and
// validation errors are permanent. Cancelling ctx aborts the in-flight
// request and any backoff sleep.
func get[T any](ctx context.Context, c *Client, path string, parse func(io.Reader) (T, error), st *scrapeStats) (T, error) {
	var zero T
	retries := c.Retries
	if retries <= 0 {
		retries = 2
	}
	cm := c.metrics()
	var lastErr error
	var retryAfter time.Duration
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			st.retry()
			// The delay is computed with the same jitter word the sleep
			// consumes, so the recorded backoff is exactly the one served.
			d := retryDelay(c.Backoff, attempt-1, c.jitter.Uint64(), retryAfter)
			cm.retried(d)
			if err := sleepFor(ctx, d); err != nil {
				return zero, fmt.Errorf("atlasapi: GET %s: cancelled during retry backoff: %w (last error: %v)", path, err, lastErr)
			}
		}
		st.attempt()
		cm.request()
		v, retriable, ra, err := getOnce(ctx, c, path, parse)
		if err == nil {
			return v, nil
		}
		lastErr, retryAfter = err, ra
		if !retriable || ctx.Err() != nil {
			break
		}
	}
	return zero, lastErr
}

// trackedReader remembers whether the underlying body reader failed, so
// a parse error caused by a dying transfer can be told apart from a
// validation error in a complete body.
type trackedReader struct {
	r       io.Reader
	readErr error
}

func (t *trackedReader) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	if err != nil && err != io.EOF {
		t.readErr = err
	}
	return n, err
}

func getOnce[T any](ctx context.Context, c *Client, path string, parse func(io.Reader) (T, error)) (v T, retriable bool, retryAfter time.Duration, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return v, false, 0, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return v, true, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		// Drain past the captured prefix so the keep-alive connection
		// survives the error response (see StreamProducer.post).
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // best-effort drain
		err := fmt.Errorf("atlasapi: GET %s: %s: %s", path, resp.Status, msg)
		// 429 is the admission controller shedding load — transient by
		// definition, and its Retry-After says exactly when to return.
		retriable := resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests
		return v, retriable, ParseRetryAfter(resp), err
	}
	body := &trackedReader{r: resp.Body}
	v, err = parse(body)
	if err != nil {
		// A truncated body (transport died mid-read, or a framed
		// response that stops mid-value) is transient; a deterministic
		// validation error in a complete body is permanent and must not
		// burn the retry budget. No drain here: the body is suspect, and
		// Close discarding the connection is the right outcome.
		truncated := body.readErr != nil || errors.Is(err, io.ErrUnexpectedEOF)
		return v, truncated, 0, fmt.Errorf("atlasapi: GET %s: %w", path, err)
	}
	// Parsers stop at the end of the value they decode, which can leave
	// trailing bytes (a final newline, an unread epilogue) on the wire;
	// consume them so the connection returns to the pool.
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // best-effort drain
	return v, false, 0, nil
}

// FetchProbeArchiveContext retrieves all probe metadata.
func (c *Client) FetchProbeArchiveContext(ctx context.Context) ([]atlasdata.ProbeMeta, error) {
	return get(ctx, c, "/api/v1/probe-archive/", ParseProbeArchive, nil)
}

// FetchProbeArchive is FetchProbeArchiveContext with a background context.
func (c *Client) FetchProbeArchive() ([]atlasdata.ProbeMeta, error) {
	return c.FetchProbeArchiveContext(context.Background())
}

// FetchConnectionHistoryContext retrieves one probe's sessions.
func (c *Client) FetchConnectionHistoryContext(ctx context.Context, id atlasdata.ProbeID) ([]atlasdata.ConnLogEntry, error) {
	return c.fetchConnectionHistory(ctx, id, nil)
}

func (c *Client) fetchConnectionHistory(ctx context.Context, id atlasdata.ProbeID, st *scrapeStats) ([]atlasdata.ConnLogEntry, error) {
	return get(ctx, c, fmt.Sprintf("/probes/%d/connection-history/", id),
		func(r io.Reader) ([]atlasdata.ConnLogEntry, error) {
			return ParseConnectionHistory(r, id)
		}, st)
}

// FetchConnectionHistory is FetchConnectionHistoryContext with a
// background context.
func (c *Client) FetchConnectionHistory(id atlasdata.ProbeID) ([]atlasdata.ConnLogEntry, error) {
	return c.FetchConnectionHistoryContext(context.Background(), id)
}

// FetchKRootContext retrieves one probe's k-root ping rounds.
func (c *Client) FetchKRootContext(ctx context.Context, id atlasdata.ProbeID) ([]atlasdata.KRootRound, error) {
	return c.fetchKRoot(ctx, id, nil)
}

func (c *Client) fetchKRoot(ctx context.Context, id atlasdata.ProbeID, st *scrapeStats) ([]atlasdata.KRootRound, error) {
	return get(ctx, c, fmt.Sprintf("/api/v1/measurements/kroot/%d/", id), ParseKRootResults, st)
}

// FetchKRoot is FetchKRootContext with a background context.
func (c *Client) FetchKRoot(id atlasdata.ProbeID) ([]atlasdata.KRootRound, error) {
	return c.FetchKRootContext(context.Background(), id)
}

// FetchUptimeContext retrieves one probe's uptime reports.
func (c *Client) FetchUptimeContext(ctx context.Context, id atlasdata.ProbeID) ([]atlasdata.UptimeRecord, error) {
	return c.fetchUptime(ctx, id, nil)
}

func (c *Client) fetchUptime(ctx context.Context, id atlasdata.ProbeID, st *scrapeStats) ([]atlasdata.UptimeRecord, error) {
	return get(ctx, c, fmt.Sprintf("/api/v1/measurements/uptime/%d/", id), ParseUptimeResults, st)
}

// FetchUptime is FetchUptimeContext with a background context.
func (c *Client) FetchUptime(id atlasdata.ProbeID) ([]atlasdata.UptimeRecord, error) {
	return c.FetchUptimeContext(context.Background(), id)
}

// FetchMonthsContext discovers which pfx2as snapshot months the server
// offers.
func (c *Client) FetchMonthsContext(ctx context.Context) ([]pfx2as.Month, error) {
	return get(ctx, c, "/caida/pfx2as/", func(r io.Reader) ([]pfx2as.Month, error) {
		var raw []int
		if err := jsonDecode(r, &raw); err != nil {
			return nil, err
		}
		out := make([]pfx2as.Month, len(raw))
		for i, m := range raw {
			out[i] = pfx2as.Month(m)
		}
		return out, nil
	}, nil)
}

// FetchMonths is FetchMonthsContext with a background context.
func (c *Client) FetchMonths() ([]pfx2as.Month, error) {
	return c.FetchMonthsContext(context.Background())
}

// FetchPfx2ASContext retrieves one monthly routing snapshot.
func (c *Client) FetchPfx2ASContext(ctx context.Context, m pfx2as.Month) (*pfx2as.Table, error) {
	return c.fetchPfx2AS(ctx, m, nil)
}

func (c *Client) fetchPfx2AS(ctx context.Context, m pfx2as.Month, st *scrapeStats) (*pfx2as.Table, error) {
	entries, err := get(ctx, c, fmt.Sprintf("/caida/pfx2as/%d.txt", int(m)), pfx2as.ParseText, st)
	if err != nil {
		return nil, err
	}
	return pfx2as.NewTable(entries)
}

// FetchPfx2AS is FetchPfx2ASContext with a background context.
func (c *Client) FetchPfx2AS(m pfx2as.Month) (*pfx2as.Table, error) {
	return c.FetchPfx2ASContext(context.Background(), m)
}

// ProbeFailure records one probe the scrape gave up on after exhausting
// its retries.
type ProbeFailure struct {
	Probe atlasdata.ProbeID
	Err   error
}

// ScrapeReport summarises how a scrape went: how many probes the
// archive listed, how many were fetched, which were skipped under the
// error budget, and the request totals behind it.
type ScrapeReport struct {
	// Probes is the number of probes the archive listed.
	Probes int
	// Scraped is the number of probes whose records were all fetched.
	Scraped int
	// Skipped lists probes abandoned after exhausting retries, in
	// ascending probe-ID order.
	Skipped []ProbeFailure
	// Attempts counts HTTP requests issued, including retries.
	Attempts int64
	// Retries counts attempts beyond the first per fetch.
	Retries int64
	// Elapsed is the wall time of the scrape.
	Elapsed time.Duration
}

// Partial reports whether the dataset is missing any probe's records.
func (r *ScrapeReport) Partial() bool { return len(r.Skipped) > 0 }

// String renders a one-or-two-line human summary.
func (r *ScrapeReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scraped %d/%d probes in %v (%d requests, %d retries)",
		r.Scraped, r.Probes, r.Elapsed.Round(time.Millisecond), r.Attempts, r.Retries)
	if len(r.Skipped) > 0 {
		fmt.Fprintf(&b, "; skipped %d:", len(r.Skipped))
		for i, f := range r.Skipped {
			if i == 5 {
				fmt.Fprintf(&b, " … (%d more)", len(r.Skipped)-i)
				break
			}
			fmt.Fprintf(&b, " probe %d (%v)", f.Probe, f.Err)
		}
	}
	return b.String()
}

// ScrapeAll reassembles a complete dataset with a background context;
// see ScrapeAllContext. The report is discarded — with the default
// zero error budget any probe failure aborts the scrape, so this keeps
// the historical all-or-nothing semantics.
func (c *Client) ScrapeAll() (*atlasdata.Dataset, error) {
	ds, _, err := c.ScrapeAllContext(context.Background())
	return ds, err
}

// ScrapeAllContext reassembles a dataset: the probe archive, then all
// three record streams per probe (fetched Concurrency probes at a
// time), then the configured pfx2as months. The result validates before
// returning; the assembled dataset is independent of fetch order.
//
// Failure semantics: a probe whose fetch fails permanently (after
// retries) consumes one unit of the AllowFailures error budget and is
// skipped — the scrape degrades to a partial dataset rather than
// aborting. Once the budget is blown the scrape cancels its in-flight
// workers, stops dispatching new ones, and returns an error. The
// ScrapeReport is non-nil whenever the archive fetch succeeded, even
// alongside an error, so callers can see how far the scrape got.
// Cancelling ctx aborts in-flight requests and backoff sleeps promptly.
func (c *Client) ScrapeAllContext(ctx context.Context) (*atlasdata.Dataset, *ScrapeReport, error) {
	start := time.Now()
	st := &scrapeStats{}
	probes, err := get(ctx, c, "/api/v1/probe-archive/", ParseProbeArchive, st)
	if err != nil {
		return nil, nil, err
	}
	report := &ScrapeReport{Probes: len(probes)}
	finish := func() {
		report.Attempts = st.attempts.Load()
		report.Retries = st.retries.Load()
		report.Elapsed = time.Since(start)
		sort.Slice(report.Skipped, func(i, j int) bool {
			return report.Skipped[i].Probe < report.Skipped[j].Probe
		})
	}

	ds := atlasdata.NewDataset()
	for _, p := range probes {
		ds.Probes[p.ID] = p
	}

	workers := c.Concurrency
	if workers <= 0 {
		workers = 8
	}
	scrapeCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu       sync.Mutex
		fatalErr error
		wg       sync.WaitGroup
		sem      = make(chan struct{}, workers)
		// histories holds the fetched connection logs until every fetch
		// is in, so that their IPv6 literals are interned in probe order
		// whatever order the fetches end in.
		histories = make(map[atlasdata.ProbeID][]atlasdata.ConnLogEntry)
	)
	blown := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return fatalErr != nil
	}
	// skip charges one probe failure against the error budget; blowing
	// the budget cancels every in-flight worker.
	skip := func(id atlasdata.ProbeID, err error) {
		mu.Lock()
		defer mu.Unlock()
		c.metrics().budgetBurned()
		report.Skipped = append(report.Skipped, ProbeFailure{Probe: id, Err: err})
		if c.AllowFailures >= 0 && len(report.Skipped) > c.AllowFailures && fatalErr == nil {
			fatalErr = fmt.Errorf("atlasapi: scrape error budget exhausted (%d probes failed, %d allowed): %w",
				len(report.Skipped), c.AllowFailures, err)
			cancel()
		}
	}
dispatch:
	for _, p := range probes {
		// Stop dispatching as soon as the budget is blown or the caller
		// cancelled — don't queue fetches that are doomed anyway.
		if blown() {
			break
		}
		select {
		case sem <- struct{}{}:
		case <-scrapeCtx.Done():
			break dispatch
		}
		wg.Add(1)
		go func(p atlasdata.ProbeMeta) {
			defer wg.Done()
			defer func() { <-sem }()
			conns, kroot, uptime, err := c.fetchProbeRecords(scrapeCtx, p.ID, st)
			if err != nil {
				if scrapeCtx.Err() != nil {
					// Aborted by cancellation, not a probe failure.
					return
				}
				skip(p.ID, err)
				return
			}
			mu.Lock()
			report.Scraped++
			if len(conns) > 0 {
				histories[p.ID] = conns
			}
			if len(kroot) > 0 {
				ds.KRoot[p.ID] = kroot
			}
			if len(uptime) > 0 {
				ds.Uptime[p.ID] = uptime
			}
			mu.Unlock()
		}(p)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		finish()
		return nil, report, err
	}
	if blown() {
		finish()
		return nil, report, fatalErr
	}
	// Drop skipped probes' metadata so the partial dataset stays
	// internally consistent: every probe present is fully present.
	for _, f := range report.Skipped {
		delete(ds.Probes, f.Probe)
	}
	ids := make([]atlasdata.ProbeID, 0, len(histories))
	for id := range histories {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	lits := atlasdata.NewV6Interner(&ds.V6)
	for _, id := range ids {
		if ds.ConnLogs[id], err = atlasdata.ConnLogSeries(id, histories[id], lits); err != nil {
			finish()
			return nil, report, fmt.Errorf("probe %d history: %w", id, err)
		}
	}

	for _, m := range c.Months {
		tbl, err := c.fetchPfx2AS(ctx, m, st)
		if err != nil {
			finish()
			return nil, report, fmt.Errorf("pfx2as %v: %w", m, err)
		}
		ds.Pfx2AS.Put(m, tbl)
	}
	ds.SortRecords()
	if err := ds.Validate(); err != nil {
		finish()
		return nil, report, err
	}
	finish()
	return ds, report, nil
}

// fetchProbeRecords pulls one probe's three record streams, its k-root
// rounds and uptime records as the Dataset stores them. A k-root round or
// uptime record of another probe on the probe's page fails the fetch.
func (c *Client) fetchProbeRecords(ctx context.Context, id atlasdata.ProbeID, st *scrapeStats) (
	conns []atlasdata.ConnLogEntry, kroot []atlasdata.KRootSample, uptime []atlasdata.UptimeSample, err error) {
	if conns, err = c.fetchConnectionHistory(ctx, id, st); err != nil {
		return nil, nil, nil, fmt.Errorf("probe %d history: %w", id, err)
	}
	rounds, err := c.fetchKRoot(ctx, id, st)
	if err == nil {
		kroot, err = atlasdata.KRootSeries(id, rounds)
	}
	if err != nil {
		return nil, nil, nil, fmt.Errorf("probe %d k-root: %w", id, err)
	}
	ups, err := c.fetchUptime(ctx, id, st)
	if err == nil {
		uptime, err = atlasdata.UptimeSeries(id, ups)
	}
	if err != nil {
		return nil, nil, nil, fmt.Errorf("probe %d uptime: %w", id, err)
	}
	return conns, kroot, uptime, nil
}
