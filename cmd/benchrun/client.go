package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"dynaddr/internal/atlasapi"
)

// newConn returns a client that holds at most one keep-alive connection
// per host: the benchmark drives the system from one process over at
// most nproc such connections, so the connection count is part of the
// workload definition.
func newConn() *http.Client {
	return &http.Client{Timeout: 60 * time.Second, Transport: connTransport()}
}

func connTransport() *http.Transport {
	return &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
}

// closeConns drops the clients' idle connections.
func closeConns(cs []*http.Client) {
	for _, c := range cs {
		c.CloseIdleConnections()
	}
}

// opStats counts operations and failures. Safe for concurrent use.
type opStats struct {
	mu        sync.Mutex
	attempted int
	failed    int
	firstErr  string
}

func (o *opStats) add(err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	if err != nil {
		o.failed++
		if o.firstErr == "" {
			o.firstErr = err.Error()
		}
	}
}

// err summarises failures as one error, nil when there were none.
func (o *opStats) err() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.failed == 0 {
		return nil
	}
	return fmt.Errorf("%d of %d operations failed, first: %s", o.failed, o.attempted, o.firstErr)
}

// post sends one binary batch and checks the whole batch was accepted.
func post(ctx context.Context, c *http.Client, base string, b batch) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+atlasapi.RouteStreamRecords, bytes.NewReader(b.body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", atlasapi.ContentTypeBinary)
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	var acc struct {
		Accepted int `json:"accepted"`
	}
	if err := json.Unmarshal(body, &acc); err != nil {
		return fmt.Errorf("POST: bad accept envelope %q", body)
	}
	if acc.Accepted != b.records {
		return fmt.Errorf("POST: accepted %d of %d records", acc.Accepted, b.records)
	}
	return nil
}

// closedLoop POSTs batches back to back on one connection, timing each
// from its send. It returns the latencies in milliseconds.
func closedLoop(ctx context.Context, c *http.Client, base string, bs []batch, ops *opStats) []float64 {
	lat := make([]float64, 0, len(bs))
	for _, b := range bs {
		t := time.Now()
		err := post(ctx, c, base, b)
		lat = append(lat, ms(time.Since(t)))
		ops.add(err)
	}
	return lat
}

// openLoop POSTs batches on a fixed schedule of rate records per second
// from t0, whether or not the server keeps up, timing each POST from the
// moment it was due (see pace). onAck (optional) sees the cumulative
// acked record count. Returns latencies and how late each send left, in
// ms.
func openLoop(ctx context.Context, c *http.Client, base string, bs []batch, rate float64, t0 time.Time, ops *opStats, onAck func(cum int, at time.Time)) (lat, late []float64) {
	lat = make([]float64, 0, len(bs))
	late = make([]float64, 0, len(bs))
	cum := 0
	for _, b := range bs {
		due := t0.Add(time.Duration(float64(cum) / rate * float64(time.Second)))
		start := pace(due)
		late = append(late, ms(time.Since(due)))
		err := post(ctx, c, base, b)
		done := time.Now()
		lat = append(lat, ms(done.Sub(start)))
		ops.add(err)
		cum += b.records
		if onAck != nil && err == nil {
			onAck(cum, done)
		}
	}
	return lat, late
}

// pace waits for an open-loop request's due time and returns the time
// its latency counts from. A request already overdue when the previous
// one finished counts from its due time, so a server stall is charged
// to every request queued behind it. A request the generator slept for
// counts from its actual send: Go's timers wake up to a millisecond
// late on an idle runtime, and that oversleep is the generator's error,
// not the server's (it is reported separately as late_ms).
func pace(due time.Time) time.Time {
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
		return time.Now()
	}
	return due
}

// readOp is one scheduled conditional GET of one virtual poller.
type readOp struct {
	due    time.Duration // offset from the schedule start
	poller int
	path   string
}

// pollSchedule lays out n virtual pollers at hz requests per second
// each for dur, phases spread evenly, merged into one due-ordered list.
func pollSchedule(paths []string, hz float64, dur time.Duration) []readOp {
	period := time.Duration(float64(time.Second) / hz)
	var ops []readOp
	for k := time.Duration(0); k < dur; k += period {
		for p, path := range paths {
			due := k + period*time.Duration(p)/time.Duration(len(paths))
			if due < dur {
				ops = append(ops, readOp{due: due, poller: p, path: path})
			}
		}
	}
	// Stable by due: phases are increasing within one period, and
	// periods do not overlap, so ops is already sorted.
	return ops
}

// readResult is what a read schedule produced.
type readResult struct {
	lat        []float64 // ms, 200s and 304s, timed as pace says
	ok, notMod int
	bytes200   int64
	latByPath  map[string][]float64
}

// runReads executes a read schedule sequentially on one connection —
// an open loop: a slow response delays the requests queued behind it,
// and each is timed from its due time (see pace). Every poller
// revalidates with the ETag of its own previous answer. observe
// (optional) sees each summary ETag.
func runReads(ctx context.Context, c *http.Client, base string, sched []readOp, t0 time.Time, ops *opStats, observe func(etag string, at time.Time)) readResult {
	etags := map[int]string{}
	res := readResult{lat: make([]float64, 0, len(sched)), latByPath: map[string][]float64{}}
	for _, op := range sched {
		if ctx.Err() != nil {
			break
		}
		start := pace(t0.Add(op.due))
		code, etag, n, err := get(ctx, c, base+op.path, etags[op.poller])
		done := time.Now()
		if err == nil && code != http.StatusOK && code != http.StatusNotModified {
			err = fmt.Errorf("GET %s: %d", op.path, code)
		}
		ops.add(err)
		if err != nil {
			continue
		}
		l := ms(done.Sub(start))
		res.lat = append(res.lat, l)
		res.latByPath[routeName(op.path)] = append(res.latByPath[routeName(op.path)], l)
		if code == http.StatusNotModified {
			res.notMod++
		} else {
			res.ok++
			res.bytes200 += int64(n)
		}
		etags[op.poller] = etag
		if observe != nil && strings.HasSuffix(op.path, "/summary") {
			observe(etag, done)
		}
	}
	return res
}

// routeName labels a live path by its route: summary, continents,
// analysis or as.
func routeName(path string) string {
	rest := strings.TrimPrefix(path, "/api/v1/live/")
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// get issues one GET, conditional when etag is set, and drains the body.
func get(ctx context.Context, c *http.Client, url, etag string) (code int, newETag string, n int, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, "", 0, err
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, "", 0, err
	}
	m, err := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, "", 0, err
	}
	return resp.StatusCode, resp.Header.Get("ETag"), int(m), nil
}

// fetch GETs a body unconditionally, requiring 200.
func fetch(ctx context.Context, c *http.Client, url string) (body []byte, etag string, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, "", err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(body))
	}
	return body, resp.Header.Get("ETag"), nil
}

// etagSeq extracts the applied-record sequence from an ETag
// "g<gen>-s<seq>"; ok is false for anything else.
func etagSeq(etag string) (seq uint64, ok bool) {
	etag = strings.Trim(strings.TrimPrefix(etag, "W/"), `"`)
	_, s, found := strings.Cut(etag, "-s")
	if !found {
		return 0, false
	}
	v, err := strconv.ParseUint(s, 10, 64)
	return v, err == nil
}

// etagGen extracts the checkpoint generation from an ETag.
func etagGen(etag string) (uint64, bool) {
	etag = strings.Trim(strings.TrimPrefix(etag, "W/"), `"`)
	g, _, found := strings.Cut(etag, "-s")
	if !found || !strings.HasPrefix(g, "g") {
		return 0, false
	}
	v, err := strconv.ParseUint(g[1:], 10, 64)
	return v, err == nil
}

// visibility measures ack-to-visible lag: how long after a POST was
// acked a summary read first carried an ETag whose sequence covers the
// acked records.
type visibility struct {
	mu      sync.Mutex
	pending []ackMark
	seen    uint64
	lags    []float64
}

type ackMark struct {
	cum uint64
	at  time.Time
}

// acked records that the stream position cum was acked at at.
func (v *visibility) acked(cum uint64, at time.Time) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.seen >= cum {
		v.lags = append(v.lags, 0) // a read already saw it before the ack returned
		return
	}
	v.pending = append(v.pending, ackMark{cum: cum, at: at})
}

// observed records a summary ETag read at at.
func (v *visibility) observed(etag string, at time.Time) {
	seq, ok := etagSeq(etag)
	if !ok {
		return
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if seq > v.seen {
		v.seen = seq
	}
	i := 0
	for ; i < len(v.pending) && v.pending[i].cum <= seq; i++ {
		v.lags = append(v.lags, ms(at.Sub(v.pending[i].at)))
	}
	v.pending = v.pending[i:]
}

func (v *visibility) result() []float64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return append([]float64(nil), v.lags...)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
