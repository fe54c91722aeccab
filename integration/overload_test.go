package integration

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"dynaddr/internal/atlasapi"
	"dynaddr/internal/atlasdata"
	"dynaddr/internal/backoff"
	"dynaddr/internal/sim"
)

// splitDataset partitions a dataset's probes round-robin into k
// disjoint datasets so k producers can stream concurrently. Per-probe
// record order — the only order the ingester enforces — is preserved.
func splitDataset(ds *atlasdata.Dataset, k int) []*atlasdata.Dataset {
	ids := make([]atlasdata.ProbeID, 0, len(ds.Probes))
	for id := range ds.Probes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	parts := make([]*atlasdata.Dataset, k)
	lits := make([]*atlasdata.V6Interner, k)
	for i := range parts {
		parts[i] = atlasdata.NewDataset()
		lits[i] = atlasdata.NewV6Interner(&parts[i].V6)
	}
	for i, id := range ids {
		p := parts[i%k]
		p.Probes[id] = ds.Probes[id]
		entries, _ := ds.ReadConnLogs(id)
		p.ConnLogs[id], _ = atlasdata.ConnLogSeries(id, entries, lits[i%k]) // ds's own, so refused by none
		p.KRoot[id] = ds.KRoot[id]
		p.Uptime[id] = ds.Uptime[id]
	}
	return parts
}

// overloadProducer returns a producer tuned for a shedding server:
// generous retry budget, short backoff so the 1s Retry-After hints are
// capped and the test stays fast.
func overloadProducer(base string) *atlasapi.StreamProducer {
	return atlasapi.NewStreamProducer(context.Background(), base,
		atlasapi.WithRetries(50),
		atlasapi.WithBackoff(backoff.Policy{Base: 10 * time.Millisecond, Max: 150 * time.Millisecond}))
}

// feedConcurrently streams each part through its own producer; every
// feed and flush must succeed despite shedding.
func feedConcurrently(t *testing.T, base string, parts []*atlasdata.Dataset) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, len(parts))
	for i, part := range parts {
		wg.Add(1)
		go func(i int, part *atlasdata.Dataset) {
			defer wg.Done()
			p := overloadProducer(base)
			if err := sim.ReplayDataset(part, p); err != nil {
				errs[i] = err
				return
			}
			errs[i] = p.Flush()
		}(i, part)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("producer %d: %v", i, err)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
}

// TestOverloadSheddingOverHTTP saturates a tightly-gated atlasd
// (-ingest-max-inflight 1) with concurrent producers and asserts the
// overload contract end to end: outside observers get 429 with a
// Retry-After pacing hint, the shed counter moves, and — because the
// producers honor the hint and retry — every record still lands, so
// the final analysis equals an unthrottled reference run.
func TestOverloadSheddingOverHTTP(t *testing.T) {
	bins := buildBinaries(t)
	atlasd := filepath.Join(bins, "atlasd")
	ds := crashWorld(t, 47)

	addr := pickAddr(t)
	srv := exec.Command(atlasd, "-live", "-shards", "2", "-addr", addr,
		"-ingest-max-inflight", "1", "-ingest-max-wait", "5ms", "-ingest-retry-after", "1s")
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

	feedConcurrently(t, base, splitDataset(ds, 4))

	// Saturate the single slot deterministically: a chunked POST whose
	// body never arrives holds the only ingest slot inside the handler,
	// so a concurrent probe must shed. Both requests are state-invisible
	// — the stalled one closes with zero records, the probe never gets
	// in — so the analysis below stays comparable with the reference.
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, base+atlasapi.RouteStreamRecords, pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", atlasapi.ContentTypeNDJSON)
	holderDone := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		holderDone <- err
	}()

	var retryAfter string
	sawShed := false
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && !sawShed {
		resp, err := http.Post(base+atlasapi.RouteStreamRecords, atlasapi.ContentTypeNDJSON, bytes.NewReader(nil))
		if err != nil {
			t.Fatal(err)
		}
		retryAfter = resp.Header.Get("Retry-After")
		resp.Body.Close()
		sawShed = resp.StatusCode == http.StatusTooManyRequests
	}
	pw.Close()
	if err := <-holderDone; err != nil {
		t.Fatalf("slot-holding request: %v", err)
	}
	if !sawShed {
		t.Error("no 429 observed with the only ingest slot held")
	} else if retryAfter == "" {
		t.Error("shed 429 carried no Retry-After header")
	}

	samples := parsePromText(t, string(getBody(t, base+"/metrics")))
	if got := promSum(samples, "ingest_shed_total", nil); got == 0 {
		t.Error("ingest_shed_total = 0 after shedding at the admission gate")
	}
	got := getBody(t, base+"/api/v1/live/summary")

	// Reference: same dataset into an ungated server, one producer.
	refAddr := pickAddr(t)
	ref := exec.Command(atlasd, "-live", "-shards", "2", "-addr", refAddr)
	if err := ref.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ref.Process.Kill()
		ref.Wait()
	}()
	waitForListen(t, refAddr)
	refBase := "http://" + refAddr
	waitForReady(t, refBase)
	refProd := atlasapi.NewStreamProducer(context.Background(), refBase)
	if err := sim.ReplayDataset(ds, refProd); err != nil {
		t.Fatal(err)
	}
	if err := refProd.Flush(); err != nil {
		t.Fatal(err)
	}
	want := getBody(t, refBase+"/api/v1/live/summary")
	if string(got) != string(want) {
		t.Errorf("summary after shedding differs from unthrottled reference\n got: %s\nwant: %s", got, want)
	}
}

// TestDegradedWALCrashRecoveryOverHTTP is the full robustness gauntlet:
// concurrent producers feed a durable atlasd whose WAL starts failing
// with ENOSPC mid-stream (flipping shards into degraded read-only
// mode, visible on /readyz), the fault heals, the shards re-arm, and
// then the process is SIGKILLed anyway. After a restart on the same
// WAL directory and a cursor-guided resume, the analysis must be
// byte-identical to an uninterrupted run: every acked record was
// durable or re-sent, none applied twice.
func TestDegradedWALCrashRecoveryOverHTTP(t *testing.T) {
	bins := buildBinaries(t)
	atlasd := filepath.Join(bins, "atlasd")
	ds := crashWorld(t, 53)
	walDir := filepath.Join(t.TempDir(), "wal")

	addr := pickAddr(t)
	srv := exec.Command(atlasd, "-live", "-shards", "2", "-addr", addr,
		"-wal-dir", walDir, "-fsync", "always", "-checkpoint-every", "64",
		"-ingest-retry-after", "100ms",
		"-fault-wal-enospc-after", "150", "-fault-wal-heal-after", "4s")
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	waitForListen(t, addr)
	base := "http://" + addr
	waitForReady(t, base)

	// Watch /readyz for the degraded window in the background: the WAL
	// fault must surface as a 503 naming degraded shards.
	sawDegraded := make(chan struct{})
	watchCtx, stopWatch := context.WithCancel(context.Background())
	defer stopWatch()
	go func() {
		for watchCtx.Err() == nil {
			resp, err := http.Get(base + "/readyz")
			if err == nil {
				var buf bytes.Buffer
				buf.ReadFrom(resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusServiceUnavailable &&
					strings.Contains(buf.String(), "degraded") {
					close(sawDegraded)
					return
				}
			}
			time.Sleep(20 * time.Millisecond)
		}
	}()

	// Feed the whole dataset through the fault: the 151st WAL write
	// fails, the producers ride out the degraded 503s on their retry
	// budget, and once the fault heals (4s) the shards re-arm and the
	// flushes complete.
	feedConcurrently(t, base, splitDataset(ds, 3))

	select {
	case <-sawDegraded:
	case <-time.After(5 * time.Second):
		t.Error("/readyz never reported degraded shards while the WAL fault was active")
	}
	stopWatch()

	// The feed completed, so every record is acked — now SIGKILL and
	// recover from the WAL alone.
	if err := srv.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	srv.Wait()

	addr = pickAddr(t)
	srv = exec.Command(atlasd, "-live", "-shards", "2", "-addr", addr,
		"-wal-dir", walDir, "-fsync", "always", "-checkpoint-every", "64")
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		srv.Process.Kill()
		srv.Wait()
	}()
	waitForListen(t, addr)
	base = "http://" + addr
	waitForReady(t, base)

	// Cursor-guided resume replays anything acked but not yet durable
	// when the process died (nothing should be missing after a clean
	// flush, but the resume path is the contract under test).
	prod := atlasapi.NewStreamProducer(context.Background(), base)
	rs := &resumeSink{t: t, p: prod, base: base, cursors: make(map[atlasdata.ProbeID]*probeCursor)}
	if err := sim.ReplayDataset(ds, rs); err != nil {
		t.Fatalf("resumed feed: %v", err)
	}
	if err := prod.Flush(); err != nil {
		t.Fatalf("flushing resumed feed: %v", err)
	}
	got := getBody(t, base+"/api/v1/live/summary")

	refAddr := pickAddr(t)
	ref := exec.Command(atlasd, "-live", "-shards", "2", "-addr", refAddr)
	if err := ref.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ref.Process.Kill()
		ref.Wait()
	}()
	waitForListen(t, refAddr)
	refBase := "http://" + refAddr
	waitForReady(t, refBase)
	refProd := atlasapi.NewStreamProducer(context.Background(), refBase)
	if err := sim.ReplayDataset(ds, refProd); err != nil {
		t.Fatal(err)
	}
	if err := refProd.Flush(); err != nil {
		t.Fatal(err)
	}
	want := getBody(t, refBase+"/api/v1/live/summary")
	if string(got) != string(want) {
		t.Errorf("recovered summary differs from uninterrupted run\n got: %s\nwant: %s", got, want)
	}
}

// TestDeadLetterChurnctlOverHTTP exercises the quarantine surface end
// to end with the real binaries: a poison record inside a good batch
// is quarantined (the batch still lands), churnctl -deadletter status
// reads the live counts, and after the server stops, churnctl
// -deadletter drain lists and truncates the durable quarantine log.
func TestDeadLetterChurnctlOverHTTP(t *testing.T) {
	bins := buildBinaries(t)
	atlasd := filepath.Join(bins, "atlasd")
	churnctl := filepath.Join(bins, "churnctl")
	walDir := filepath.Join(t.TempDir(), "wal")

	addr := pickAddr(t)
	srv := exec.Command(atlasd, "-live", "-shards", "2", "-addr", addr,
		"-wal-dir", walDir, "-fsync", "always")
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.Process.Kill()
			srv.Wait()
		}
	}()
	waitForListen(t, addr)
	base := "http://" + addr
	waitForReady(t, base)

	// One good record, one poison line: the batch is accepted with the
	// poison quarantined, not 400-ed.
	body := `{"kind":"uptime","probe":7001,"timestamp":1000,"uptime":60}
{"kind":"bogus","probe":7001}
`
	resp, err := http.Post(base+atlasapi.RouteStreamRecords, atlasapi.ContentTypeNDJSON, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	respBody := new(bytes.Buffer)
	respBody.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK ||
		!strings.Contains(respBody.String(), `"accepted": 1`) ||
		!strings.Contains(respBody.String(), `"quarantined": 1`) {
		t.Fatalf("poison batch: %d %q, want 200 with accepted 1, quarantined 1", resp.StatusCode, respBody)
	}
	// The snapshot barrier: quarantine rides the shard channel.
	getBody(t, base+"/api/v1/live/summary")

	status := run(t, churnctl, "-deadletter", "status", "-url", base)
	if !strings.Contains(status, "dead letters: 1") || !strings.Contains(status, "unknown-kind") {
		t.Errorf("churnctl -deadletter status -url output:\n%s", status)
	}

	// Stop the server; the quarantine log is durable.
	srv.Process.Kill()
	srv.Wait()
	stopped = true

	offline := run(t, churnctl, "-deadletter", "status", "-wal-dir", walDir)
	if !strings.Contains(offline, "dead letters: 1") {
		t.Errorf("offline status output:\n%s", offline)
	}
	list := run(t, churnctl, "-deadletter", "list", "-wal-dir", walDir)
	if !strings.Contains(list, `"reason":"unknown-kind"`) {
		t.Errorf("list output:\n%s", list)
	}

	// Drain prints the entry as list does, then truncates the log.
	drain := run(t, churnctl, "-deadletter", "drain", "-wal-dir", walDir)
	if !strings.Contains(drain, `"reason":"unknown-kind"`) || !strings.Contains(drain, "dead letters drained: 1") {
		t.Errorf("drain output:\n%s", drain)
	}
	after := run(t, churnctl, "-deadletter", "status", "-wal-dir", walDir)
	if !strings.Contains(after, "dead letters: 0") {
		t.Errorf("status after drain:\n%s", after)
	}
}
