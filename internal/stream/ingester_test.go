package stream_test

import (
	"fmt"
	"sync"
	"testing"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/core"
	"dynaddr/internal/ip4"
	"dynaddr/internal/pfx2as"
	"dynaddr/internal/simclock"
	"dynaddr/internal/stream"
)

var t0 = simclock.StudyStart

func at(h int) simclock.Time { return t0.Add(simclock.Duration(h) * simclock.Hour) }

func meta(id atlasdata.ProbeID) atlasdata.ProbeMeta {
	return atlasdata.ProbeMeta{ID: id, Country: "DE", Version: atlasdata.V3, ConnectedDays: 200}
}

func conn(id atlasdata.ProbeID, start, end simclock.Time, addr string) atlasdata.ConnLogEntry {
	return atlasdata.ConnLogEntry{
		Probe: id, Start: start, End: end,
		Family: atlasdata.V4, Addr: ip4.MustParseAddr(addr),
	}
}

func testStore(t testing.TB) *pfx2as.SnapshotStore {
	t.Helper()
	tbl, err := pfx2as.NewTable([]pfx2as.Entry{
		{Prefix: ip4.MustParsePrefix("10.0.0.0/16"), ASN: 64500},
		{Prefix: ip4.MustParsePrefix("10.1.0.0/16"), ASN: 64500},
		{Prefix: ip4.MustParsePrefix("192.168.0.0/16"), ASN: 64501},
	})
	if err != nil {
		t.Fatal(err)
	}
	store := pfx2as.NewSnapshotStore()
	for m := 201501; m <= 201512; m++ {
		store.Put(pfx2as.Month(m), tbl)
	}
	return store
}

// TestStateMachineBasics drives one probe through a change, a bounded
// duration, a network outage inside the change gap, and a reboot, then
// checks every aggregate the snapshot exposes for it.
func TestStateMachineBasics(t *testing.T) {
	ing := stream.NewIngester(stream.Config{Shards: 2, Pfx2AS: testStore(t)})
	id := atlasdata.ProbeID(206)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(ing.Meta(meta(id)))

	// Three addresses: A for 0-24h, B for 25-49h, C from 50h on. The B
	// run is bounded by changes on both sides — one 24h duration.
	must(ing.ConnLog(conn(id, at(0), at(24), "10.0.0.1")))
	// The A→B gap contains an all-lost k-root run with growing LTS: a
	// network outage, so the first change is outage-linked.
	must(ing.KRoot(atlasdata.KRootRound{Probe: id, Timestamp: at(24).Add(10 * simclock.Minute), Sent: 3, Success: 0, LTS: 300}))
	must(ing.KRoot(atlasdata.KRootRound{Probe: id, Timestamp: at(24).Add(20 * simclock.Minute), Sent: 3, Success: 0, LTS: 900}))
	must(ing.KRoot(atlasdata.KRootRound{Probe: id, Timestamp: at(24).Add(30 * simclock.Minute), Sent: 3, Success: 3, LTS: 30}))
	must(ing.ConnLog(conn(id, at(25), at(49), "10.1.0.1")))
	must(ing.ConnLog(conn(id, at(50), at(80), "10.0.0.9")))

	// A reboot: first report sets the baseline, the second one implies a
	// boot instant far past it.
	must(ing.Uptime(atlasdata.UptimeRecord{Probe: id, Timestamp: at(60), Uptime: int64(60 * 3600)}))
	must(ing.Uptime(atlasdata.UptimeRecord{Probe: id, Timestamp: at(70), Uptime: 600}))

	snap := ing.Snapshot()
	if snap.Probes != 1 || snap.Unregistered != 0 {
		t.Fatalf("probes=%d unregistered=%d", snap.Probes, snap.Unregistered)
	}
	if snap.Changes != 2 {
		t.Errorf("changes = %d, want 2", snap.Changes)
	}
	if snap.NetworkOutages != 1 {
		t.Errorf("network outages = %d, want 1", snap.NetworkOutages)
	}
	if snap.OutageLinkedChanges != 1 {
		t.Errorf("outage-linked changes = %d, want 1", snap.OutageLinkedChanges)
	}
	if snap.Reboots != 1 {
		t.Errorf("reboots = %d, want 1", snap.Reboots)
	}
	if snap.Categories[core.CatAnalyzable] != 1 {
		t.Errorf("categories = %v, want one analyzable", snap.Categories)
	}
	agg := snap.AS(64500)
	if agg == nil {
		t.Fatal("no aggregate for AS64500")
	}
	if agg.Probes != 1 || agg.Changes != 2 {
		t.Errorf("AS64500 probes=%d changes=%d, want 1/2", agg.Probes, agg.Changes)
	}
	// The one bounded duration: address B held 25h-49h = 24 hours.
	if got := agg.TTF.MassOf(24); got != 24 {
		t.Errorf("TTF mass at 24h = %v, want 24", got)
	}
	if agg.Sessions != 3 {
		t.Errorf("AS64500 sessions = %d, want 3", agg.Sessions)
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMultiASProbeExcluded checks that a probe whose change crosses
// ASes stays out of the per-AS aggregates, mirroring the batch filter.
func TestMultiASProbeExcluded(t *testing.T) {
	ing := stream.NewIngester(stream.Config{Shards: 1, Pfx2AS: testStore(t)})
	id := atlasdata.ProbeID(301)
	if err := ing.Meta(meta(id)); err != nil {
		t.Fatal(err)
	}
	for i, addr := range []string{"10.0.0.1", "192.168.0.1", "10.0.0.2"} {
		e := conn(id, at(i*24), at(i*24+20), addr)
		if err := ing.ConnLog(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	snap := ing.Snapshot()
	if snap.GeoProbes != 1 {
		t.Errorf("geo probes = %d, want 1", snap.GeoProbes)
	}
	if snap.ASProbes != 0 || len(snap.PerAS) != 0 {
		t.Errorf("multi-AS probe leaked into AS aggregates: %d probes, %d ASes",
			snap.ASProbes, len(snap.PerAS))
	}
}

// TestOutOfOrderRejection checks that records violating per-probe time
// order are counted as rejected, not folded into state.
func TestOutOfOrderRejection(t *testing.T) {
	ing := stream.NewIngester(stream.Config{Shards: 1})
	id := atlasdata.ProbeID(55)
	if err := ing.ConnLog(conn(id, at(10), at(20), "10.0.0.1")); err != nil {
		t.Fatal(err)
	}
	// Overlaps the previous session: rejected.
	if err := ing.ConnLog(conn(id, at(15), at(30), "10.0.0.2")); err != nil {
		t.Fatal(err)
	}
	if err := ing.KRoot(atlasdata.KRootRound{Probe: id, Timestamp: at(10), Sent: 3, Success: 3, LTS: 10}); err != nil {
		t.Fatal(err)
	}
	if err := ing.KRoot(atlasdata.KRootRound{Probe: id, Timestamp: at(5), Sent: 3, Success: 3, LTS: 10}); err != nil {
		t.Fatal(err)
	}
	if err := ing.Uptime(atlasdata.UptimeRecord{Probe: id, Timestamp: at(10), Uptime: 100}); err != nil {
		t.Fatal(err)
	}
	if err := ing.Uptime(atlasdata.UptimeRecord{Probe: id, Timestamp: at(9), Uptime: 100}); err != nil {
		t.Fatal(err)
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	snap := ing.Snapshot()
	if snap.Records.Rejected != 3 {
		t.Errorf("rejected = %d, want 3", snap.Records.Rejected)
	}
	if snap.Changes != 0 {
		t.Errorf("rejected conn entry still produced a change")
	}
}

// TestInvalidRecordsError checks that malformed records fail the ingest
// call itself.
func TestInvalidRecordsError(t *testing.T) {
	ing := stream.NewIngester(stream.Config{Shards: 1})
	defer ing.Close()
	bad := atlasdata.ConnLogEntry{Probe: 1, Start: at(5), End: at(1), Family: atlasdata.V4, Addr: ip4.MustParseAddr("10.0.0.1")}
	if err := ing.ConnLog(bad); err == nil {
		t.Error("backwards connection accepted")
	}
	if err := ing.KRoot(atlasdata.KRootRound{Probe: 1, Sent: 1, Success: 2}); err == nil {
		t.Error("k-root round with more successes than pings accepted")
	}
	if err := ing.Uptime(atlasdata.UptimeRecord{Probe: 1, Uptime: -1}); err == nil {
		t.Error("negative uptime accepted")
	}
	if err := ing.Meta(atlasdata.ProbeMeta{ID: 0, Version: atlasdata.V3}); err == nil {
		t.Error("zero probe ID accepted")
	}
}

// TestClosedIngester checks ErrClosed semantics and that Snapshot still
// works after Close.
func TestClosedIngester(t *testing.T) {
	ing := stream.NewIngester(stream.Config{Shards: 2})
	if err := ing.ConnLog(conn(7, at(0), at(1), "10.0.0.1")); err != nil {
		t.Fatal(err)
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ing.Close(); err != nil {
		t.Fatal("second Close should be a no-op, got", err)
	}
	if err := ing.ConnLog(conn(7, at(2), at(3), "10.0.0.1")); err != stream.ErrClosed {
		t.Errorf("ingest after close = %v, want ErrClosed", err)
	}
	snap := ing.Snapshot()
	if snap.Records.ConnLogs != 1 {
		t.Errorf("post-close snapshot lost records: %+v", snap.Records)
	}
}

// TestConcurrentIngest hammers the ingester from many goroutines with
// interleaved snapshots — the -race workout — and checks nothing is
// lost. A tiny buffer forces the backpressure path.
func TestConcurrentIngest(t *testing.T) {
	ing := stream.NewIngester(stream.Config{Shards: 4, Buffer: 2})
	const workers = 8
	const perWorker = 200

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := atlasdata.ProbeID(1000 + w)
			if err := ing.Meta(meta(id)); err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < perWorker; i++ {
				e := conn(id, at(2*i), at(2*i+1), fmt.Sprintf("10.0.%d.%d", w, i%250+1))
				if err := ing.ConnLog(e); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	// Snapshots race with ingest; each must be internally consistent.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			snap := ing.Snapshot()
			if snap.Records.Rejected != 0 {
				t.Errorf("spurious rejections under concurrency: %+v", snap.Records)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	snap := ing.Snapshot()
	if want := int64(workers * perWorker); snap.Records.ConnLogs != want {
		t.Errorf("conn records = %d, want %d", snap.Records.ConnLogs, want)
	}
	if snap.Probes != workers {
		t.Errorf("probes = %d, want %d", snap.Probes, workers)
	}
}

// TestSnapshotSeesPriorIngest locks in the consistency contract: a
// record whose ingest call returned is visible to a later Snapshot.
func TestSnapshotSeesPriorIngest(t *testing.T) {
	ing := stream.NewIngester(stream.Config{Shards: 3})
	defer ing.Close()
	for i := 0; i < 50; i++ {
		id := atlasdata.ProbeID(100 + i)
		if err := ing.ConnLog(conn(id, at(0), at(1), "10.0.0.1")); err != nil {
			t.Fatal(err)
		}
		snap := ing.Snapshot()
		if snap.Records.ConnLogs < int64(i+1) {
			t.Fatalf("snapshot after %d ingests reports %d conn records",
				i+1, snap.Records.ConnLogs)
		}
	}
}
