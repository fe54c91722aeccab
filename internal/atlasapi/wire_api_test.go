package atlasapi

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/ip4"
	"dynaddr/internal/obs"
	"dynaddr/internal/sim"
	"dynaddr/internal/stream"
)

// testWireBatch frames one probe's meta + session + round + report.
func testWireBatch(t *testing.T) []byte {
	t.Helper()
	return wireBatch(t,
		atlasdata.ProbeMeta{ID: 206, Country: "DE", Version: atlasdata.V3, ConnectedDays: 200},
		atlasdata.ConnLogEntry{
			Probe: 206, Start: liveHour(0), End: liveHour(24),
			Family: atlasdata.V4, Addr: ip4.MustParseAddr("10.0.0.1"),
		},
		atlasdata.KRootRound{Probe: 206, Timestamp: liveHour(12), Sent: 3, Success: 3, LTS: 30},
		atlasdata.UptimeRecord{Probe: 206, Timestamp: liveHour(12), Uptime: 3600},
	)
}

func postRaw(t *testing.T, url, contentType string, body []byte) (int, string) {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(msg)
}

// TestV2StreamRecordsBinary posts one framed binary batch and checks
// the ingest lands plus the per-codec counters move.
func TestV2StreamRecordsBinary(t *testing.T) {
	reg := obs.NewRegistry()
	ing := stream.NewIngester(stream.Config{Shards: 2, Pfx2AS: liveStore(t)})
	defer ing.Close()
	srv := httptest.NewServer(NewLiveServer(ing, WithLiveMetrics(reg)))
	defer srv.Close()

	code, body := postRaw(t, srv.URL+RouteStreamRecords, ContentTypeBinary, testWireBatch(t))
	if code != 200 || !strings.Contains(body, `"accepted": 4`) {
		t.Fatalf("binary POST: %d %q", code, body)
	}

	snap := ing.Snapshot()
	if snap.Records.Meta != 1 || snap.Records.ConnLogs != 1 || snap.Records.KRoot != 1 || snap.Records.Uptime != 1 {
		t.Fatalf("records after binary batch: %+v", snap.Records)
	}
	if v, ok := gatherValue(t, reg, "ingest_batches_total", obs.L("codec", "binary")); !ok || v != 1 {
		t.Errorf("ingest_batches_total{codec=binary} = %v (present=%v), want 1", v, ok)
	}
	if v, _ := gatherValue(t, reg, "ingest_batch_records_total", obs.L("codec", "binary")); v != 4 {
		t.Errorf("ingest_batch_records_total{codec=binary} = %v, want 4", v)
	}

	// A corrupted batch must reject (400) and count as rejected.
	bad := testWireBatch(t)
	bad[len(bad)-1] ^= 0x01
	if code, _ := postRaw(t, srv.URL+RouteStreamRecords, ContentTypeBinary, bad); code != 400 {
		t.Fatalf("corrupt batch returned %d, want 400", code)
	}
	if v, _ := gatherValue(t, reg, "ingest_batches_rejected_total", obs.L("codec", "binary")); v != 1 {
		t.Errorf("ingest_batches_rejected_total{codec=binary} = %v, want 1", v)
	}
}

func TestV2StreamRecordsNDJSON(t *testing.T) {
	reg := obs.NewRegistry()
	ing := stream.NewIngester(stream.Config{Shards: 2, Pfx2AS: liveStore(t)})
	defer ing.Close()
	srv := httptest.NewServer(NewLiveServer(ing, WithLiveMetrics(reg)))
	defer srv.Close()

	lines := `{"kind":"meta","probe":206,"country":"DE","version":3,"connected_days":200}
{"kind":"connlog","probe":206,"start":` + fmt.Sprint(int64(liveHour(0))) + `,"end":` + fmt.Sprint(int64(liveHour(24))) + `,"addr":"10.0.0.1"}
{"kind":"kroot","probe":206,"timestamp":` + fmt.Sprint(int64(liveHour(12))) + `,"sent":3,"success":3,"lts":30}
{"kind":"uptime","probe":206,"timestamp":` + fmt.Sprint(int64(liveHour(12))) + `,"uptime":3600}
`
	code, body := postRaw(t, srv.URL+RouteStreamRecords, ContentTypeNDJSON, []byte(lines))
	if code != 200 || !strings.Contains(body, `"accepted": 4`) {
		t.Fatalf("ndjson POST: %d %q", code, body)
	}
	snap := ing.Snapshot()
	if snap.Records.Meta != 1 || snap.Records.ConnLogs != 1 || snap.Records.KRoot != 1 || snap.Records.Uptime != 1 {
		t.Fatalf("records after ndjson batch: %+v", snap.Records)
	}
	if v, _ := gatherValue(t, reg, "ingest_batch_records_total", obs.L("codec", "ndjson")); v != 4 {
		t.Errorf("ingest_batch_records_total{codec=ndjson} = %v, want 4", v)
	}

	// An unknown kind inside a line is quarantined to the dead-letter
	// queue, not a batch failure: the response reports it and the batch
	// stays 200.
	code, body = postRaw(t, srv.URL+RouteStreamRecords, ContentTypeNDJSON, []byte(`{"kind":"bogus","probe":1}`))
	if code != 200 || !strings.Contains(body, `"accepted": 0`) || !strings.Contains(body, `"quarantined": 1`) {
		t.Fatalf("unknown kind: %d %q, want 200 with quarantined count", code, body)
	}
	ing.Snapshot() // barrier: the quarantine record rides the shard channel
	if dl := ing.DeadLetter(); dl.Total != 1 || dl.ByReason["unknown-kind"] != 1 {
		t.Fatalf("dead letter status = %+v, want 1 unknown-kind entry", dl)
	}

	// Counts beyond u16 and an LTS beyond int32 parse as JSON but are not
	// k-root rounds: each is quarantined as "validate".
	ts := fmt.Sprint(int64(liveHour(13)))
	code, body = postRaw(t, srv.URL+RouteStreamRecords, ContentTypeNDJSON, []byte(
		`{"kind":"kroot","probe":206,"timestamp":`+ts+`,"sent":70000,"success":1,"lts":30}
{"kind":"kroot","probe":206,"timestamp":`+ts+`,"sent":3,"success":3,"lts":2147483648}
`))
	if code != 200 || !strings.Contains(body, `"accepted": 0`) || !strings.Contains(body, `"quarantined": 2`) {
		t.Fatalf("out-of-range k-root: %d %q, want 200 with 2 quarantined", code, body)
	}
	ing.Snapshot()
	if dl := ing.DeadLetter(); dl.Total != 3 || dl.ByReason["validate"] != 2 {
		t.Fatalf("dead letter status = %+v, want 2 validate entries", dl)
	}
}

func TestV2ContentTypeNegotiation(t *testing.T) {
	reg := obs.NewRegistry()
	ing := stream.NewIngester(stream.Config{Shards: 1})
	defer ing.Close()
	srv := httptest.NewServer(NewLiveServer(ing, WithLiveMetrics(reg)))
	defer srv.Close()

	if code, _ := postRaw(t, srv.URL+RouteStreamRecords, "text/csv", []byte("a,b")); code != http.StatusUnsupportedMediaType {
		t.Fatalf("text/csv returned %d, want 415", code)
	}
	if v, _ := gatherValue(t, reg, "ingest_batches_rejected_total", obs.L("codec", "unknown")); v != 1 {
		t.Errorf("ingest_batches_rejected_total{codec=unknown} = %v, want 1", v)
	}

	// application/json rides the NDJSON fallback.
	if code, body := postRaw(t, srv.URL+RouteStreamRecords, "application/json; charset=utf-8",
		[]byte(`{"kind":"uptime","probe":5,"timestamp":100,"uptime":60}`)); code != 200 || !strings.Contains(body, `"accepted": 1`) {
		t.Fatalf("application/json POST: %d %q", code, body)
	}

	// GET is a 405 regardless of codec.
	resp, err := http.Get(srv.URL + RouteStreamRecords)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET returned %d, want 405", resp.StatusCode)
	}
}

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	return string(body)
}

// TestWireReplayEquivalence is the cross-codec oracle: the same dataset
// delivered over the v2 NDJSON envelope and the v2 binary codec must
// produce live summaries and analysis artefacts byte-identical to an
// in-process replay into an ingester with the same shard count.
func TestWireReplayEquivalence(t *testing.T) {
	world := smallWorld(t, 23, 0.02)
	ds := world.Dataset

	for _, shards := range []int{1, 3} {
		cfg := stream.Config{Shards: shards, Pfx2AS: ds.Pfx2AS, Analysis: true}
		ref := stream.NewIngester(cfg)
		if err := sim.ReplayDataset(ds, ref); err != nil {
			t.Fatal(err)
		}
		refSrv := httptest.NewServer(NewLiveServer(ref))
		wantSummary := getBody(t, refSrv.URL+"/api/v1/live/summary")
		wantAnalysis := getBody(t, refSrv.URL+"/api/v1/live/analysis")
		refSrv.Close()
		ref.Close()

		for _, codec := range []Codec{CodecNDJSON, CodecBinary} {
			t.Run(fmt.Sprintf("shards=%d/codec=%s", shards, codec), func(t *testing.T) {
				ing := stream.NewIngester(cfg)
				defer ing.Close()
				srv := httptest.NewServer(NewLiveServer(ing))
				defer srv.Close()

				p := NewStreamProducer(context.Background(), srv.URL,
					WithCodec(codec), WithBatchSize(64), WithBackoff(fastBackoff))
				if err := sim.ReplayDataset(ds, p); err != nil {
					t.Fatalf("replay via %s: %v", codec, err)
				}
				if err := p.Flush(); err != nil {
					t.Fatalf("flush via %s: %v", codec, err)
				}

				if summary := getBody(t, srv.URL+"/api/v1/live/summary"); summary != wantSummary {
					t.Errorf("summary differs from in-process replay:\n%s\nvs\n%s", summary, wantSummary)
				}
				if analysis := getBody(t, srv.URL+"/api/v1/live/analysis"); analysis != wantAnalysis {
					t.Errorf("analysis differs from in-process replay (lengths %d vs %d)", len(analysis), len(wantAnalysis))
				}
			})
		}
	}
}

// TestPeerMisrouteVersusPoison: on a cluster peer, a valid record for a
// partition the peer does not own fails its batch with 421 under both
// codecs, while a record whose probe cannot be read is quarantined on
// the peer's own shard even though probe 0's partition lives elsewhere.
func TestPeerMisrouteVersusPoison(t *testing.T) {
	const total = 4
	ing := stream.NewIngester(stream.Config{TotalPartitions: total, OwnedPartitions: []int{1}})
	defer ing.Close()
	srv := httptest.NewServer(NewLiveServer(ing))
	defer srv.Close()
	if stream.PartitionOf(0, total) == 1 {
		t.Fatal("probe 0 must map outside the owned partition")
	}
	foreign := atlasdata.ProbeID(1)
	for stream.PartitionOf(foreign, total) == 1 {
		foreign++
	}

	rec := atlasdata.UptimeRecord{Probe: foreign, Timestamp: liveHour(1), Uptime: 60}
	if code, body := postWire(t, srv.URL, rec); code != http.StatusMisdirectedRequest {
		t.Errorf("misrouted binary record: %d %q, want 421", code, body)
	}
	line := fmt.Sprintf(`{"kind":"uptime","probe":%d,"timestamp":%d,"uptime":60}`, foreign, int64(liveHour(1)))
	if code, body := postRaw(t, srv.URL+RouteStreamRecords, ContentTypeNDJSON, []byte(line)); code != http.StatusMisdirectedRequest {
		t.Errorf("misrouted NDJSON record: %d %q, want 421", code, body)
	}

	if code, body := postRaw(t, srv.URL+RouteStreamRecords, ContentTypeNDJSON, []byte("not json\n")); code != 200 || !strings.Contains(body, `"quarantined": 1`) {
		t.Fatalf("poison line: %d %q, want 200 with one record quarantined", code, body)
	}
	ing.Snapshot() // barrier: the quarantine record rides the shard channel
	if dl := ing.DeadLetter(); dl.Total != 1 || dl.ByReason["decode"] != 1 {
		t.Fatalf("dead letter status = %+v, want 1 decode entry", dl)
	}
}
