package stream_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/ip4"
	"dynaddr/internal/stream"
	"dynaddr/internal/wal"
	"dynaddr/internal/wire"
)

// oddV6Batch is a wire batch whose IPv6 session address contains a
// space: Validate accepts it (it contains ':'), so the ingest path acks
// it, and every later reader of the record — WAL replay, partition
// adoption — must read it back exactly.
func oddV6Batch(t *testing.T, id atlasdata.ProbeID) []byte {
	t.Helper()
	var w wire.BatchWriter
	for _, err := range []error{
		w.Meta(meta(id)),
		w.ConnLog(conn(id, at(0), at(10), "10.0.0.1")),
		w.ConnLog(atlasdata.ConnLogEntry{Probe: id, Start: at(2), End: at(30), Family: atlasdata.V6, V6Addr: "2001:db8::1 x"}),
		w.ConnLog(conn(id, at(12), at(40), "10.0.0.2")),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return append([]byte(nil), w.Bytes()...)
}

// ingestAll feeds batch to ing, requiring every record to be accepted.
func ingestAll(t *testing.T, ing *stream.Ingester, batch []byte) {
	t.Helper()
	st, err := ing.IngestWire(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	if st.Quarantined != 0 {
		t.Fatalf("quarantined %d records: %+v", st.Quarantined, ing.DeadLetter())
	}
}

// memoryWireSnapshot is the reference: batch through an in-memory
// ingester with the given partitioning.
func memoryWireSnapshot(t *testing.T, batch []byte, cfg stream.Config) []byte {
	t.Helper()
	ing := stream.NewIngester(cfg)
	ingestAll(t, ing, batch)
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	return snapshotBytes(t, ing.Snapshot())
}

// TestRecoverReplaysAcceptedWireRecords: a record IngestWire acked is in
// the WAL as the bytes the producer sent, so recovery replays it exactly
// and the node restarts to the state an in-memory run reaches.
func TestRecoverReplaysAcceptedWireRecords(t *testing.T) {
	batch := oddV6Batch(t, 7)
	want := memoryWireSnapshot(t, batch, stream.Config{Shards: 2, Pfx2AS: testStore(t)})

	cfg := stream.Config{Shards: 2, Pfx2AS: testStore(t), WALDir: t.TempDir(), Sync: wal.SyncNever, CheckpointEvery: -1}
	ing, _, err := stream.Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, ing, batch)
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}

	rec, st, err := stream.Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Replayed != 4 {
		t.Errorf("replayed %d records, want 4", st.Replayed)
	}
	if got := snapshotBytes(t, rec.Snapshot()); string(got) != string(want) {
		t.Errorf("recovered snapshot differs from in-memory run\n got: %s\nwant: %s", got, want)
	}
}

// TestPartitionMoveKeepsWirePayloads: the shipped partition tail is the
// same wire payloads, so a record IngestWire acked survives
// ReleasePartition → AdoptPartition, and the adopter's own WAL recovers
// it too.
func TestPartitionMoveKeepsWirePayloads(t *testing.T) {
	const total = 2
	id := atlasdata.ProbeID(7)
	p := stream.PartitionOf(id, total)
	batch := oddV6Batch(t, id)
	want := memoryWireSnapshot(t, batch, stream.Config{TotalPartitions: total, OwnedPartitions: []int{p}, Pfx2AS: testStore(t)})

	durable := func(dir string, owned []int) stream.Config {
		return stream.Config{TotalPartitions: total, OwnedPartitions: owned, Pfx2AS: testStore(t),
			WALDir: dir, Sync: wal.SyncNever, CheckpointEvery: -1}
	}
	a, _, err := stream.Recover(durable(t.TempDir(), []int{p}))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	ingestAll(t, a, batch)
	ps, err := a.ReleasePartition(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps.Tail) != 4 {
		t.Fatalf("shipped tail has %d payloads, want 4", len(ps.Tail))
	}
	ps = jsonRoundTrip(t, ps, new(stream.PartitionState))

	bDir := t.TempDir()
	b, _, err := stream.Recover(durable(bDir, []int{}))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AdoptPartition(ps); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if got := snapshotBytes(t, b.Snapshot()); string(got) != string(want) {
		t.Errorf("adopted snapshot differs from in-memory run\n got: %s\nwant: %s", got, want)
	}

	owned, err := stream.DiscoverPartitions(bDir)
	if err != nil {
		t.Fatal(err)
	}
	rec, _, err := stream.Recover(durable(bDir, owned))
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if got := snapshotBytes(t, rec.Snapshot()); string(got) != string(want) {
		t.Errorf("adopter's recovered snapshot differs from in-memory run\n got: %s\nwant: %s", got, want)
	}
}

// TestAdoptRefusesInvalidTail: a shipped tail is checked as an ingest
// batch is. A record that decodes but fails validation (a NaN meta, a
// session that ends before it starts) refuses the adoption, applies
// nothing and leaves no shard directory behind, so the partition can
// still be adopted; a state from another WAL layout version is refused
// before its tail is read.
func TestAdoptRefusesInvalidTail(t *testing.T) {
	const total = 2
	id := atlasdata.ProbeID(7)
	p := stream.PartitionOf(id, total)
	batch := oddV6Batch(t, id)
	cfg := func(dir string) stream.Config {
		return stream.Config{TotalPartitions: total, OwnedPartitions: []int{}, Pfx2AS: testStore(t),
			WALDir: dir, Sync: wal.SyncNever, CheckpointEvery: -1}
	}
	want := memoryWireSnapshot(t, batch, stream.Config{TotalPartitions: total, OwnedPartitions: []int{p}, Pfx2AS: testStore(t)})

	srcCfg := cfg(t.TempDir())
	srcCfg.OwnedPartitions = []int{p}
	src, _, err := stream.Recover(srcCfg)
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, src, batch)
	good, err := src.ReleasePartition(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}

	nan := meta(id)
	nan.ConnectedDays = math.NaN()
	nanMeta, err := wire.AppendMeta(nil, nan)
	if err != nil {
		t.Fatal(err)
	}
	backwards, err := wire.AppendConnLog(nil, conn(id, at(50), at(45), "10.0.0.3"))
	if err != nil {
		t.Fatal(err)
	}

	for _, durable := range []bool{false, true} {
		dir := ""
		if durable {
			dir = t.TempDir()
		}
		var b *stream.Ingester
		if durable {
			if b, _, err = stream.Recover(cfg(dir)); err != nil {
				t.Fatal(err)
			}
		} else {
			b = stream.NewIngester(cfg(""))
		}
		for name, payload := range map[string][]byte{"NaN meta": nanMeta, "End<Start session": backwards} {
			bad := *good
			bad.Tail = append(append([][]byte(nil), good.Tail...), payload)
			if err := b.AdoptPartition(&bad); err == nil {
				t.Fatalf("durable=%v: adopting a tail ending in a %s succeeded", durable, name)
			}
			if durable {
				if owned, err := stream.DiscoverPartitions(dir); err != nil || len(owned) != 0 {
					t.Fatalf("durable=%v: after refusing a %s, partitions on disk = %v (%v), want none", durable, name, owned, err)
				}
			}
		}
		for _, version := range []int{1, 2} {
			old := *good
			old.Version = version
			wantErr := fmt.Sprintf("stream: adopt partition %d: WAL layout version %d, want 3", p, version)
			if err := b.AdoptPartition(&old); err == nil || err.Error() != wantErr {
				t.Fatalf("durable=%v: adopting a version-%d state: %v, want %q", durable, version, err, wantErr)
			}
		}

		if err := b.AdoptPartition(good); err != nil {
			t.Fatalf("durable=%v: adopting the valid state after the refusals: %v", durable, err)
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		if got := snapshotBytes(t, b.Snapshot()); string(got) != string(want) {
			t.Errorf("durable=%v: adopted snapshot differs from in-memory run\n got: %s\nwant: %s", durable, got, want)
		}
	}
}

// TestRecoverValidatesReplayedRecords: WAL replay validates what it
// decodes, as IngestWire does, so a well-framed payload holding an
// invalid record fails recovery by its sequence number instead of
// being applied.
func TestRecoverValidatesReplayedRecords(t *testing.T) {
	cfg := stream.Config{Shards: 1, WALDir: t.TempDir(), Sync: wal.SyncNever, CheckpointEvery: -1}
	ing, _, err := stream.Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	backwards, err := wire.AppendConnLog(nil, conn(7, at(50), at(45), "10.0.0.3"))
	if err != nil {
		t.Fatal(err)
	}
	log, err := wal.Open(filepath.Join(cfg.WALDir, "shard-000"), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append(backwards); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	_, _, err = stream.Recover(cfg)
	if err == nil || !strings.Contains(err.Error(), "WAL seq 1: atlasdata: connection for probe 7 ends") {
		t.Fatalf("Recover over a WAL holding an End<Start session: %v", err)
	}
}

// TestRecoverRefusesVersion1WAL: a WAL directory from before the wire
// payload layout is refused by its metadata, before any shard file is
// opened or repaired.
func TestRecoverRefusesVersion1WAL(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"ingest.json": `{"version":1,"shards":1}`,
		filepath.Join("shard-000", "wal-0000000000000001.seg"): "torn text payload",
	}
	for name, body := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before := dirState(t, dir)

	_, _, err := stream.Recover(stream.Config{Shards: 1, WALDir: dir})
	if err == nil || err.Error() != "stream: WAL metadata version 1, want 3" {
		t.Fatalf("Recover over a version-1 directory: %v", err)
	}
	if after := dirState(t, dir); after != before {
		t.Errorf("refused directory was modified\nbefore: %s\nafter:  %s", before, after)
	}
}

// TestRecoverRefusesVersion2WAL: a WAL directory from before binary
// checkpoints — wire payloads, but a JSON checkpoint.json — is refused
// by its metadata, before any shard file is opened or repaired, and is
// left as it was.
func TestRecoverRefusesVersion2WAL(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"ingest.json": `{"version":2,"shards":1}`,
		filepath.Join("shard-000", "checkpoint.json"):          `{"version":1,"shard":0,"seq":1,"counts":{},"probes":[]}`,
		filepath.Join("shard-000", "wal-0000000000000002.seg"): "torn tail",
	}
	for name, body := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before := dirState(t, dir)

	_, _, err := stream.Recover(stream.Config{Shards: 1, WALDir: dir})
	if err == nil || err.Error() != "stream: WAL metadata version 2, want 3" {
		t.Fatalf("Recover over a version-2 directory: %v", err)
	}
	if after := dirState(t, dir); after != before {
		t.Errorf("refused directory was modified\nbefore: %s\nafter:  %s", before, after)
	}
}

// dirState renders every path under dir with its mode, mtime and
// contents.
func dirState(t *testing.T, dir string) string {
	t.Helper()
	var out []byte
	err := filepath.Walk(dir, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		out = append(out, path...)
		out = append(out, fi.Mode().String()+fi.ModTime().String()...)
		if !fi.IsDir() {
			body, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			out = append(out, body...)
		}
		out = append(out, '\n')
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestNonFiniteMetaQuarantined: connected days travel as float bits on
// the wire, so NaN and ±Inf reach the ingester; they are invalid
// records, quarantined as "validate" by in-memory and durable ingesters
// alike, and never applied (a non-finite value would break JSON peer
// views and checkpoints). The typed API refuses them too, along with
// records the wire encoding cannot carry, on both kinds of ingester.
func TestNonFiniteMetaQuarantined(t *testing.T) {
	for _, durable := range []bool{false, true} {
		cfg := stream.Config{Shards: 1}
		if durable {
			cfg.WALDir, cfg.Sync = t.TempDir(), wal.SyncNever
		}
		ing := stream.NewIngester(cfg)
		for i, days := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			var w wire.BatchWriter
			m := meta(atlasdata.ProbeID(40 + i))
			m.ConnectedDays = days
			if err := w.Meta(m); err != nil {
				t.Fatal(err)
			}
			st, err := ing.IngestWire(context.Background(), w.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if st.Accepted != 0 || st.Quarantined != 1 {
				t.Errorf("durable=%v days=%v: accepted %d, quarantined %d; want 0/1", durable, days, st.Accepted, st.Quarantined)
			}
		}
		nan := meta(50)
		nan.ConnectedDays = math.NaN()
		for name, err := range map[string]error{
			"NaN meta":       ing.Meta(nan),
			"negative probe": ing.ConnLog(conn(-3, at(0), at(10), "10.0.0.1")),
			"probe>u32":      ing.Uptime(atlasdata.UptimeRecord{Probe: 1 << 33, Timestamp: at(1), Uptime: 5}),
			"long country":   ing.Meta(atlasdata.ProbeMeta{ID: 52, Country: strings.Repeat("D", 256)}),
		} {
			if err == nil {
				t.Errorf("durable=%v: typed ingest of %s succeeded", durable, name)
			}
		}
		if _, err := ing.PeerView(context.Background()); err != nil {
			t.Fatal(err)
		}
		dl := ing.DeadLetter()
		if dl.Total != 3 || dl.ByReason["validate"] != 3 {
			t.Errorf("durable=%v: dead letters %+v, want 3 validate", durable, dl)
		}
		if err := ing.Close(); err != nil {
			t.Fatal(err)
		}
		if n := ing.Snapshot().Records; n != (stream.RecordCounts{}) {
			t.Errorf("durable=%v: applied %+v, want none", durable, n)
		}
	}
}

// TestKRootLTSRangeQuarantined: the wire carries a k-root LTS as an
// i64, the record holds an int32. A payload whose LTS is outside int32
// does not decode, so it is quarantined as "decode"; a negative LTS
// decodes and fails validation, so it is quarantined as "validate".
// Neither is applied, in memory or durably.
func TestKRootLTSRangeQuarantined(t *testing.T) {
	good, err := wire.AppendKRoot(nil, atlasdata.KRootRound{Probe: 60, Timestamp: at(1), Sent: 3, Success: 3, LTS: 60})
	if err != nil {
		t.Fatal(err)
	}
	var batch []byte
	for _, lts := range []int64{math.MaxInt32 + 1, math.MinInt32 - 1, -1} {
		p := append([]byte(nil), good...)
		binary.LittleEndian.PutUint64(p[len(p)-8:], uint64(lts))
		batch = wire.AppendFrame(batch, p)
	}
	for _, durable := range []bool{false, true} {
		cfg := stream.Config{Shards: 1}
		if durable {
			cfg.WALDir, cfg.Sync = t.TempDir(), wal.SyncNever
		}
		ing := stream.NewIngester(cfg)
		st, err := ing.IngestWire(context.Background(), batch)
		if err != nil {
			t.Fatal(err)
		}
		if st.Accepted != 0 || st.Quarantined != 3 {
			t.Errorf("durable=%v: accepted %d, quarantined %d; want 0/3", durable, st.Accepted, st.Quarantined)
		}
		if _, err := ing.PeerView(context.Background()); err != nil {
			t.Fatal(err)
		}
		if dl := ing.DeadLetter(); dl.ByReason["decode"] != 2 || dl.ByReason["validate"] != 1 {
			t.Errorf("durable=%v: dead letters %+v, want 2 decode and 1 validate", durable, dl)
		}
		if err := ing.Close(); err != nil {
			t.Fatal(err)
		}
		if n := ing.Snapshot().Records; n != (stream.RecordCounts{}) {
			t.Errorf("durable=%v: applied %+v, want none", durable, n)
		}
	}
}

// TestKRootTimeRangeQuarantined: the wire carries a k-root timestamp as
// an i64, a Dataset stores it in 32 bits. A payload whose timestamp is
// outside u32 does not decode, so it is quarantined as "decode" and
// applied neither in memory nor durably; the edges 0 and 2³²-1 apply. An
// in-process round outside u32 does not encode, so Ingester.KRoot
// refuses it.
func TestKRootTimeRangeQuarantined(t *testing.T) {
	good, err := wire.AppendKRoot(nil, atlasdata.KRootRound{Probe: 61, Timestamp: at(1), Sent: 3, Success: 3, LTS: 60})
	if err != nil {
		t.Fatal(err)
	}
	var batch []byte
	for _, ts := range []int64{-1, 0, math.MaxUint32 + 1, math.MaxUint32} {
		p := append([]byte(nil), good...)
		binary.LittleEndian.PutUint64(p[1+4:], uint64(ts))
		batch = wire.AppendFrame(batch, p)
	}
	for _, durable := range []bool{false, true} {
		cfg := stream.Config{Shards: 1}
		if durable {
			cfg.WALDir, cfg.Sync = t.TempDir(), wal.SyncNever
		}
		ing := stream.NewIngester(cfg)
		st, err := ing.IngestWire(context.Background(), batch)
		if err != nil {
			t.Fatal(err)
		}
		if st.Accepted != 2 || st.Quarantined != 2 {
			t.Errorf("durable=%v: accepted %d, quarantined %d; want 2/2", durable, st.Accepted, st.Quarantined)
		}
		err = ing.KRoot(atlasdata.KRootRound{Probe: 61, Timestamp: math.MaxUint32 + 1, Sent: 3, Success: 3, LTS: 60})
		if !errors.Is(err, wire.ErrRecord) {
			t.Errorf("durable=%v: in-process round at 2^32: %v, want wire.ErrRecord", durable, err)
		}
		if _, err := ing.PeerView(context.Background()); err != nil {
			t.Fatal(err)
		}
		if dl := ing.DeadLetter(); dl.ByReason["decode"] != 2 || dl.Total != 2 {
			t.Errorf("durable=%v: dead letters %+v, want 2 decode", durable, dl)
		}
		if err := ing.Close(); err != nil {
			t.Fatal(err)
		}
		if n := ing.Snapshot().Records; n != (stream.RecordCounts{KRoot: 2}) {
			t.Errorf("durable=%v: applied %+v, want the 2 edge rounds", durable, n)
		}
		if !durable {
			continue
		}
		rec := stream.NewIngester(cfg)
		if n := rec.Snapshot().Records; n != (stream.RecordCounts{KRoot: 2}) {
			t.Errorf("recovered %+v, want the 2 edge rounds", n)
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConnLogTimeRangeQuarantined: the wire carries a session's start
// and end as i64s, a detector keeps gap times in 32 bits. A payload with
// a time outside u32 does not decode, so it is quarantined as "decode"
// and applied neither in memory nor durably; the edges 0 and 2³²-1
// apply. An in-process session outside u32 does not encode, so
// Ingester.ConnLog refuses it.
func TestConnLogTimeRangeQuarantined(t *testing.T) {
	good, err := wire.AppendConnLog(nil, atlasdata.ConnLogEntry{Probe: 62, Start: at(1), End: at(2), Addr: ip4.MustParseAddr("10.0.0.1")})
	if err != nil {
		t.Fatal(err)
	}
	var batch []byte
	for _, span := range [][2]int64{{-1, 5}, {0, 0}, {5, math.MaxUint32 + 1}, {math.MaxUint32, math.MaxUint32}} {
		p := append([]byte(nil), good...)
		binary.LittleEndian.PutUint64(p[1+4:], uint64(span[0]))
		binary.LittleEndian.PutUint64(p[1+4+8:], uint64(span[1]))
		batch = wire.AppendFrame(batch, p)
	}
	for _, durable := range []bool{false, true} {
		cfg := stream.Config{Shards: 1, Analysis: true}
		if durable {
			cfg.WALDir, cfg.Sync = t.TempDir(), wal.SyncNever
		}
		ing := stream.NewIngester(cfg)
		st, err := ing.IngestWire(context.Background(), batch)
		if err != nil {
			t.Fatal(err)
		}
		if st.Accepted != 2 || st.Quarantined != 2 {
			t.Errorf("durable=%v: accepted %d, quarantined %d; want 2/2", durable, st.Accepted, st.Quarantined)
		}
		err = ing.ConnLog(atlasdata.ConnLogEntry{Probe: 62, Start: math.MaxUint32, End: math.MaxUint32 + 1, Addr: ip4.MustParseAddr("10.0.0.2")})
		if !errors.Is(err, wire.ErrRecord) {
			t.Errorf("durable=%v: in-process session ending at 2^32: %v, want wire.ErrRecord", durable, err)
		}
		if _, err := ing.PeerView(context.Background()); err != nil {
			t.Fatal(err)
		}
		if dl := ing.DeadLetter(); dl.ByReason["decode"] != 2 || dl.Total != 2 {
			t.Errorf("durable=%v: dead letters %+v, want 2 decode", durable, dl)
		}
		if err := ing.Close(); err != nil {
			t.Fatal(err)
		}
		if n := ing.Snapshot().Records; n != (stream.RecordCounts{ConnLogs: 2}) {
			t.Errorf("durable=%v: applied %+v, want the 2 edge sessions", durable, n)
		}
		if !durable {
			continue
		}
		rec := stream.NewIngester(cfg)
		if n := rec.Snapshot().Records; n != (stream.RecordCounts{ConnLogs: 2}) {
			t.Errorf("recovered %+v, want the 2 edge sessions", n)
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
