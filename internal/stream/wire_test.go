package stream_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/simclock"
	"dynaddr/internal/stream"
	"dynaddr/internal/wal"
	"dynaddr/internal/wire"
)

// wireBatch builds a mixed four-kind batch exercising one probe per
// shard-worth of IDs.
func wireBatch(t *testing.T, probes int) []byte {
	t.Helper()
	var w wire.BatchWriter
	for i := 0; i < probes; i++ {
		id := atlasdata.ProbeID(100 + i)
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		must(w.Meta(meta(id)))
		must(w.ConnLog(conn(id, at(0), at(24), "10.0.0.1")))
		must(w.ConnLog(conn(id, at(25), at(49), "10.1.0.1")))
		must(w.KRoot(atlasdata.KRootRound{Probe: id, Timestamp: at(30), Sent: 3, Success: 3, LTS: 30}))
		must(w.Uptime(atlasdata.UptimeRecord{Probe: id, Timestamp: at(40), Uptime: 3600}))
	}
	return append([]byte(nil), w.Bytes()...)
}

// TestIngestWireEquivalence pins the core wire contract: a binary batch
// and the equivalent typed calls land in byte-identical snapshots.
func TestIngestWireEquivalence(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			bin := stream.NewIngester(stream.Config{Shards: shards, Pfx2AS: testStore(t)})
			typed := stream.NewIngester(stream.Config{Shards: shards, Pfx2AS: testStore(t)})

			batch := wireBatch(t, 9)
			st, err := bin.IngestWire(context.Background(), batch)
			if err != nil {
				t.Fatal(err)
			}
			if st.Accepted != 9*5 || st.Quarantined != 0 {
				t.Fatalf("routed %d records (%d quarantined), want %d routed", st.Accepted, st.Quarantined, 9*5)
			}
			for i := 0; i < 9; i++ {
				id := atlasdata.ProbeID(100 + i)
				must := func(err error) {
					t.Helper()
					if err != nil {
						t.Fatal(err)
					}
				}
				must(typed.Meta(meta(id)))
				must(typed.ConnLog(conn(id, at(0), at(24), "10.0.0.1")))
				must(typed.ConnLog(conn(id, at(25), at(49), "10.1.0.1")))
				must(typed.KRoot(atlasdata.KRootRound{Probe: id, Timestamp: at(30), Sent: 3, Success: 3, LTS: 30}))
				must(typed.Uptime(atlasdata.UptimeRecord{Probe: id, Timestamp: at(40), Uptime: 3600}))
			}

			a, err := json.Marshal(bin.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(typed.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			if string(a) != string(b) {
				t.Fatalf("snapshots differ:\nwire:  %s\ntyped: %s", a, b)
			}
			if err := bin.Close(); err != nil {
				t.Fatal(err)
			}
			if err := typed.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestIngestWireStopsAtMalformedRecord(t *testing.T) {
	ing := stream.NewIngester(stream.Config{Shards: 1, Pfx2AS: testStore(t)})
	defer ing.Close()

	var w wire.BatchWriter
	if err := w.Meta(meta(1)); err != nil {
		t.Fatal(err)
	}
	if err := w.ConnLog(conn(1, at(0), at(5), "10.0.0.1")); err != nil {
		t.Fatal(err)
	}
	batch := append([]byte(nil), w.Bytes()...)

	// Bit-flip inside the second frame's payload: frame-level corruption
	// still aborts the batch — the framing itself is untrustworthy past
	// that point.
	torn := append([]byte(nil), batch...)
	torn[len(torn)-3] ^= 0x04
	st, err := ing.IngestWire(context.Background(), torn)
	if !errors.Is(err, wire.ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
	if st.Accepted != 1 || st.Quarantined != 0 {
		t.Fatalf("routed %d records (%d quarantined) before the bad frame, want 1 routed", st.Accepted, st.Quarantined)
	}

	// An invalid record (end before start) in a well-framed batch is
	// quarantined to the dead-letter queue, not a batch failure.
	w.Reset()
	if err := w.ConnLog(atlasdata.ConnLogEntry{Probe: 2, Start: at(5), End: at(1), Family: atlasdata.V4, Addr: 9}); err != nil {
		t.Fatal(err)
	}
	st, err = ing.IngestWire(context.Background(), w.Bytes())
	if err != nil {
		t.Fatalf("invalid record failed the batch: %v", err)
	}
	if st.Accepted != 0 || st.Quarantined != 1 {
		t.Fatalf("invalid record: accepted %d, quarantined %d; want 0/1", st.Accepted, st.Quarantined)
	}
	// Quarantine rides the shard channel like any record; a snapshot
	// barrier orders the read after it lands.
	ing.Snapshot()
	dl := ing.DeadLetter()
	if dl.Total != 1 || dl.ByReason["validate"] != 1 {
		t.Fatalf("dead letter status = %+v, want 1 validate entry", dl)
	}
}

func TestIngestWireClosed(t *testing.T) {
	ing := stream.NewIngester(stream.Config{Shards: 1})
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	_, err := ing.IngestWire(context.Background(), wireBatch(t, 1))
	if !errors.Is(err, stream.ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// TestWireKindCorrespondence guards the WAL-kind/wire-kind agreement
// from the test side too: names must line up with the stream's record
// order (the byte values are already compile-time anchored).
func TestWireKindCorrespondence(t *testing.T) {
	want := []string{"meta", "connlog", "kroot", "uptime"}
	got := []string{wire.KindMeta.String(), wire.KindConn.String(), wire.KindKRoot.String(), wire.KindUptime.String()}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("kind names %v, want %v", got, want)
	}
}

// TestIngestWireZeroAlloc pins the acceptance criterion: the binary
// decode hot path (v4 sessions, k-root rounds, uptime reports) takes
// zero per-record heap allocations end to end — frame iteration,
// record decode, and the shard channel send — and a durable ingester
// adds none for its WAL append: the shard re-encodes each record into
// a buffer it reuses, and the log frames it into another.
func TestIngestWireZeroAlloc(t *testing.T) {
	const records = 3 * 256
	var w wire.BatchWriter
	for i := 0; i < 256; i++ {
		ts := at(1).Add(simclock.Duration(i) * simclock.Minute)
		if err := w.ConnLog(atlasdata.ConnLogEntry{Probe: 1, Start: ts, End: ts, Family: atlasdata.V4, Addr: 7}); err != nil {
			t.Fatal(err)
		}
		if err := w.KRoot(atlasdata.KRootRound{Probe: 1, Timestamp: ts, Sent: 3, Success: 3, LTS: 30}); err != nil {
			t.Fatal(err)
		}
		if err := w.Uptime(atlasdata.UptimeRecord{Probe: 1, Timestamp: ts, Uptime: 3600}); err != nil {
			t.Fatal(err)
		}
	}
	batch := append([]byte(nil), w.Bytes()...)

	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			// Buffer big enough that sends never block on the shard goroutine.
			cfg := stream.Config{Shards: 1, Buffer: records * 4, Pfx2AS: testStore(t)}
			if durable {
				// No fsyncs, checkpoints or segment rotations: what is left
				// per record is the encode and the append.
				cfg.WALDir, cfg.Sync, cfg.CheckpointEvery, cfg.SegmentBytes = t.TempDir(), wal.SyncNever, -1, 64<<20
			}
			ing := stream.NewIngester(cfg)
			defer ing.Close()
			ctx := context.Background()

			// Warm-up: creates the probe state and map buckets, then a barrier so
			// the shard is idle before measuring.
			if _, err := ing.IngestWire(ctx, batch); err != nil {
				t.Fatal(err)
			}
			ing.Snapshot()

			allocs := testing.AllocsPerRun(10, func() {
				if _, err := ing.IngestWire(ctx, batch); err != nil {
					t.Fatal(err)
				}
				ing.Snapshot() // drain barrier: apply work finishes inside the run
			})
			// Snapshot itself allocates (it builds a view), so budget a small
			// constant per run; what must not appear is anything proportional to
			// the record count.
			perRecord := allocs / records
			t.Logf("%.4f allocations per record", perRecord)
			if perRecord > 0.05 {
				t.Fatalf("%.2f allocations per run = %.4f per record, want ~0", allocs, perRecord)
			}
		})
	}

	// With checkpoints on, each checkpoint costs its file operations'
	// handful of allocations, but the encoding reuses the shard's buffer
	// and scratch, so the cost per run must not grow with the number of
	// probes the checkpoints carry.
	t.Run("checkpoints", func(t *testing.T) {
		small, big := checkpointAllocs(t, 16), checkpointAllocs(t, 256)
		t.Logf("%.1f allocations per run at 16 probes, %.1f at 256", small, big)
		if big > small*1.05+4 {
			t.Fatalf("%.1f allocations per run at 256 probes, %.1f at 16: checkpoints allocate per probe", big, small)
		}
	})
}

// checkpointAllocs warms a durable analysis ingester up with a few
// sessions (address changes included), k-root rounds and reboots for
// each of the given number of probes, then counts the allocations of
// a run that six times ingests the same 256 records (spread over the
// probes) and takes a cursor barrier. With CheckpointEvery 256 each
// batch starts one checkpoint and the barrier waits for its write, so
// every run writes six.
func checkpointAllocs(t *testing.T, probes int) float64 {
	const records, batches = 256, 6
	var warm, w wire.BatchWriter
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < probes; i++ {
		id := atlasdata.ProbeID(100 + i)
		must(warm.Meta(meta(id)))
		for h, addr := range []string{"10.0.0.1", "10.1.0.1", "10.2.0.1", "10.1.0.1"} {
			must(warm.ConnLog(conn(id, at(30*h), at(30*h+24), addr)))
		}
		must(warm.KRoot(atlasdata.KRootRound{Probe: id, Timestamp: at(25), Sent: 3, Success: 0, LTS: 600}))
		must(warm.KRoot(atlasdata.KRootRound{Probe: id, Timestamp: at(26), Sent: 3, Success: 3, LTS: 30}))
		must(warm.Uptime(atlasdata.UptimeRecord{Probe: id, Timestamp: at(40), Uptime: 40 * 3600}))
		must(warm.Uptime(atlasdata.UptimeRecord{Probe: id, Timestamp: at(50), Uptime: 60}))
	}
	for i := 0; i < records; i++ {
		must(w.Uptime(atlasdata.UptimeRecord{Probe: atlasdata.ProbeID(100 + i%probes), Timestamp: at(50), Uptime: 60}))
	}
	batch := append([]byte(nil), w.Bytes()...)

	ing := stream.NewIngester(stream.Config{Shards: 1, Buffer: records * 2, Pfx2AS: testStore(t), Analysis: true,
		WALDir: t.TempDir(), Sync: wal.SyncNever, CheckpointEvery: records, SegmentBytes: 64 << 20})
	defer ing.Close()
	ctx := context.Background()
	run := func() {
		for i := 0; i < batches; i++ {
			if _, err := ing.IngestWire(ctx, batch); err != nil {
				t.Fatal(err)
			}
			if _, err := ing.Cursor(ctx, 100); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := ing.IngestWire(ctx, warm.Bytes()); err != nil {
		t.Fatal(err)
	}
	ing.Snapshot()
	gen := ing.Snapshot().Version.Generation
	allocs := testing.AllocsPerRun(10, run)
	if got := ing.Snapshot().Version.Generation - gen; got != 11*batches {
		t.Fatalf("%d checkpoints in 11 runs, want %d", got, 11*batches)
	}
	return allocs
}
