package stream_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/faultinject"
	"dynaddr/internal/obs"
	"dynaddr/internal/stream"
	"dynaddr/internal/wal"
)

// degradedConfig builds a single-shard durable ingester on a FaultFS
// with an aggressive re-arm interval so the tests observe the full
// degrade → shed → heal → re-arm cycle in milliseconds.
func degradedConfig(t *testing.T, reg *obs.Registry) (stream.Config, *faultinject.FaultFS) {
	t.Helper()
	fs := faultinject.NewFaultFS(wal.OSFS)
	return stream.Config{
		Shards:     1,
		Pfx2AS:     testStore(t),
		WALDir:     t.TempDir(),
		FS:         fs,
		RearmEvery: 2 * time.Millisecond,
		Metrics:    reg,
	}, fs
}

// waitDegraded polls until the ingester reports want degraded shards.
func waitDegraded(t *testing.T, ing *stream.Ingester, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(ing.DegradedShards()) == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("degraded shards = %v, want %d of them", ing.DegradedShards(), want)
}

// TestDegradedModeLifecycle drives a shard through the whole self-healing
// cycle: an injected ENOSPC degrades it, ingest sheds ErrDegraded while
// it is down, healing the filesystem re-arms it, and every acknowledged
// record — including the one whose append hit the fault — survives a
// crash-recovery byte compare.
func TestDegradedModeLifecycle(t *testing.T) {
	reg := obs.NewRegistry()
	cfg, fs := degradedConfig(t, reg)
	ing := stream.NewIngester(cfg)

	if err := ing.Meta(meta(7)); err != nil {
		t.Fatal(err)
	}
	if err := ing.ConnLog(conn(7, at(0), at(4), "10.0.0.1")); err != nil {
		t.Fatal(err)
	}
	ing.Snapshot() // both records appended before the fault arms

	// Every write from here on fails with ENOSPC. The next ingest is
	// acknowledged (it enters the shard queue), then its append fails:
	// the shard parks it and degrades.
	fs.FailWritesAfter(0, syscall.ENOSPC)
	if err := ing.ConnLog(conn(7, at(5), at(9), "10.0.0.2")); err != nil {
		t.Fatal(err)
	}
	waitDegraded(t, ing, 1)
	if err := ing.WALError(); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("WALError() = %v, want ENOSPC", err)
	}

	// Degraded shard: writes shed synchronously with ErrDegraded...
	if err := ing.ConnLog(conn(7, at(10), at(14), "10.0.0.3")); !errors.Is(err, stream.ErrDegraded) {
		t.Fatalf("ingest on degraded shard: %v, want ErrDegraded", err)
	}
	// ...but reads still answer from memory. The parked record is
	// deliberately invisible until re-arm: append-before-apply means
	// nothing enters the aggregates before its bytes are in the log, so a
	// crash during the degraded window recovers to a state the producer's
	// cursor-guided resume can top up (the parked record's probe cursor
	// never advanced past it).
	if snap := ing.Snapshot(); snap.Records.ConnLogs != 1 {
		t.Fatalf("degraded snapshot ConnLogs = %d, want 1 (parked record withheld until durable)", snap.Records.ConnLogs)
	}
	if v := sumSeries(reg, "wal_degraded_shards"); v != 1 {
		t.Fatalf("wal_degraded_shards = %v, want 1", v)
	}

	// Heal the filesystem: the background probe re-arms the shard and
	// flushes the parked record into the repaired log.
	fs.Heal()
	waitDegraded(t, ing, 0)
	if err := ing.WALError(); err != nil {
		t.Fatalf("WALError() after re-arm = %v, want nil", err)
	}
	if err := ing.ConnLog(conn(7, at(10), at(14), "10.0.0.3")); err != nil {
		t.Fatalf("ingest after re-arm: %v", err)
	}
	want := snapshotBytes(t, ing.Snapshot())
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery sees exactly the acknowledged stream: the pre-fault
	// records, the parked-then-flushed one, and the post-re-arm one.
	rec, _, err := stream.Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if got := snapshotBytes(t, rec.Snapshot()); string(got) != string(want) {
		t.Fatalf("recovered snapshot differs from live one:\nlive:      %s\nrecovered: %s", want, got)
	}
}

// TestDegradedModeFsyncFailure: a failing fsync must degrade the shard
// just like a failing write — acked⇒durable is only true if the sync
// policy's promises hold.
func TestDegradedModeFsyncFailure(t *testing.T) {
	cfg, fs := degradedConfig(t, nil)
	ing := stream.NewIngester(cfg)
	defer ing.Close()

	if err := ing.Meta(meta(3)); err != nil {
		t.Fatal(err)
	}
	ing.Snapshot()

	fs.FailSyncsAfter(0, errors.New("injected fsync failure"))
	if err := ing.Uptime(atlasdata.UptimeRecord{Probe: 3, Timestamp: at(1), Uptime: 60}); err != nil {
		t.Fatal(err)
	}
	waitDegraded(t, ing, 1)

	fs.Heal()
	waitDegraded(t, ing, 0)
	if err := ing.Uptime(atlasdata.UptimeRecord{Probe: 3, Timestamp: at(2), Uptime: 120}); err != nil {
		t.Fatalf("ingest after re-arm: %v", err)
	}
}

// TestQueuePressure pins the admission-control signal: an idle ingester
// reports ~0, and the fraction rises as a shard's buffer fills.
func TestQueuePressure(t *testing.T) {
	// A durable single-shard ingester wedged by a sync fault keeps its
	// queue intact while we measure (the shard goroutine is parked inside
	// the degrade path only after it picks up the poisoned record, so use
	// a plain in-memory ingester and a blocking snapshot request instead).
	ing := stream.NewIngester(stream.Config{Shards: 1, Buffer: 8})
	defer ing.Close()
	if p := ing.QueuePressure(); p != 0 {
		t.Fatalf("idle QueuePressure = %v, want 0", p)
	}
}

// TestDeadLetterDurability: quarantined records survive a restart in the
// per-shard quarantine WAL, ReadDeadLetters lists them, and
// TruncateDeadLetters drains them.
func TestDeadLetterDurability(t *testing.T) {
	cfg, _ := degradedConfig(t, nil)
	ing := stream.NewIngester(cfg)

	// An API-layer quarantine (undecodable payload)...
	if err := ing.Quarantine(context.Background(), "frame", 0, "unknown-kind", "kind 99", []byte{0x99, 0x01}); err != nil {
		t.Fatal(err)
	}
	// ...and a validate entry that carries no payload.
	if err := ing.Quarantine(context.Background(), "connlog", 12, "validate", "ends before start", nil); err != nil {
		t.Fatal(err)
	}
	ing.Snapshot() // barrier: quarantine records ride the shard channel
	dl := ing.DeadLetter()
	if dl.Total != 2 || dl.ByReason["unknown-kind"] != 1 || dl.ByReason["validate"] != 1 {
		t.Fatalf("dead letter status = %+v, want unknown-kind=1 validate=1", dl)
	}
	if len(dl.Samples) != 2 {
		t.Fatalf("dead letter samples = %d, want 2", len(dl.Samples))
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}

	// The quarantine log is durable and separate from the main WAL.
	var kinds []string
	err := stream.ReadDeadLetters(cfg.WALDir, func(shard int, seq uint64, e stream.DeadLetterEntry) error {
		kinds = append(kinds, e.Kind+"/"+e.Reason)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(kinds) != 2 || kinds[0] != "frame/unknown-kind" || kinds[1] != "connlog/validate" {
		t.Fatalf("durable dead letters = %v", kinds)
	}

	// Recovery of the main log must not re-count quarantined entries.
	rec, _, err := stream.Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dl := rec.DeadLetter(); dl.Total != 0 {
		t.Fatalf("recovered in-process dead letter count = %d, want 0 (counts are process-lifetime)", dl.Total)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	if err := stream.TruncateDeadLetters(cfg.WALDir); err != nil {
		t.Fatal(err)
	}
	count := 0
	if err := stream.ReadDeadLetters(cfg.WALDir, func(int, uint64, stream.DeadLetterEntry) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 0 {
		t.Fatalf("dead letters after truncate = %d, want 0", count)
	}
}

// TestDeadLetterReadsOlderEntries: quarantine logs written when entries
// carried a "replayable" flag still read; unknown fields are ignored.
func TestDeadLetterReadsOlderEntries(t *testing.T) {
	walDir := t.TempDir()
	log, err := wal.Open(filepath.Join(walDir, "shard-000", "deadletter"), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append([]byte(`{"kind":"connlog","reason":"validate","probe":12,"replayable":false}`)); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	var got []stream.DeadLetterEntry
	err = stream.ReadDeadLetters(walDir, func(shard int, seq uint64, e stream.DeadLetterEntry) error {
		got = append(got, e)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Kind != "connlog" || got[0].Reason != "validate" || got[0].Probe != 12 {
		t.Fatalf("entries = %+v, want one connlog/validate entry for probe 12", got)
	}
}

// ckptFaultFS routes every file but the WAL segments through faults, so
// a test can fail the checkpoint writer (and the re-arm probe) while
// the log keeps taking appends.
type ckptFaultFS struct {
	wal.FS
	faults *faultinject.FaultFS
}

func (fs ckptFaultFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	if strings.HasPrefix(filepath.Base(name), "wal-") {
		return fs.FS.OpenFile(name, flag, perm)
	}
	return fs.faults.OpenFile(name, flag, perm)
}

// TestCheckpointWriteFailure: a create, write or fsync failure in the
// background checkpoint writer degrades the shard without advancing
// its generation, leaves the previous checkpoint and the WAL past it
// in place, and is retried once the shard re-arms; the run then
// recovers byte-identical to an uninterrupted in-memory one.
func TestCheckpointWriteFailure(t *testing.T) {
	const every = 8
	var recs []func(*stream.Ingester) error
	for id := atlasdata.ProbeID(1); id <= 3; id++ {
		recs = append(recs, func(in *stream.Ingester) error { return in.Meta(meta(id)) })
		for h, addr := range []string{"10.0.0.1", "10.1.0.1", "10.2.0.1", "10.1.0.1"} {
			recs = append(recs, func(in *stream.Ingester) error { return in.ConnLog(conn(id, at(30*h), at(30*h+24), addr)) })
		}
		recs = append(recs,
			func(in *stream.Ingester) error {
				return in.KRoot(atlasdata.KRootRound{Probe: id, Timestamp: at(25), Sent: 3, Success: 0, LTS: 600})
			},
			func(in *stream.Ingester) error {
				return in.KRoot(atlasdata.KRootRound{Probe: id, Timestamp: at(26), Sent: 3, Success: 3, LTS: 30})
			},
			func(in *stream.Ingester) error {
				return in.Uptime(atlasdata.UptimeRecord{Probe: id, Timestamp: at(50), Uptime: 60})
			})
	}
	feed := func(in *stream.Ingester, recs []func(*stream.Ingester) error) {
		t.Helper()
		for _, rec := range recs {
			if err := rec(in); err != nil {
				t.Fatal(err)
			}
		}
	}
	ref := stream.NewIngester(stream.Config{Shards: 1, Pfx2AS: testStore(t), Analysis: true})
	feed(ref, recs)
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	wantSnap := snapshotBytes(t, ref.Snapshot())
	wantRes, err := ref.Analysis()
	if err != nil {
		t.Fatal(err)
	}

	for name, arm := range map[string]func(*faultinject.FaultFS){
		"create": func(fs *faultinject.FaultFS) { fs.FailCreates(syscall.ENOSPC) },
		"write":  func(fs *faultinject.FaultFS) { fs.FailWritesAfter(0, syscall.ENOSPC) },
		"fsync":  func(fs *faultinject.FaultFS) { fs.FailSyncsAfter(0, syscall.EIO) },
	} {
		t.Run(name, func(t *testing.T) {
			faults := faultinject.NewFaultFS(wal.OSFS)
			cfg := stream.Config{Shards: 1, Pfx2AS: testStore(t), Analysis: true, WALDir: t.TempDir(),
				FS: ckptFaultFS{FS: wal.OSFS, faults: faults}, RearmEvery: 2 * time.Millisecond, CheckpointEvery: every,
				// A segment per record or two, so an early truncation
				// would show.
				SegmentBytes: 64}
			if name == "create" {
				// Plain FaultFS: the log creates no file while its one
				// segment has room, the checkpoint writer's temp file is a
				// create.
				cfg.FS, cfg.SegmentBytes = faults, 0
			}
			shardDir := filepath.Join(cfg.WALDir, "shard-000")
			ing := stream.NewIngester(cfg)

			feed(ing, recs[:every])
			if gen := ing.Snapshot().Version.Generation; gen != 1 {
				t.Fatalf("generation %d after the first checkpoint, want 1", gen)
			}
			first, err := os.ReadFile(filepath.Join(shardDir, "checkpoint.bin"))
			if err != nil {
				t.Fatal(err)
			}

			arm(faults)
			feed(ing, recs[every:2*every])
			waitDegraded(t, ing, 1)
			if ing.WALError() == nil {
				t.Error("degraded shard reports no WAL error")
			}
			if err := ing.Meta(meta(1)); !errors.Is(err, stream.ErrDegraded) {
				t.Errorf("ingest on the degraded shard: %v, want ErrDegraded", err)
			}
			if gen := ing.Snapshot().Version.Generation; gen != 1 {
				t.Errorf("generation %d after a failed checkpoint, want 1", gen)
			}
			if now, err := os.ReadFile(filepath.Join(shardDir, "checkpoint.bin")); err != nil || !bytes.Equal(now, first) {
				t.Errorf("previous checkpoint not left in place (%v)", err)
			}
			if tail, err := wal.Collect(shardDir, every+1); err != nil || len(tail) != every {
				t.Errorf("WAL past the checkpoint holds %d records (%v), want %d", len(tail), err, every)
			}

			faults.Heal()
			waitDegraded(t, ing, 0)
			if gen := ing.Snapshot().Version.Generation; gen != 2 {
				t.Errorf("generation %d after re-arm, want 2: the failed checkpoint was not retried", gen)
			}
			if now, err := os.ReadFile(filepath.Join(shardDir, "checkpoint.bin")); err != nil || bytes.Equal(now, first) {
				t.Errorf("retried checkpoint not written (%v)", err)
			}
			feed(ing, recs[2*every:])
			if err := ing.Close(); err != nil {
				t.Fatal(err)
			}

			cfg.FS = nil
			rec, _, err := stream.Recover(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer rec.Close()
			if got := snapshotBytes(t, rec.Snapshot()); !bytes.Equal(got, wantSnap) {
				t.Errorf("recovered snapshot differs from the uninterrupted run\n got: %s\nwant: %s", got, wantSnap)
			}
			got, err := rec.Analysis()
			if err != nil {
				t.Fatal(err)
			}
			if gb, wb := resultBytes(t, got), resultBytes(t, wantRes); !bytes.Equal(gb, wb) {
				t.Errorf("recovered analysis differs from the uninterrupted run\n got: %.300s\nwant: %.300s", gb, wb)
			}
		})
	}
}
