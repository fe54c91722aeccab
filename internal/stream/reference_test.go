package stream_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/liveanalysis"
	"dynaddr/internal/sim"
	"dynaddr/internal/stream"
	"dynaddr/internal/wal"
)

// The digests in testdata were recorded from the code as it stood
// before batch and live detection shared one per-probe machine, so they
// are an independent reference for the live side: once both sides run
// the same machine, the replay-equivalence tests compare it with
// itself. Never regenerate them from the code under test; a changed
// digest is a changed answer (or a changed on-disk format).

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func readDigests(t *testing.T, name string, into any) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, into); err != nil {
		t.Fatal(err)
	}
}

func referenceWorld(t *testing.T, seed uint64, scale float64) *atlasdata.Dataset {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Seed = seed
	cfg.Scale = scale
	world, err := sim.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return world.Dataset
}

// TestLiveReference checks, over the report-digest worlds, the batch
// live-analysis Result, the same Result from a 4-shard analysis replay,
// and that replay's full snapshot (categories, per-AS rows and TTF
// masses) against testdata/live_digests.json.
func TestLiveReference(t *testing.T) {
	if testing.Short() {
		t.Skip("world generation in -short mode")
	}
	var golden struct {
		Cases []struct {
			Name      string  `json:"name"`
			Seed      uint64  `json:"seed"`
			Scale     float64 `json:"scale"`
			TopASes   int     `json:"top_ases"`
			FromBatch string  `json:"frombatch_sha256"`
			Snapshot  string  `json:"snapshot_sha256"`
		} `json:"cases"`
	}
	readDigests(t, "live_digests.json", &golden)
	if len(golden.Cases) == 0 {
		t.Fatal("no golden cases")
	}
	for _, c := range golden.Cases {
		t.Run(c.Name, func(t *testing.T) {
			ds := referenceWorld(t, c.Seed, c.Scale)
			opts := liveanalysis.Options{TopASes: c.TopASes}
			if got := sha256Hex(resultBytes(t, liveanalysis.FromBatch(ds, opts))); got != c.FromBatch {
				t.Errorf("FromBatch digest %s, want %s", got, c.FromBatch)
			}

			ing := stream.NewIngester(stream.Config{Shards: 4, Pfx2AS: ds.Pfx2AS, Analysis: true})
			if err := sim.ReplayDataset(ds, ing); err != nil {
				t.Fatal(err)
			}
			if err := ing.Close(); err != nil {
				t.Fatal(err)
			}
			if got := sha256Hex(snapshotBytes(t, ing.Snapshot())); got != c.Snapshot {
				t.Errorf("snapshot digest %s, want %s", got, c.Snapshot)
			}
			if c.TopASes == 0 {
				res, err := ing.Analysis()
				if err != nil {
					t.Fatal(err)
				}
				if got := sha256Hex(resultBytes(t, res)); got != c.FromBatch {
					t.Errorf("live analysis digest %s, want the batch %s", got, c.FromBatch)
				}
			}
		})
	}
}

// barrierSink forwards a replay to an ingester and takes a snapshot
// barrier every few records. A barrier waits for an in-flight
// checkpoint write, and no shard applies CheckpointEvery records
// between two barriers, so every checkpoint falls due and is written
// at a fixed record: the files do not depend on write timing.
type barrierSink struct {
	ing *stream.Ingester
	n   int
}

func (s *barrierSink) tick(err error) error {
	if s.n++; err == nil && s.n%1024 == 0 {
		s.ing.Snapshot()
	}
	return err
}

func (s *barrierSink) Meta(m atlasdata.ProbeMeta) error       { return s.tick(s.ing.Meta(m)) }
func (s *barrierSink) ConnLog(e atlasdata.ConnLogEntry) error { return s.tick(s.ing.ConnLog(e)) }
func (s *barrierSink) KRoot(k atlasdata.KRootRound) error     { return s.tick(s.ing.KRoot(k)) }
func (s *barrierSink) Uptime(u atlasdata.UptimeRecord) error  { return s.tick(s.ing.Uptime(u)) }

// TestCheckpointGolden pins the on-disk checkpoint format: after a
// fixed durable analysis replay at the default checkpoint cadence, each
// shard's checkpoint.bin hashes to testdata/checkpoint_digests.json.
func TestCheckpointGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("world generation in -short mode")
	}
	var golden struct {
		Seed   uint64   `json:"seed"`
		Scale  float64  `json:"scale"`
		Shards []string `json:"shard_sha256"`
	}
	readDigests(t, "checkpoint_digests.json", &golden)
	ds := referenceWorld(t, golden.Seed, golden.Scale)
	dir := t.TempDir()
	ing, _, err := stream.Recover(stream.Config{
		Shards: len(golden.Shards), Pfx2AS: ds.Pfx2AS, Analysis: true,
		WALDir: dir, Sync: wal.SyncNever,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.ReplayDataset(ds, &barrierSink{ing: ing}); err != nil {
		t.Fatal(err)
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	for i, want := range golden.Shards {
		b, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("shard-%03d", i), "checkpoint.bin"))
		if err != nil {
			t.Fatal(err)
		}
		if got := sha256Hex(b); got != want {
			t.Errorf("shard %d: checkpoint.bin digest %s, want %s", i, got, want)
		}
	}
}
