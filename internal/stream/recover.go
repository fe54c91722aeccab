package stream

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"dynaddr/internal/wal"
)

// walMeta pins the parts of the configuration baked into the on-disk
// layout. The partition count decides which log a probe's records land
// in, so reopening with a different count would silently break the
// per-probe ordering recovery depends on — it is refused instead. (The
// field is named "shards" for compatibility with pre-cluster layouts,
// where the shard count WAS the partition count; it has always meant
// the routing modulus.) Version 3 is the layout whose WAL payloads are
// internal/wire records and whose checkpoints are binary
// (checkpoint.go). An older directory — version 1 with text payloads,
// version 2 with JSON checkpoints — is refused before any shard file
// is opened.
type walMeta struct {
	Version int `json:"version"`
	Shards  int `json:"shards"`
}

const (
	walMetaFile    = "ingest.json"
	walMetaVersion = 3
)

func checkWALMeta(dir string, shards int) error {
	path := filepath.Join(dir, walMetaFile)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		data, err := json.Marshal(walMeta{Version: walMetaVersion, Shards: shards})
		if err != nil {
			return err
		}
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, data, 0o644); err != nil {
			return err
		}
		if err := os.Rename(tmp, path); err != nil {
			return err
		}
		return syncDir(wal.OSFS, dir)
	}
	if err != nil {
		return err
	}
	var m walMeta
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("stream: corrupt WAL metadata %s: %w", path, err)
	}
	if m.Version != walMetaVersion {
		return fmt.Errorf("stream: WAL metadata version %d, want %d", m.Version, walMetaVersion)
	}
	if m.Shards != shards {
		return fmt.Errorf("stream: WAL directory laid out for %d partitions, config wants %d (repartitioning an existing WAL is not supported)", m.Shards, shards)
	}
	return nil
}

// DiscoverPartitions scans a WAL directory for shard-NNN subdirectories
// and returns the sorted partition IDs found — the partitions a
// restarting cluster peer owns on disk, which take precedence over any
// ring-derived assignment (a partition may have been adopted or
// released since the peer's flags were written). A missing or empty
// directory returns (nil, nil): the caller falls back to its configured
// assignment. Directories renamed aside by ReleasePartition
// (shard-NNN.released) are not partitions and are skipped.
func DiscoverPartitions(walDir string) ([]int, error) {
	entries, err := os.ReadDir(walDir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []int
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		if len(name) != len("shard-000") || name[:len("shard-")] != "shard-" {
			continue
		}
		p, err := strconv.Atoi(name[len("shard-"):])
		if err != nil || p < 0 {
			continue
		}
		out = append(out, p)
	}
	sort.Ints(out)
	return out, nil
}

// RecoverStats summarises what Recover reconstructed.
type RecoverStats struct {
	// Shards is the shard count of the recovered ingester.
	Shards int `json:"shards"`
	// CheckpointProbes counts probe states restored from checkpoints.
	CheckpointProbes int `json:"checkpoint_probes"`
	// Replayed counts WAL records re-applied past the checkpoints.
	Replayed int64 `json:"replayed"`
}

// Recover opens a durable ingester rooted at cfg.WALDir, rebuilding
// each shard from its latest checkpoint plus its WAL tail. A fresh
// directory starts empty, so Recover is also the constructor for new
// durable ingesters. The reconstructed state is byte-identical (in
// Snapshot terms) to an uninterrupted run over the same durable record
// prefix: checkpoints round-trip floats exactly, and WAL replay decodes
// and validates the wire payloads the live path appended (decodeRecord
// and validate, as IngestWire does) and drives them through the same
// deterministic state machines. Damaged WAL tails (torn frames, bit
// flips) are truncated to the last valid record, never fatal; use
// Cursor to learn each probe's durable prefix and resume producers from
// there.
func Recover(cfg Config) (*Ingester, *RecoverStats, error) {
	cfg = cfg.withDefaults()
	if cfg.WALDir == "" {
		return nil, nil, errors.New("stream: Recover requires Config.WALDir")
	}
	if err := os.MkdirAll(cfg.WALDir, 0o755); err != nil {
		return nil, nil, err
	}
	if err := checkWALMeta(cfg.WALDir, cfg.TotalPartitions); err != nil {
		return nil, nil, err
	}
	in := newIngester(cfg)
	st := &RecoverStats{Shards: len(in.shards)}
	for _, s := range in.shards {
		if err := recoverShard(s, cfg, st); err != nil {
			for _, prev := range in.shards {
				if prev.log != nil {
					prev.log.Close()
				}
			}
			return nil, nil, fmt.Errorf("stream: recovering shard %d: %w", s.index, err)
		}
	}
	in.start()
	return in, st, nil
}

// recoverShard restores one shard: checkpoint, then WAL tail.
func recoverShard(s *shard, cfg Config, st *RecoverStats) error {
	s.dir = filepath.Join(cfg.WALDir, fmt.Sprintf("shard-%03d", s.index))
	s.ckptEvery = cfg.CheckpointEvery
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return err
	}

	ck, err := loadCheckpoint(s.dir)
	if err != nil {
		return err
	}
	from := uint64(1)
	if ck != nil {
		seq, probes, err := s.restoreCheckpoint(ck)
		if err != nil {
			return fmt.Errorf("stream: checkpoint in %s: %w", s.dir, err)
		}
		from = seq + 1
		st.CheckpointProbes += probes
	}

	opt := wal.Options{
		SegmentBytes: cfg.SegmentBytes,
		Sync:         cfg.Sync,
		Metrics:      wal.NewMetrics(cfg.Metrics, strconv.Itoa(s.index)),
		FS:           cfg.FS,
	}
	// Keep the FirstSeq-free base options: degraded-mode re-arm and the
	// lazy dead-letter log reopen with exactly these.
	s.walOpt = opt
	log, err := wal.Open(s.dir, opt)
	if err != nil {
		return err
	}
	if log.NextSeq() < from {
		// The surviving log ends before the checkpoint: every frame in it
		// is already covered by the checkpoint (the checkpoint synced the
		// log before being written), so reset the log to start just past
		// the checkpoint instead of replaying stale history.
		if err := log.Close(); err != nil {
			return err
		}
		opt.FirstSeq = from
		if log, err = wal.Open(s.dir, opt); err != nil {
			return err
		}
	}

	var rec record
	err = wal.Replay(s.dir, from, func(seq uint64, payload []byte) error {
		err := decodeRecord(payload, &rec)
		if err == nil {
			err = rec.validate()
		}
		if err != nil {
			return fmt.Errorf("WAL seq %d: %w", seq, err)
		}
		s.apply(rec)
		s.sinceCkpt++
		st.Replayed++
		s.metrics.replayedRecord()
		return nil
	})
	if err != nil {
		log.Close()
		return err
	}
	s.metrics.flush()
	s.log = log
	s.lastSeq = log.NextSeq() - 1
	return nil
}
