package stream

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/obs"
	"dynaddr/internal/wal"
)

// Dead-letter quarantine: a record that fails decode, validation, or
// apply inside an otherwise-good batch is framed into a per-shard
// quarantine WAL with its rejection reason instead of failing the
// batch. The quarantine log reuses the ordinary WAL machinery (same
// framing, same torn-tail repair) in a "deadletter" subdirectory of
// the shard's WAL directory, so churnctl can list and drain it with the
// same reader recovery uses. In-memory ingesters keep counts and
// samples but no durable log.
//
// Quarantine entries are at-least-once: a crash between the dead-letter
// append and the producer's acknowledgement can duplicate an entry
// after resume, which only ever overstates the quarantine — never the
// applied analysis state.

// dlSampleCap bounds the per-shard ring of recent quarantine samples
// served by the dead-letter endpoint.
const dlSampleCap = 8

// DeadLetterEntry is one quarantined record, as framed into the
// quarantine WAL and surfaced by GET /api/v1/live/deadletter samples.
type DeadLetterEntry struct {
	// Kind labels the record stream ("meta", "connlog", "kroot",
	// "uptime") or "frame" when the payload never decoded far enough to
	// tell.
	Kind string `json:"kind"`
	// Reason is the rejection class: "decode", "validate",
	// "unknown-kind", or "encode". Apply-time order rejections are
	// deliberately not quarantined — at-least-once redelivery makes
	// stale duplicates routine, and they are counted in the rejected
	// metrics instead.
	Reason string `json:"reason"`
	// Detail is the underlying error text, when there was one.
	Detail string `json:"detail,omitempty"`
	// Probe is the record's probe ID when it decoded far enough to have
	// one.
	Probe atlasdata.ProbeID `json:"probe,omitempty"`
	// Payload is the bytes the producer sent for the record (a wire
	// payload or an NDJSON line), kept for inspection. Every entry
	// failed decoding or validation, so none can be re-submitted as is.
	Payload []byte `json:"payload,omitempty"`
}

// DeadLetterSample is one recent quarantined record (payload omitted).
type DeadLetterSample struct {
	Shard  int               `json:"shard"`
	Kind   string            `json:"kind"`
	Reason string            `json:"reason"`
	Probe  atlasdata.ProbeID `json:"probe,omitempty"`
	Detail string            `json:"detail,omitempty"`
}

// DeadLetterStatus is the aggregate quarantine state served by
// GET /api/v1/live/deadletter. Counts are process-lifetime, like
// metrics; the durable quarantine logs persist across restarts and are
// drained with churnctl -deadletter.
type DeadLetterStatus struct {
	Total    int64              `json:"total"`
	ByReason map[string]int64   `json:"by_reason"`
	Samples  []DeadLetterSample `json:"samples"`
}

// quarantineRecord is the in-band payload of a kindQuarantine record:
// the API layer routes undecodable records through the shard channel so
// the shard goroutine stays the only writer of its quarantine log.
type quarantineRecord struct {
	entry DeadLetterEntry
}

// dlState is a shard's quarantine bookkeeping. The log is touched only
// by the shard goroutine; the counters and sample ring are read by the
// dead-letter endpoint from other goroutines, hence the mutex.
type dlState struct {
	mu       sync.Mutex
	total    int64
	byReason map[string]int64
	samples  []DeadLetterSample
	next     int

	log    *wal.Log // lazily opened; nil for in-memory ingesters
	logErr error
}

// note records the entry in the counters and sample ring.
func (d *dlState) note(shard int, e DeadLetterEntry) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.total++
	if d.byReason == nil {
		d.byReason = make(map[string]int64)
	}
	d.byReason[e.Reason]++
	s := DeadLetterSample{Shard: shard, Kind: e.Kind, Reason: e.Reason, Probe: e.Probe, Detail: e.Detail}
	if len(d.samples) < dlSampleCap {
		d.samples = append(d.samples, s)
	} else {
		d.samples[d.next] = s
		d.next = (d.next + 1) % dlSampleCap
	}
}

// addTo merges this shard's quarantine state into st.
func (d *dlState) addTo(st *DeadLetterStatus) {
	d.mu.Lock()
	defer d.mu.Unlock()
	st.Total += d.total
	for r, n := range d.byReason {
		st.ByReason[r] += n
	}
	// Oldest-first: the ring's write position is its oldest element.
	for i := 0; i < len(d.samples); i++ {
		st.Samples = append(st.Samples, d.samples[(d.next+i)%len(d.samples)])
	}
}

// deadLetterDir is where a shard's quarantine WAL lives, under its own
// WAL directory. The main log's segment scan skips subdirectories, so
// the two logs never see each other's frames.
func deadLetterDir(shardDir string) string { return filepath.Join(shardDir, "deadletter") }

// quarantine is the shard-goroutine sink for one dead-lettered record:
// count it, sample it, and best-effort append it to the durable
// quarantine log. Quarantine-log failures are counted but never degrade
// the shard — the main WAL decides that.
func (s *shard) quarantine(e DeadLetterEntry) {
	s.dl.note(s.index, e)
	if s.reg != nil {
		s.reg.Counter("deadletter_records_total",
			"Records quarantined to the dead-letter queue instead of failing their batch.",
			obs.L("reason", e.Reason)).Inc()
	}
	if s.dir == "" {
		return
	}
	if s.dl.log == nil {
		opt := s.walOpt
		opt.FirstSeq = 0
		// The quarantine log is bookkeeping, not the durability path: its
		// appends must not inflate the main WAL's wal_append_total
		// invariant (one append per fed record). deadletter_records_total
		// already counts it.
		opt.Metrics = nil
		log, err := wal.Open(deadLetterDir(s.dir), opt)
		if err != nil {
			s.dl.logErr = err
			s.noteDeadLetterDrop()
			return
		}
		s.dl.log = log
	}
	payload, err := json.Marshal(e)
	if err == nil {
		_, err = s.dl.log.Append(payload)
	}
	if err != nil {
		s.dl.logErr = err
		s.noteDeadLetterDrop()
	}
}

func (s *shard) noteDeadLetterDrop() {
	if s.reg != nil {
		s.reg.Counter("deadletter_dropped_total",
			"Quarantined records lost because the quarantine log could not be written.").Inc()
	}
}

// DeadLetter aggregates the quarantine counters and recent samples
// across shards. Counts are process-lifetime (recovery replay does not
// re-count entries already in the quarantine logs).
func (in *Ingester) DeadLetter() DeadLetterStatus {
	st := DeadLetterStatus{ByReason: make(map[string]int64)}
	for _, s := range in.shards {
		s.dl.addTo(&st)
	}
	return st
}

// Quarantine routes a record that failed decode or validation at the
// API layer into the dead-letter queue of the probe's shard (probe 0's
// when the probe is unknown). When that partition is not owned here —
// a cluster coordinator cannot route a record whose probe it cannot
// read — the shard of the lowest owned partition takes it instead. The
// payload is copied; callers may reuse their buffer. It fails only the
// way an ordinary ingest send does — closed, cancelled, or degraded
// shard.
func (in *Ingester) Quarantine(ctx context.Context, kind string, probe atlasdata.ProbeID, reason, detail string, payload []byte) error {
	e := DeadLetterEntry{Kind: kind, Reason: reason, Detail: detail, Probe: probe}
	if len(payload) > 0 {
		e.Payload = append([]byte(nil), payload...)
	}
	return in.send(ctx, probe, record{kind: kindQuarantine, q: &quarantineRecord{entry: e}})
}

// ReadDeadLetters walks the durable quarantine logs under walDir (the
// ingester's Config.WALDir) in shard order, oldest entry first within a
// shard. It reads the directory directly — run it against a stopped
// ingester or accept that concurrent quarantines may be missed.
func ReadDeadLetters(walDir string, fn func(shard int, seq uint64, e DeadLetterEntry) error) error {
	shards, err := shardDirs(walDir)
	if err != nil {
		return err
	}
	for _, sd := range shards {
		err := wal.Replay(deadLetterDir(sd.dir), 0, func(seq uint64, payload []byte) error {
			var e DeadLetterEntry
			if err := json.Unmarshal(payload, &e); err != nil {
				return fmt.Errorf("shard %d dead-letter seq %d: %w", sd.index, seq, err)
			}
			return fn(sd.index, seq, e)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// TruncateDeadLetters removes every shard's drained quarantine log.
// Like ReadDeadLetters it operates on the directory directly, so run
// it only after the owning process has stopped (or accept losing
// entries quarantined between the drain and the truncate).
func TruncateDeadLetters(walDir string) error {
	shards, err := shardDirs(walDir)
	if err != nil {
		return err
	}
	for _, sd := range shards {
		if err := os.RemoveAll(deadLetterDir(sd.dir)); err != nil {
			return err
		}
	}
	return nil
}

type shardDir struct {
	index int
	dir   string
}

func shardDirs(walDir string) ([]shardDir, error) {
	var out []shardDir
	for i := 0; ; i++ {
		dir := filepath.Join(walDir, fmt.Sprintf("shard-%03d", i))
		if _, err := os.Stat(dir); err != nil {
			break
		}
		out = append(out, shardDir{index: i, dir: dir})
	}
	return out, nil
}
