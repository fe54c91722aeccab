package stream

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/core"
	"dynaddr/internal/obs"
	"dynaddr/internal/pfx2as"
	"dynaddr/internal/wal"
	"dynaddr/internal/wire"
)

// ErrClosed is returned by ingest calls after Close.
var ErrClosed = errors.New("stream: ingester closed")

// ErrDegraded is returned by ingest calls routed to a shard that is in
// degraded read-only mode after a WAL failure: the shard serves queries
// but sheds writes until its background probe re-arms the log. Callers
// should retry after a pause (the HTTP layer maps this to 503 +
// Retry-After).
var ErrDegraded = errors.New("stream: shard degraded after WAL failure, retry later")

// ErrNotOwner is returned by ingest and cursor calls for a probe whose
// partition this ingester does not own. A single-node ingester owns
// every partition and never returns it; a cluster peer returns it for
// records the coordinator should have routed elsewhere (the HTTP layer
// maps this to 421 Misdirected Request).
var ErrNotOwner = errors.New("stream: probe's partition not owned by this node")

// PartitionOf hashes a probe ID onto one of total partitions. It is THE
// routing function: producers, coordinator and peers must all agree on
// it, and it is deliberately dependency-free so internal/cluster can
// reuse it. The multiplier is the 64-bit golden ratio (Fibonacci
// hashing); the shift folds high bits into the modulus.
func PartitionOf(id atlasdata.ProbeID, total int) int {
	h := uint64(id) * 0x9E3779B97F4A7C15
	h ^= h >> 29
	return int(h % uint64(total))
}

type recordKind uint8

const (
	kindMeta recordKind = iota
	kindConn
	kindKRoot
	kindUptime
	kindSnapshot
	kindCursor
	// kindAnalysis must stay after the WAL-persisted kinds: marker kinds
	// never reach the log, but keeping them last means the byte values of
	// persisted kinds never shift when markers are added.
	kindAnalysis
	// kindQuarantine carries an API-layer dead-letter entry in-band to
	// the probe's shard, which owns the quarantine log. Never persisted
	// to the main WAL.
	kindQuarantine
)

// record is the envelope travelling through a shard's channel. Exactly
// one payload field is meaningful, selected by kind.
type record struct {
	kind     recordKind
	meta     atlasdata.ProbeMeta
	conn     atlasdata.ConnLogEntry
	kroot    atlasdata.KRootRound
	uptime   atlasdata.UptimeRecord
	snap     chan<- *shardView
	probe    atlasdata.ProbeID    // kindCursor: which probe
	cur      chan<- cursorReply   // kindCursor: reply channel
	analysis chan<- *analysisView // kindAnalysis: reply channel
	q        *quarantineRecord    // kindQuarantine: the dead-letter entry
}

// cursorReply pairs a probe cursor with the owning shard's stream
// position at the barrier, so cursor responses can carry cache
// validators without a second round trip.
type cursorReply struct {
	cur ProbeCursor
	ver Version
}

// shard owns the state machines for a subset of probes. Only the
// shard's goroutine touches its fields after start-up (walErr excepted,
// see errMu), so no locking is needed on the hot path; coordination
// happens through the channel.
type shard struct {
	in     chan record
	states map[atlasdata.ProbeID]*probeState
	// sessionsByAS counts observed IPv4 sessions by the origin AS of the
	// session's address at its start — the raw live-traffic view, kept
	// incrementally (unlike the snapshot-time home-AS aggregation).
	sessionsByAS map[uint32]int64
	counts       RecordCounts
	pfx          *pfx2as.SnapshotStore
	// churn is the shard's day-bucketed address-change table, shared by
	// every probe the shard owns (churn has no per-probe dimension —
	// the counters are integer sums, so per-shard accumulation merges
	// exactly). Nil when analysis is off; doubles as the analysis-mode
	// flag for new probe states, whose machines keep their events iff
	// it is set.
	churn *core.ChurnTable

	// index is the shard's global partition ID — part of the on-disk
	// identity of a durable shard (WAL directory shard-NNN) and stable
	// across the whole cluster, not the shard's position in
	// Ingester.shards. Single-node, the two coincide.
	index int

	// done is closed when run() returns; ReleasePartition waits on it to
	// know the shard is quiescent and its logs are closed.
	done chan struct{}

	// Durability (nil/zero for an in-memory ingester). The shard appends
	// every record to its log before applying it, so the log holds a
	// superset of the applied state in per-probe order.
	log       *wal.Log
	payload   []byte // reused wire encoding of the record being appended
	dir       string
	fs        wal.FS // Config.FS, or the real filesystem
	ckptEvery int
	sinceCkpt int
	lastSeq   uint64 // sequence of the last appended record
	// gen counts the shard's durable checkpoints (restored from the
	// checkpoint on recovery). Together with the consumed-record count it
	// forms the shard's Version — the serving tier's cache key. It
	// advances only once a checkpoint's write is durable; an in-memory
	// shard never checkpoints and stays at generation 0.
	gen uint64

	// Checkpointing (ckptwriter.go). ckBuf is the reused encoding buffer,
	// the writer's while ckInflight; ckHead, ckIDs, ckKeys and ckMeta are
	// the encoder's reused scratch. ckw is started by the first
	// checkpoint.
	ckw        *ckptWriter
	ckInflight bool
	ckBuf      []byte
	ckHead     checkpointHead
	ckIDs      []atlasdata.ProbeID
	ckKeys     []uint32
	ckMeta     []byte

	// metrics is nil when instrumentation is disabled; all its methods
	// are nil-receiver safe. ametrics is the analysis-barrier slice of
	// the instrumentation, also nil-safe and touched only at barriers.
	metrics  *shardMetrics
	ametrics *analysisMetrics
	// reg is the raw registry for cold-path instruments (dead-letter
	// counters); nil when instrumentation is disabled.
	reg *obs.Registry

	// Degraded mode: a durability error (append, fsync, rotation,
	// checkpoint) flips the shard read-only instead of killing it.
	// Queries keep answering from memory, new writes are shed at send()
	// with ErrDegraded, and records already queued are parked. The run
	// loop probes the WAL directory every rearmEvery; once writes
	// succeed again it reopens the log (repairing any torn tail the
	// failed append left), flushes the parked records in arrival order,
	// and clears the flag. The acked⇒durable contract is unchanged: a
	// record is only acknowledged once appended, so nothing acked is
	// ever lost to the degraded window.
	degraded   atomic.Bool
	parked     []record
	walOpt     wal.Options // reopen options for the re-arm path
	rearmEvery time.Duration

	// dl is the shard's dead-letter quarantine state (counts, samples,
	// lazy durable log).
	dl dlState

	// walErr is the shard's current durability error: set when the
	// shard degrades (or its log fails to close), cleared by a
	// successful re-arm. Reported by WALError and Close.
	errMu  sync.Mutex
	walErr error
}

func (s *shard) setWALErr(err error) {
	if err == nil {
		return
	}
	s.errMu.Lock()
	if s.walErr == nil {
		s.walErr = err
	}
	s.errMu.Unlock()
}

func (s *shard) walError() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.walErr
}

// degrade flips the shard into read-only degraded mode.
func (s *shard) degrade(err error) {
	s.errMu.Lock()
	s.walErr = err
	s.errMu.Unlock()
	s.degraded.Store(true)
}

// tryRearm probes the WAL directory and, if it takes durable writes
// again, reopens the log and flushes the parked records through the
// normal append-before-apply path. Runs on the shard goroutine.
func (s *shard) tryRearm() {
	if s.log == nil || !s.degraded.Load() {
		return
	}
	if err := wal.ProbeWrite(s.walOpt.FS, s.dir); err != nil {
		return
	}
	// The old handle is broken (mid-frame, failed fd, or unsynced);
	// reopening repairs the torn tail and resumes at the last durable
	// sequence, exactly like crash recovery.
	s.log.Close()
	log, err := wal.Open(s.dir, s.walOpt)
	if err != nil {
		return
	}
	s.log = log
	s.lastSeq = log.NextSeq() - 1
	s.errMu.Lock()
	s.walErr = nil
	s.errMu.Unlock()
	s.degraded.Store(false)

	parked := s.parked
	s.parked = nil
	for i, rec := range parked {
		s.ingestOne(rec)
		if s.degraded.Load() {
			// Re-degraded mid-flush: ingestOne re-parked rec; keep the rest
			// behind it in order.
			s.parked = append(s.parked, parked[i+1:]...)
			return
		}
	}
	// A checkpoint that failed (or fell due while degraded) is retried
	// now rather than at the next record.
	s.maybeCheckpoint()
}

// RecordCounts tallies what an ingester (or one shard) has processed.
type RecordCounts struct {
	Meta     int64 `json:"meta"`
	ConnLogs int64 `json:"connlogs"`
	KRoot    int64 `json:"kroot"`
	Uptime   int64 `json:"uptime"`
	// Rejected counts records dropped for violating per-probe time order
	// or failing validation inside the shard.
	Rejected int64 `json:"rejected"`
}

// Total returns the number of accepted records.
func (c RecordCounts) Total() int64 { return c.Meta + c.ConnLogs + c.KRoot + c.Uptime }

func (c *RecordCounts) add(o RecordCounts) {
	c.Meta += o.Meta
	c.ConnLogs += o.ConnLogs
	c.KRoot += o.KRoot
	c.Uptime += o.Uptime
	c.Rejected += o.Rejected
}

// Ingester accepts the three record streams plus probe metadata and
// maintains incremental analysis state across N probe-hashed shards.
// All ingest methods are safe for concurrent use; records for one probe
// must arrive in time order (per stream), which the per-probe shard
// affinity preserves end to end.
type Ingester struct {
	cfg   Config
	total int // cluster-wide partition count (hash modulus)

	// mu guards shards, table and closed. shards and table are replaced
	// wholesale (copy-on-write) by ReleasePartition/AdoptPartition, so a
	// reader that copies the slice header under RLock can keep using it
	// after unlocking.
	mu     sync.RWMutex
	shards []*shard
	table  []int32 // partition → index into shards, -1 when unowned
	closed bool
	wg     sync.WaitGroup
}

// NewIngester starts the shard goroutines and returns a ready ingester.
// Call Close to drain and stop them. With Config.WALDir set it opens
// (and, if needed, recovers) the durable ingester and panics on
// recovery failure; call Recover directly to handle that error.
func NewIngester(cfg Config) *Ingester {
	cfg = cfg.withDefaults()
	if cfg.WALDir != "" {
		in, _, err := Recover(cfg)
		if err != nil {
			panic(fmt.Sprintf("stream: durable NewIngester: %v", err))
		}
		return in
	}
	in := newIngester(cfg)
	in.start()
	return in
}

// newIngester allocates the ingester and its shards without starting
// the shard goroutines (Recover restores shard state in between).
func newIngester(cfg Config) *Ingester {
	owned := cfg.OwnedPartitions
	if owned == nil {
		owned = make([]int, cfg.Shards)
		for i := range owned {
			owned[i] = i
		}
	}
	in := &Ingester{cfg: cfg, total: cfg.TotalPartitions, shards: make([]*shard, len(owned))}
	for i, p := range owned {
		if p < 0 || p >= in.total {
			panic(fmt.Sprintf("stream: owned partition %d outside [0, %d)", p, in.total))
		}
		in.shards[i] = in.newShard(p)
	}
	in.rebuildTable()
	if cfg.Metrics != nil {
		cfg.Metrics.GaugeFunc("wal_degraded_shards",
			"Shards in degraded read-only mode after a WAL failure, pending re-arm.",
			func() float64 {
				in.mu.RLock()
				shards := in.shards
				in.mu.RUnlock()
				n := 0
				for _, s := range shards {
					if s.degraded.Load() {
						n++
					}
				}
				return float64(n)
			})
	}
	return in
}

// newShard builds one shard for global partition p, wired but not
// running.
func (in *Ingester) newShard(p int) *shard {
	cfg := in.cfg
	s := &shard{
		index:        p,
		in:           make(chan record, cfg.Buffer),
		done:         make(chan struct{}),
		states:       make(map[atlasdata.ProbeID]*probeState),
		sessionsByAS: make(map[uint32]int64),
		pfx:          cfg.Pfx2AS,
		fs:           cfg.FS,
		metrics:      newShardMetrics(cfg.Metrics, p),
		reg:          cfg.Metrics,
		rearmEvery:   cfg.RearmEvery,
	}
	if s.fs == nil {
		s.fs = wal.OSFS
	}
	if cfg.Analysis {
		s.churn = &core.ChurnTable{}
		s.ametrics = newAnalysisMetrics(cfg.Metrics, p)
	}
	registerQueueDepth(cfg.Metrics, p, s.in)
	return s
}

// rebuildTable recomputes the partition → shard routing table. Caller
// holds mu (or is single-threaded construction).
func (in *Ingester) rebuildTable() {
	table := make([]int32, in.total)
	for i := range table {
		table[i] = -1
	}
	for i, s := range in.shards {
		table[s.index] = int32(i)
	}
	in.table = table
}

// start launches one goroutine per shard.
func (in *Ingester) start() {
	for _, s := range in.shards {
		in.startShard(s)
	}
}

func (in *Ingester) startShard(s *shard) {
	in.wg.Add(1)
	go func() {
		defer in.wg.Done()
		defer close(s.done)
		s.run()
	}()
}

// Shards returns the number of shards the ingester currently runs —
// the partitions it owns, which single-node is all of them.
func (in *Ingester) Shards() int {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return len(in.shards)
}

// TotalPartitions returns the cluster-wide partition count records are
// hashed over. Single-node it equals Shards().
func (in *Ingester) TotalPartitions() int { return in.total }

// OwnedPartitions returns the sorted partition IDs this ingester
// currently owns.
func (in *Ingester) OwnedPartitions() []int {
	in.mu.RLock()
	shards := in.shards
	in.mu.RUnlock()
	out := make([]int, 0, len(shards))
	for _, s := range shards {
		out = append(out, s.index)
	}
	sort.Ints(out)
	return out
}

// shardFor maps a probe ID to its owning local shard, or nil when the
// probe's partition is not owned here. Caller holds mu (read side).
func (in *Ingester) shardFor(id atlasdata.ProbeID) *shard {
	if li := in.table[PartitionOf(id, in.total)]; li >= 0 {
		return in.shards[li]
	}
	return nil
}

// lowestShard is the local shard of the lowest owned partition, or nil
// when none is owned. Caller holds mu (read side).
func (in *Ingester) lowestShard() *shard {
	for _, li := range in.table {
		if li >= 0 {
			return in.shards[li]
		}
	}
	return nil
}

// send routes one record, blocking while the target shard's buffer is
// full — the backpressure that keeps a slow shard from being buried.
// Cancelling ctx releases a blocked producer instead of leaving it
// stuck behind the full buffer.
func (in *Ingester) send(ctx context.Context, id atlasdata.ProbeID, rec record) error {
	in.mu.RLock()
	defer in.mu.RUnlock()
	if in.closed {
		return ErrClosed
	}
	s := in.shardFor(id)
	if s == nil && rec.kind == kindQuarantine {
		s = in.lowestShard()
	}
	if s == nil {
		return ErrNotOwner
	}
	if s.degraded.Load() {
		// The shard is read-only until its WAL re-arms: shed instead of
		// queueing work it could only park. (A record that slips past this
		// check while the shard degrades is parked and flushed on re-arm,
		// so the acked⇒durable contract holds either way.)
		return ErrDegraded
	}
	select {
	case s.in <- rec:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Meta registers (or refreshes) a probe's archive metadata. Records for
// unregistered probes are tracked but stay out of the classified
// aggregates until metadata arrives.
func (in *Ingester) Meta(m atlasdata.ProbeMeta) error {
	return in.MetaContext(context.Background(), m)
}

// MetaContext is Meta under a context: a blocked send returns ctx.Err()
// on cancellation instead of waiting out the backpressure.
func (in *Ingester) MetaContext(ctx context.Context, m atlasdata.ProbeMeta) error {
	return in.ingest(ctx, record{kind: kindMeta, meta: m})
}

// ConnLog ingests one connection-log entry.
func (in *Ingester) ConnLog(e atlasdata.ConnLogEntry) error {
	return in.ConnLogContext(context.Background(), e)
}

// ConnLogContext is ConnLog under a context (see MetaContext).
func (in *Ingester) ConnLogContext(ctx context.Context, e atlasdata.ConnLogEntry) error {
	return in.ingest(ctx, record{kind: kindConn, conn: e})
}

// KRoot ingests one k-root measurement round.
func (in *Ingester) KRoot(k atlasdata.KRootRound) error {
	return in.KRootContext(context.Background(), k)
}

// KRootContext is KRoot under a context (see MetaContext).
func (in *Ingester) KRootContext(ctx context.Context, k atlasdata.KRootRound) error {
	return in.ingest(ctx, record{kind: kindKRoot, kroot: k})
}

// Uptime ingests one SOS-uptime record.
func (in *Ingester) Uptime(u atlasdata.UptimeRecord) error {
	return in.UptimeContext(context.Background(), u)
}

// UptimeContext is Uptime under a context (see MetaContext).
func (in *Ingester) UptimeContext(ctx context.Context, u atlasdata.UptimeRecord) error {
	return in.ingest(ctx, record{kind: kindUptime, uptime: u})
}

// ingest validates one data record and routes it to its probe's shard.
// It also refuses a record the wire encoding (what a durable shard
// logs) cannot carry, so every ingester accepts the same records.
func (in *Ingester) ingest(ctx context.Context, rec record) error {
	if err := rec.validate(); err != nil {
		return err
	}
	var buf [64]byte
	if _, err := appendRecord(buf[:0], &rec); err != nil {
		return err
	}
	return in.send(ctx, rec.probeID(), rec)
}

// Snapshot returns a consistent point-in-time view of the analysis
// state: it reflects at least every record whose ingest call returned
// before Snapshot was called (snapshot markers travel in-band through
// the shard channels), plus possibly a bounded number of records that
// were in flight.
func (in *Ingester) Snapshot() *Snapshot {
	snap, _ := in.SnapshotContext(context.Background())
	return snap
}

// SnapshotContext is Snapshot under a context: a caller blocked behind
// full shard buffers (or behind a shard stalled in an fsync) gets
// ctx.Err() on cancellation instead of hanging. The error is always
// ctx.Err(); a nil-error return carries the snapshot.
func (in *Ingester) SnapshotContext(ctx context.Context) (*Snapshot, error) {
	views, err := in.collectViews(ctx)
	if err != nil {
		return nil, err
	}
	return mergeViews(views, in.total), nil
}

// collectViews gathers one consistent shardView per owned shard via the
// in-band snapshot barrier (or directly once closed).
func (in *Ingester) collectViews(ctx context.Context) ([]*shardView, error) {
	in.mu.RLock()
	shards := in.shards
	if in.closed {
		in.mu.RUnlock()
		// After Close the shard goroutines have exited; their state is
		// quiescent and safe to read directly.
		views := make([]*shardView, 0, len(shards))
		for _, s := range shards {
			views = append(views, s.view())
		}
		return views, nil
	}
	// ch is buffered to the full shard count so markers already sent keep
	// a reply slot even if we abandon the collection on cancellation —
	// no shard goroutine ever blocks on a dead snapshot.
	ch := make(chan *shardView, len(shards))
	for _, s := range shards {
		select {
		case s.in <- record{kind: kindSnapshot, snap: ch}:
		case <-ctx.Done():
			in.mu.RUnlock()
			return nil, ctx.Err()
		}
	}
	in.mu.RUnlock()
	views := make([]*shardView, 0, len(shards))
	for range shards {
		select {
		case v := <-ch:
			views = append(views, v)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return views, nil
}

// Cursor returns a probe's resume cursor: how many records of each
// kind the ingester has consumed for that probe. Like a snapshot it
// travels in-band, so it reflects every record whose ingest call
// returned before Cursor was called. After a crash and Recover, the
// cursor describes exactly the durable prefix of the probe's stream —
// a producer resumes by skipping that many records per kind.
func (in *Ingester) Cursor(ctx context.Context, id atlasdata.ProbeID) (ProbeCursor, error) {
	c, _, err := in.CursorVersioned(ctx, id)
	return c, err
}

// CursorVersioned is Cursor plus the owning shard's stream position at
// the barrier. The version validates conditional GETs of the cursor
// endpoint: it is shard-local (only records routed to the probe's shard
// advance it), so a changed version is necessary for — though not proof
// of — a changed cursor, which is exactly the one-sided guarantee an
// ETag needs. Cursors are never served from the cached read tier: a
// stale cursor would make a resuming producer re-send already-applied
// records.
func (in *Ingester) CursorVersioned(ctx context.Context, id atlasdata.ProbeID) (ProbeCursor, Version, error) {
	in.mu.RLock()
	s := in.shardFor(id)
	if s == nil {
		closed := in.closed
		in.mu.RUnlock()
		if closed {
			return ProbeCursor{}, Version{}, ErrClosed
		}
		return ProbeCursor{}, Version{}, ErrNotOwner
	}
	if in.closed {
		in.mu.RUnlock()
		return s.cursor(id), s.version(), nil
	}
	ch := make(chan cursorReply, 1)
	select {
	case s.in <- record{kind: kindCursor, probe: id, cur: ch}:
	case <-ctx.Done():
		in.mu.RUnlock()
		return ProbeCursor{}, Version{}, ctx.Err()
	}
	in.mu.RUnlock()
	select {
	case r := <-ch:
		return r.cur, r.ver, nil
	case <-ctx.Done():
		return ProbeCursor{}, Version{}, ctx.Err()
	}
}

// WALError reports the current durability failure any shard is
// suffering, or nil. A failing shard degrades to read-only — queries
// keep answering, ingest to it sheds with ErrDegraded — and a
// background probe re-arms it once writes succeed again, clearing the
// error. The WAL therefore always covers the applied state: records
// are only applied after their append succeeds.
func (in *Ingester) WALError() error {
	in.mu.RLock()
	shards := in.shards
	in.mu.RUnlock()
	for _, s := range shards {
		if err := s.walError(); err != nil {
			return err
		}
	}
	return nil
}

// DegradedShards lists the indexes of shards currently in degraded
// read-only mode, oldest index first. Empty means fully healthy.
func (in *Ingester) DegradedShards() []int {
	in.mu.RLock()
	shards := in.shards
	in.mu.RUnlock()
	var out []int
	for _, s := range shards {
		if s.degraded.Load() {
			out = append(out, s.index)
		}
	}
	sort.Ints(out)
	return out
}

// QueuePressure returns the fullest shard queue as a fraction of its
// capacity, in [0, 1]. It is the end-to-end backpressure signal: the
// admission layer sheds new batches with 429 once it crosses the
// configured high-watermark, instead of letting producers pile up
// behind a slow shard.
func (in *Ingester) QueuePressure() float64 {
	in.mu.RLock()
	shards := in.shards
	in.mu.RUnlock()
	p := 0.0
	for _, s := range shards {
		if c := cap(s.in); c > 0 {
			if f := float64(len(s.in)) / float64(c); f > p {
				p = f
			}
		}
	}
	return p
}

// Close stops accepting records, drains every shard's queue, syncs and
// closes the shard WALs, and waits for the shard goroutines to exit.
// Snapshot remains usable afterwards. Close is idempotent; it returns
// the first durability error encountered during the ingester's life,
// if any. It deliberately does not checkpoint: recovery must never
// depend on a clean shutdown.
func (in *Ingester) Close() error {
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		return in.WALError()
	}
	in.closed = true
	for _, s := range in.shards {
		close(s.in)
	}
	in.mu.Unlock()
	in.wg.Wait()
	return in.WALError()
}

// run is the shard goroutine: drain the channel, persist, then drive
// the state machines. The append-before-apply order is the durability
// contract — the WAL always holds a superset of the applied records,
// in per-probe arrival order. While degraded the loop keeps serving
// markers (queries stay up) and wakes every rearmEvery to probe the
// WAL directory for recovered writability.
func (s *shard) run() {
	for {
		var (
			rec record
			ok  bool
		)
		switch {
		case s.degraded.Load() && s.rearmEvery > 0:
			timer := time.NewTimer(s.rearmEvery)
			select {
			case rec, ok = <-s.in:
				timer.Stop()
			case d := <-s.ckptReport():
				timer.Stop()
				s.finishCheckpoint(d)
				continue
			case <-timer.C:
				s.tryRearm()
				continue
			}
		case s.ckInflight:
			select {
			case rec, ok = <-s.in:
			case d := <-s.ckw.done:
				s.finishCheckpoint(d)
				continue
			}
		default:
			rec, ok = <-s.in
		}
		if !ok {
			break
		}
		switch rec.kind {
		case kindSnapshot:
			// The snapshot barrier is also the metrics barrier: a scrape
			// after a snapshot sees counters that exactly match it. Like
			// every barrier that reports a Version, it first waits for an
			// in-flight checkpoint write.
			s.settleCheckpoint()
			s.metrics.flush()
			rec.snap <- s.view()
			continue
		case kindCursor:
			s.settleCheckpoint()
			rec.cur <- cursorReply{cur: s.cursor(rec.probe), ver: s.version()}
			continue
		case kindAnalysis:
			// Like snapshots, the analysis barrier is a metrics barrier.
			s.settleCheckpoint()
			s.metrics.flush()
			v := s.analysisView()
			s.ametrics.observe(v)
			rec.analysis <- v
			continue
		}
		if s.degraded.Load() && rec.kind != kindQuarantine {
			// In-flight records that raced the degrade: park them, bounded
			// by the channel capacity, and flush them on re-arm.
			s.parked = append(s.parked, rec)
			continue
		}
		s.ingestOne(rec)
	}
	// Last chance to land parked records before the logs close; an
	// in-flight checkpoint write finishes first.
	if s.degraded.Load() {
		s.tryRearm()
	}
	s.stopCkptWriter()
	s.metrics.flush()
	if s.log != nil && !s.degraded.Load() {
		s.setWALErr(s.log.Close())
	} else if s.log != nil {
		s.log.Close()
	}
	if s.dl.log != nil {
		s.dl.log.Close()
	}
}

// ingestOne persists and applies one data or quarantine record. An
// append failure degrades the shard and parks the record — it is
// applied only once its bytes are in the log, so recovery never
// diverges from the live state.
func (s *shard) ingestOne(rec record) {
	if rec.kind == kindQuarantine {
		s.quarantine(rec.q.entry)
		return
	}
	if s.log != nil {
		payload, err := appendRecord(s.payload[:0], &rec)
		if err != nil {
			// A backstop (both ingest routes refuse such records): a
			// record that cannot be encoded is poison, not a disk
			// problem, so dead-letter it and move on without applying.
			s.quarantine(DeadLetterEntry{Kind: wire.Kind(rec.kind).String(), Reason: "encode", Detail: err.Error(), Probe: rec.probeID()})
			return
		}
		// Append copies the payload out before it returns, so the buffer
		// is free for the next record.
		s.payload = payload
		seq, err := s.log.Append(payload)
		if err != nil {
			s.degrade(err)
			s.parked = append(s.parked, rec)
			return
		}
		s.lastSeq = seq
	}
	// Apply-time order rejections are counted and dropped, NOT
	// quarantined: under at-least-once delivery a resumed producer
	// legitimately re-sends already-applied records, and dead-lettering
	// every stale duplicate would bury real poison records (and put an
	// encode+append on the steady-state redelivery path).
	s.apply(rec)
	s.sinceCkpt++
	s.maybeCheckpoint()
}

// applyResult says whether apply accepted the record into the
// aggregates or rejected it (time order, in-shard validation).
type applyResult uint8

const (
	applyOK applyResult = iota
	applyRejected
)

// apply drives one record through its probe's state machines. Recovery
// replays WAL records through this same function, so everything here
// must be deterministic in the record sequence — which is why the
// dead-letter side effects of a rejection live in the caller (replay
// ignores the result instead of re-quarantining).
func (s *shard) apply(rec record) applyResult {
	res := applyOK
	t0, timed := s.metrics.sampleStart()
	switch rec.kind {
	case kindMeta:
		ps := s.state(rec.meta.ID)
		ps.metaCount++
		ps.setMeta(rec.meta)
		s.counts.Meta++
		s.metrics.accept(kindMeta)
	case kindConn:
		ps := s.state(rec.conn.Probe)
		ps.connCount++
		if ps.m.Conn(rec.conn, s.pfx, s.churn) {
			s.counts.ConnLogs++
			s.metrics.accept(kindConn)
			if rec.conn.IsV4() && s.pfx != nil {
				asn, _, _ := s.pfx.Lookup(rec.conn.Addr, rec.conn.Start)
				s.sessionsByAS[uint32(asn)]++
			}
		} else {
			ps.rejected++
			s.counts.Rejected++
			s.metrics.reject()
			res = applyRejected
		}
	case kindKRoot:
		ps := s.state(rec.kroot.Probe)
		ps.kRootCount++
		if ps.m.KRoot(rec.kroot) {
			s.counts.KRoot++
			s.metrics.accept(kindKRoot)
		} else {
			ps.rejected++
			s.counts.Rejected++
			s.metrics.reject()
			res = applyRejected
		}
	case kindUptime:
		ps := s.state(rec.uptime.Probe)
		ps.uptimeCount++
		if ps.m.Uptime(rec.uptime) {
			s.counts.Uptime++
			s.metrics.accept(kindUptime)
		} else {
			ps.rejected++
			s.counts.Rejected++
			s.metrics.reject()
			res = applyRejected
		}
	}
	if timed {
		s.metrics.applySec.ObserveSince(t0)
	}
	return res
}

// ProbeCursor is a probe's resume position: how many records of each
// kind the ingester has consumed for the probe (accepted and rejected
// alike — rejected records were still drawn from the producer's
// stream). Returned by Cursor and the /api/v1/live/cursor endpoint.
type ProbeCursor struct {
	Probe    atlasdata.ProbeID `json:"probe"`
	Meta     int64             `json:"meta"`
	ConnLogs int64             `json:"connlogs"`
	KRoot    int64             `json:"kroot"`
	Uptime   int64             `json:"uptime"`
	Rejected int64             `json:"rejected"`
}

// cursor reads a probe's counters. Called from the shard goroutine
// (in-band marker) or after Close (quiescent).
func (s *shard) cursor(id atlasdata.ProbeID) ProbeCursor {
	c := ProbeCursor{Probe: id}
	if ps, ok := s.states[id]; ok {
		c.Meta = ps.metaCount
		c.ConnLogs = ps.connCount
		c.KRoot = ps.kRootCount
		c.Uptime = ps.uptimeCount
		c.Rejected = ps.rejected
	}
	return c
}

func (s *shard) state(id atlasdata.ProbeID) *probeState {
	ps, ok := s.states[id]
	if !ok {
		ps = newProbeState(id, s.churn != nil)
		s.states[id] = ps
	}
	return ps
}

// view copies the shard's aggregation-relevant state. Called from the
// shard goroutine (in-band snapshot) or after Close (quiescent).
func (s *shard) view() *shardView {
	v := &shardView{counts: s.counts, ver: s.version()}
	v.sessionsByAS = make(map[uint32]int64, len(s.sessionsByAS))
	for asn, n := range s.sessionsByAS {
		v.sessionsByAS[asn] = n
	}
	v.probes = make([]probeSummary, 0, len(s.states))
	ids := make([]atlasdata.ProbeID, 0, len(s.states))
	for id := range s.states {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		v.probes = append(v.probes, s.states[id].summarize())
	}
	return v
}

// String describes the ingester for logs.
func (in *Ingester) String() string {
	return fmt.Sprintf("stream.Ingester{shards: %d, buffer: %d}", in.cfg.Shards, in.cfg.Buffer)
}
