package stream

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/core"
	"dynaddr/internal/liveanalysis"
	"dynaddr/internal/stats"
	"dynaddr/internal/wal"
)

// Cluster support: an Ingester that owns a subset of the partition
// space exposes its state in mergeable form (PeerView, AnalysisPeerView)
// and can hand whole partitions to another node (ReleasePartition →
// PartitionState → AdoptPartition). The merge functions reuse the exact
// shard-merge fold the single-node snapshot path uses, so a peer
// boundary behaves like a shard boundary: scatter-gather over peers is
// byte-identical to a single process with the same partition count.

// ProbeView is one probe's snapshot contribution in wire form — the
// exported copy of the internal per-probe summary, carried between
// peers as binary frames (viewcodec.go) or JSON. stats.Weighted encodes
// its buckets exactly either way (no float formatting loss), so a view
// survives the trip byte-deterministically.
type ProbeView struct {
	ID             atlasdata.ProbeID `json:"id"`
	HasMeta        bool              `json:"has_meta,omitempty"`
	Category       core.Category     `json:"category,omitempty"`
	Country        string            `json:"country,omitempty"`
	ASN            uint32            `json:"asn,omitempty"`
	MultiAS        bool              `json:"multi_as,omitempty"`
	Sessions       int64             `json:"sessions,omitempty"`
	Changes        int64             `json:"changes,omitempty"`
	NetworkOutages int64             `json:"network_outages,omitempty"`
	Reboots        int64             `json:"reboots,omitempty"`
	OutageLinked   int64             `json:"outage_linked,omitempty"`
	OpenLossRun    bool              `json:"open_loss_run,omitempty"`
	ConnectedDays  float64           `json:"connected_days,omitempty"`
	TTF            *stats.Weighted   `json:"ttf,omitempty"`
}

func (p ProbeView) internal() probeSummary {
	return probeSummary{
		ID:             p.ID,
		HasMeta:        p.HasMeta,
		Category:       p.Category,
		Country:        p.Country,
		ASN:            p.ASN,
		MultiAS:        p.MultiAS,
		Sessions:       p.Sessions,
		Changes:        p.Changes,
		NetworkOutages: p.NetworkOutages,
		Reboots:        p.Reboots,
		OutageLinked:   p.OutageLinked,
		OpenLossRun:    p.OpenLossRun,
		ConnectedDays:  p.ConnectedDays,
		TTF:            p.TTF,
	}
}

func externalProbe(p probeSummary) ProbeView {
	return ProbeView{
		ID:             p.ID,
		HasMeta:        p.HasMeta,
		Category:       p.Category,
		Country:        p.Country,
		ASN:            p.ASN,
		MultiAS:        p.MultiAS,
		Sessions:       p.Sessions,
		Changes:        p.Changes,
		NetworkOutages: p.NetworkOutages,
		Reboots:        p.Reboots,
		OutageLinked:   p.OutageLinked,
		OpenLossRun:    p.OpenLossRun,
		ConnectedDays:  p.ConnectedDays,
		TTF:            p.TTF,
	}
}

// PeerView is one peer's complete mergeable snapshot contribution: its
// owned partitions, record counts, stream position and per-probe
// summaries (sorted by probe ID). A coordinator collects one PeerView
// per peer and folds them with MergePeerViews.
type PeerView struct {
	TotalPartitions int              `json:"total_partitions"`
	Partitions      []int            `json:"partitions"`
	Counts          RecordCounts     `json:"counts"`
	Version         Version          `json:"version"`
	SessionsByAS    map[uint32]int64 `json:"sessions_by_as,omitempty"`
	Probes          []ProbeView      `json:"probes"`
}

// PeerView takes a consistent snapshot barrier across the ingester's
// shards and returns it in wire form for a coordinator to merge.
func (in *Ingester) PeerView(ctx context.Context) (*PeerView, error) {
	views, err := in.collectViews(ctx)
	if err != nil {
		return nil, err
	}
	pv := &PeerView{
		TotalPartitions: in.total,
		Partitions:      in.OwnedPartitions(),
		SessionsByAS:    make(map[uint32]int64),
		Probes:          []ProbeView{},
	}
	for _, v := range views {
		pv.Counts.add(v.counts)
		pv.Version.add(v.ver)
		for asn, n := range v.sessionsByAS {
			pv.SessionsByAS[asn] += n
		}
		for _, p := range v.probes {
			pv.Probes = append(pv.Probes, externalProbe(p))
		}
	}
	sort.Slice(pv.Probes, func(i, j int) bool { return pv.Probes[i].ID < pv.Probes[j].ID })
	return pv, nil
}

// MergePeerViews folds peer contributions into the same Snapshot a
// single-node ingester with `total` partitions would produce over the
// same records: probes re-enter the fold in global probe-ID order, so
// the order-sensitive float accumulations (TTF distributions) replay
// exactly. The caller is responsible for coverage (each partition owned
// by exactly one view) — a gap or overlap produces a snapshot of a
// different record multiset, never detected here.
func MergePeerViews(views []*PeerView, total int) *Snapshot {
	svs := make([]*shardView, 0, len(views))
	for _, v := range views {
		sv := &shardView{
			counts:       v.Counts,
			ver:          v.Version,
			sessionsByAS: v.SessionsByAS,
			probes:       make([]probeSummary, 0, len(v.Probes)),
		}
		if sv.sessionsByAS == nil {
			sv.sessionsByAS = map[uint32]int64{}
		}
		for _, p := range v.Probes {
			sv.probes = append(sv.probes, p.internal())
		}
		svs = append(svs, sv)
	}
	return mergeViews(svs, total)
}

// AnalysisPeerView is one peer's mergeable analysis contribution:
// frozen per-probe event state plus day-bucketed churn counters, taken
// at a consistent barrier. The query-time Compute fold runs on the
// coordinator after the merge. Events is read-only: a view taken from an
// Ingester shares its event lists with the shards' machines.
type AnalysisPeerView struct {
	TotalPartitions int                          `json:"total_partitions"`
	Partitions      []int                        `json:"partitions"`
	Version         Version                      `json:"version"`
	Events          []core.ProbeEvents           `json:"events"`
	Churn           map[int]core.PrefixChangeRow `json:"churn,omitempty"`
}

// AnalysisPeerView takes a consistent analysis barrier and returns the
// pre-Compute event state for a coordinator to merge. Returns
// ErrAnalysisDisabled when the ingester runs without Config.Analysis.
func (in *Ingester) AnalysisPeerView(ctx context.Context) (*AnalysisPeerView, error) {
	views, err := in.collectAnalysisViews(ctx)
	if err != nil {
		return nil, err
	}
	pv := &AnalysisPeerView{
		TotalPartitions: in.total,
		Partitions:      in.OwnedPartitions(),
		Events:          []core.ProbeEvents{},
		Churn:           make(map[int]core.PrefixChangeRow),
	}
	for _, v := range views {
		pv.Version.add(v.ver)
		pv.Events = append(pv.Events, v.events...)
		for day, row := range v.churn {
			r := pv.Churn[day]
			r.Accumulate(row)
			pv.Churn[day] = r
		}
	}
	return pv, nil
}

// MergeAnalysisPeerViews folds peer analysis contributions and runs the
// query-time Compute — the same mergeAnalysis discipline the single-node
// barrier uses (events re-sorted into global probe-ID order, churn
// summed), so the result is byte-identical to a single process over the
// same records.
func MergeAnalysisPeerViews(views []*AnalysisPeerView) (*liveanalysis.Result, Version) {
	avs := make([]*analysisView, 0, len(views))
	for _, v := range views {
		av := &analysisView{events: v.Events, ver: v.Version, churn: v.Churn}
		if av.churn == nil {
			av.churn = map[int]core.PrefixChangeRow{}
		}
		avs = append(avs, av)
	}
	return mergeAnalysis(avs)
}

// PartitionState is a released partition packaged for shipping: the
// partition's latest durable checkpoint (empty if it never
// checkpointed) plus the WAL tail past it, exactly the inputs crash
// recovery rebuilds from. Adopting replays checkpoint-then-tail through
// the same state machines, so the moved partition's contribution to
// every aggregate — including its Version — is preserved bit for bit.
type PartitionState struct {
	// Version is the releaser's WAL layout version (walMetaVersion); an
	// adopter refuses any other, since the encodings of Checkpoint and
	// Tail depend on it.
	Version   int `json:"version"`
	Partition int `json:"partition"`
	// Checkpoint is the partition's checkpoint file, byte for byte (JSON
	// carries it base64-encoded). The adopter decodes and validates it,
	// and a durable adopter writes the same bytes as its own checkpoint.
	Checkpoint []byte `json:"checkpoint,omitempty"`
	// Tail holds the WAL frame payloads past the checkpoint, in order
	// (JSON carries them base64-encoded): internal/wire record payloads,
	// the bytes the producer sent. The adopter re-appends them verbatim
	// into a fresh log before applying, keeping the adopted partition
	// independently crash-recoverable.
	Tail [][]byte `json:"tail,omitempty"`
}

// ReleasePartition removes partition p from this ingester and returns
// its complete state for shipping to an adopting peer. The partition's
// shard is drained and stopped first, so the returned state reflects
// every record whose ingest call returned before the release. After a
// release, ingest for the partition's probes returns ErrNotOwner.
//
// Durable ingesters load the state from disk (checkpoint + WAL tail —
// what recovery would see, read once the shard's last checkpoint write
// has finished) and rename the shard directory aside, so a restart
// does not resurrect the moved partition. Dead letters stay
// with the renamed directory on the releasing node. A degraded shard
// refuses to release: its WAL does not cover its parked records.
func (in *Ingester) ReleasePartition(p int) (*PartitionState, error) {
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		return nil, ErrClosed
	}
	if p < 0 || p >= in.total || in.table[p] < 0 {
		in.mu.Unlock()
		return nil, fmt.Errorf("stream: release partition %d: %w", p, ErrNotOwner)
	}
	li := int(in.table[p])
	s := in.shards[li]
	if s.degraded.Load() {
		in.mu.Unlock()
		return nil, fmt.Errorf("stream: release partition %d: %w", p, ErrDegraded)
	}
	shards := make([]*shard, 0, len(in.shards)-1)
	shards = append(shards, in.shards[:li]...)
	shards = append(shards, in.shards[li+1:]...)
	in.shards = shards
	in.rebuildTable()
	close(s.in)
	in.mu.Unlock()

	// The shard drains its queue (snapshot barriers included) and closes
	// its logs before done is closed.
	<-s.done
	if err := s.walError(); err != nil {
		return nil, fmt.Errorf("stream: release partition %d: %w", p, err)
	}

	st := &PartitionState{Version: walMetaVersion, Partition: p}
	if s.dir == "" {
		// In-memory: encode the live state through the checkpoint codec
		// (exact float round-trip) with no tail.
		ck, err := s.appendCheckpoint(nil, s.gen)
		if err != nil {
			return nil, fmt.Errorf("stream: release partition %d: %w", p, err)
		}
		st.Checkpoint = ck
		return st, nil
	}
	ck, err := loadCheckpoint(s.dir)
	if err != nil {
		return nil, fmt.Errorf("stream: release partition %d: %w", p, err)
	}
	from := uint64(1)
	if ck != nil {
		seq, err := checkpointSeq(ck)
		if err != nil {
			return nil, fmt.Errorf("stream: release partition %d: %w", p, err)
		}
		st.Checkpoint = ck
		from = seq + 1
	}
	tail, err := wal.Collect(s.dir, from)
	if err != nil {
		return nil, fmt.Errorf("stream: release partition %d: %w", p, err)
	}
	st.Tail = tail
	aside := s.dir + ".released"
	if err := os.RemoveAll(aside); err != nil {
		return nil, err
	}
	if err := os.Rename(s.dir, aside); err != nil {
		return nil, err
	}
	if err := syncDir(wal.OSFS, filepath.Dir(s.dir)); err != nil {
		return nil, err
	}
	return st, nil
}

// AdoptPartition takes ownership of a partition released by another
// peer: it rebuilds the partition's shard from the shipped checkpoint
// and WAL tail (exactly like crash recovery), makes the state durable
// locally when the ingester has a WAL directory, and starts routing the
// partition's probes to the new shard. The shipped tail is re-appended
// frame for frame before being applied, so the adopter is immediately
// crash-recoverable to the same state. A checkpoint that fails to
// decode or validate, or a tail record that fails decodeRecord or
// validate, refuses the whole adoption and leaves no shard directory
// behind.
func (in *Ingester) AdoptPartition(st *PartitionState) error {
	if st == nil {
		return fmt.Errorf("stream: adopt: nil partition state")
	}
	p := st.Partition
	if st.Version != walMetaVersion {
		return fmt.Errorf("stream: adopt partition %d: WAL layout version %d, want %d", p, st.Version, walMetaVersion)
	}

	in.mu.Lock()
	defer in.mu.Unlock()
	if in.closed {
		return ErrClosed
	}
	if p < 0 || p >= in.total {
		return fmt.Errorf("stream: adopt partition %d outside [0, %d)", p, in.total)
	}
	if in.table[p] >= 0 {
		return fmt.Errorf("stream: adopt partition %d: already owned", p)
	}

	s := in.newShard(p)
	from := uint64(1)
	if len(st.Checkpoint) > 0 {
		seq, _, err := s.restoreCheckpoint(st.Checkpoint)
		if err != nil {
			return fmt.Errorf("stream: adopt partition %d: %w", p, err)
		}
		from = seq + 1
	}
	if in.cfg.WALDir != "" {
		s.dir = filepath.Join(in.cfg.WALDir, fmt.Sprintf("shard-%03d", p))
		s.ckptEvery = in.cfg.CheckpointEvery
		if _, err := os.Stat(s.dir); err == nil {
			return fmt.Errorf("stream: adopt partition %d: directory %s already exists", p, s.dir)
		}
	}
	if err := in.adoptTail(s, st, from); err != nil {
		if s.log != nil {
			s.log.Close()
		}
		if s.dir != "" {
			os.RemoveAll(s.dir)
		}
		return fmt.Errorf("stream: adopt partition %d: %w", p, err)
	}
	s.metrics.flush()

	shards := make([]*shard, 0, len(in.shards)+1)
	shards = append(shards, in.shards...)
	shards = append(shards, s)
	in.shards = shards
	in.rebuildTable()
	in.startShard(s)
	return nil
}

// adoptTail replays a shipped tail, whose first record is sequence
// from, into the adopting shard s; a durable s first gets its
// directory, checkpoint and log.
func (in *Ingester) adoptTail(s *shard, st *PartitionState, from uint64) error {
	if s.dir != "" {
		if err := os.MkdirAll(s.dir, 0o755); err != nil {
			return err
		}
		if len(st.Checkpoint) > 0 {
			if err := writeCheckpoint(s.fs, s.dir, st.Checkpoint); err != nil {
				return err
			}
		}
		opt := wal.Options{
			SegmentBytes: in.cfg.SegmentBytes,
			Sync:         in.cfg.Sync,
			Metrics:      wal.NewMetrics(in.cfg.Metrics, strconv.Itoa(st.Partition)),
			FS:           in.cfg.FS,
		}
		s.walOpt = opt
		opt.FirstSeq = from
		var err error
		if s.log, err = wal.Open(s.dir, opt); err != nil {
			return err
		}
	}
	var rec record
	for i, payload := range st.Tail {
		err := decodeRecord(payload, &rec)
		if err == nil {
			err = rec.validate()
		}
		if err == nil && s.log != nil {
			_, err = s.log.Append(payload)
		}
		if err != nil {
			return fmt.Errorf("shipped tail record %d: %w", i, err)
		}
		s.apply(rec)
		s.sinceCkpt++
	}
	if s.log == nil {
		return nil
	}
	s.lastSeq = s.log.NextSeq() - 1
	return s.log.Sync()
}
