package stream

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"dynaddr/internal/asdb"
	"dynaddr/internal/atlasdata"
	"dynaddr/internal/core"
	"dynaddr/internal/ip4"
	"dynaddr/internal/liveanalysis"
	"dynaddr/internal/simclock"
	"dynaddr/internal/stats"
)

// A checkpoint is one shard's full analysis state, serialized while the
// shard is quiescent (checkpointing runs in the shard goroutine between
// records) and written atomically: temp file, fsync, rename, directory
// sync. A crash mid-checkpoint therefore leaves the previous checkpoint
// intact. Floats round-trip exactly — encoding/json emits the shortest
// representation that parses back to the same float64, and totals are
// stored verbatim rather than re-accumulated — so a state restored from
// checkpoint + WAL replay is byte-identical to one that never crashed.

const (
	checkpointVersion = 1
	checkpointFile    = "checkpoint.json"
)

// shardCheckpoint is the on-disk checkpoint document.
type shardCheckpoint struct {
	Version int `json:"version"`
	Shard   int `json:"shard"`
	// Seq is the last WAL sequence the checkpoint covers; recovery
	// replays from Seq+1.
	Seq uint64 `json:"seq"`
	// Generation counts the shard's completed checkpoints — this document
	// is number Generation. The version stays at 1: old checkpoints
	// without the field restore generation 0, which only means the shard's
	// cache keys restart (they remain unique within the process).
	Generation   uint64           `json:"generation,omitempty"`
	Counts       RecordCounts     `json:"counts"`
	SessionsByAS map[uint32]int64 `json:"sessions_by_as,omitempty"`
	// Churn/ChurnOutside carry the shard's live-analysis churn table in
	// sparse form (non-empty day cells, ascending). Present only when
	// the ingester runs with Config.Analysis; like the per-probe
	// detector state, an old checkpoint without them restores an empty
	// table — a degradation, not an incompatibility.
	Churn        []liveanalysis.ChurnCell `json:"churn,omitempty"`
	ChurnOutside *core.PrefixChangeRow    `json:"churn_outside,omitempty"`
	Probes       []probeStateJSON         `json:"probes"`
}

// spanJSON, addrRunJSON and lossRunJSON mirror the unexported state
// structs field for field.
type spanJSON struct {
	From int64 `json:"from"`
	To   int64 `json:"to"`
}

type addrRunJSON struct {
	Active  bool   `json:"active,omitempty"`
	Bounded bool   `json:"bounded,omitempty"`
	Addr    uint32 `json:"addr,omitempty"`
	Start   int64  `json:"start,omitempty"`
	End     int64  `json:"end,omitempty"`
}

type lossRunJSON struct {
	Active   bool  `json:"active,omitempty"`
	Start    int64 `json:"start,omitempty"`
	End      int64 `json:"end,omitempty"`
	FirstLTS int64 `json:"first_lts,omitempty"`
	LastLTS  int64 `json:"last_lts,omitempty"`
	Rounds   int   `json:"rounds,omitempty"`
}

// probeStateJSON mirrors probeState exactly; every field the state
// machines read must round-trip, or recovery diverges from the
// uninterrupted run.
type probeStateJSON struct {
	ID   atlasdata.ProbeID    `json:"id"`
	Meta *atlasdata.ProbeMeta `json:"meta,omitempty"`

	MetaCount   int64 `json:"meta_count,omitempty"`
	ConnCount   int64 `json:"conn_count,omitempty"`
	KRootCount  int64 `json:"kroot_count,omitempty"`
	UptimeCount int64 `json:"uptime_count,omitempty"`

	RawEntries    int            `json:"raw_entries,omitempty"`
	V4Count       int            `json:"v4,omitempty"`
	V6Count       int            `json:"v6,omitempty"`
	ConnectedSecs int64          `json:"connected_secs,omitempty"`
	Sessions      int64          `json:"sessions,omitempty"`
	AllV4Single   bool           `json:"all_v4_single"`
	FirstV4Addr   uint32         `json:"first_v4,omitempty"`
	RunCount      map[uint32]int `json:"run_count,omitempty"`
	RunPrevAddr   uint32         `json:"run_prev,omitempty"`
	RunTotal      int            `json:"run_total,omitempty"`

	Stripped      bool        `json:"stripped,omitempty"`
	PrevSet       bool        `json:"prev_set,omitempty"`
	PrevIsV4      bool        `json:"prev_is_v4,omitempty"`
	PrevAddr      uint32      `json:"prev_addr,omitempty"`
	PrevEnd       int64       `json:"prev_end,omitempty"`
	LastConnStart int64       `json:"last_conn_start,omitempty"`
	LastConnEnd   int64       `json:"last_conn_end,omitempty"`
	Seg           addrRunJSON `json:"seg"`

	Changes int64           `json:"changes,omitempty"`
	TTF     *stats.Weighted `json:"ttf,omitempty"`

	HomeASN        uint32 `json:"home_asn,omitempty"`
	HomeConsistent bool   `json:"home_consistent"`
	MultiAS        bool   `json:"multi_as,omitempty"`

	HasGap        bool       `json:"has_gap,omitempty"`
	LastGap       spanJSON   `json:"last_gap"`
	LastGapLinked bool       `json:"last_gap_linked,omitempty"`
	OutageLinked  int64      `json:"outage_linked,omitempty"`
	RecentOutages []spanJSON `json:"recent_outages,omitempty"`
	RecentReboots []int64    `json:"recent_reboots,omitempty"`

	Loss           lossRunJSON `json:"loss"`
	NetworkOutages int64       `json:"network_outages,omitempty"`
	LastKRoot      int64       `json:"last_kroot,omitempty"`
	KRootSeen      bool        `json:"kroot_seen,omitempty"`

	UpSeen     bool  `json:"up_seen,omitempty"`
	PrevBoot   int64 `json:"prev_boot,omitempty"`
	LastUptime int64 `json:"last_uptime,omitempty"`
	Reboots    int64 `json:"reboots,omitempty"`

	Rejected int64 `json:"rejected,omitempty"`

	// An is the probe's live-analysis detector state, present only when
	// the ingester runs with Config.Analysis. The version stays at 1:
	// an old checkpoint without this field restores an empty detector
	// (the analysis then covers only post-upgrade records), and an
	// analysis-off ingester ignores the field — both are degradations,
	// not incompatibilities.
	An *detectorJSON `json:"analysis,omitempty"`
}

// detectorJSON mirrors liveanalysis.Detector's exported fields. The
// core event types marshal through their exported fields (simclock
// times are integers, hours are float64s that round-trip exactly, and
// the churn cells are an ordered slice), so the document stays
// deterministic for the recovery byte-equality tests.
type detectorJSON struct {
	RawHours   []float64               `json:"raw_hours,omitempty"`
	Gaps       []liveanalysis.GapEvent `json:"gaps,omitempty"`
	Networks   []core.NetworkOutage    `json:"networks,omitempty"`
	Reboots    []core.Reboot           `json:"reboots,omitempty"`
	RebootGaps []core.RebootGap        `json:"reboot_gaps,omitempty"`
	Prefix     core.PrefixChangeRow    `json:"prefix"`
	Rounds     []simclock.Time         `json:"rounds,omitempty"`
	LastUptime simclock.Time           `json:"last_uptime,omitempty"`
}

func marshalProbeState(ps *probeState) probeStateJSON {
	j := probeStateJSON{
		ID: ps.id,

		MetaCount:   ps.metaCount,
		ConnCount:   ps.connCount,
		KRootCount:  ps.kRootCount,
		UptimeCount: ps.uptimeCount,

		RawEntries:    ps.rawEntries,
		V4Count:       ps.v4Count,
		V6Count:       ps.v6Count,
		ConnectedSecs: ps.connectedSecs,
		Sessions:      ps.sessions,
		AllV4Single:   ps.allV4Single,
		FirstV4Addr:   uint32(ps.firstV4Addr),
		RunPrevAddr:   ps.runPrevAddr,
		RunTotal:      ps.runTotal,

		Stripped:      ps.stripped,
		PrevSet:       ps.prevSet,
		PrevIsV4:      ps.prevIsV4,
		PrevAddr:      uint32(ps.prevAddr),
		PrevEnd:       int64(ps.prevEnd),
		LastConnStart: int64(ps.lastConnStart),
		LastConnEnd:   int64(ps.lastConnEnd),
		Seg: addrRunJSON{
			Active:  ps.seg.active,
			Bounded: ps.seg.bounded,
			Addr:    uint32(ps.seg.addr),
			Start:   int64(ps.seg.start),
			End:     int64(ps.seg.end),
		},

		Changes: ps.changes,

		HomeASN:        uint32(ps.homeASN),
		HomeConsistent: ps.homeConsistent,
		MultiAS:        ps.multiAS,

		HasGap:        ps.hasGap,
		LastGap:       spanJSON{From: int64(ps.lastGap.from), To: int64(ps.lastGap.to)},
		LastGapLinked: ps.lastGapLinked,
		OutageLinked:  ps.outageLinked,

		Loss: lossRunJSON{
			Active:   ps.loss.active,
			Start:    int64(ps.loss.start),
			End:      int64(ps.loss.end),
			FirstLTS: ps.loss.firstLTS,
			LastLTS:  ps.loss.lastLTS,
			Rounds:   ps.loss.rounds,
		},
		NetworkOutages: ps.networkOutages,
		LastKRoot:      int64(ps.lastKRoot),
		KRootSeen:      ps.kRootSeen,

		UpSeen:     ps.upSeen,
		PrevBoot:   int64(ps.prevBoot),
		LastUptime: int64(ps.lastUptime),
		Reboots:    ps.reboots,

		Rejected: ps.rejected,
	}
	if ps.hasMeta {
		m := ps.meta
		j.Meta = &m
	}
	if len(ps.runCount) > 0 {
		j.RunCount = ps.runCount
	}
	if ps.ttf.Len() > 0 {
		j.TTF = &ps.ttf
	}
	for _, o := range ps.recentOutages {
		j.RecentOutages = append(j.RecentOutages, spanJSON{From: int64(o.from), To: int64(o.to)})
	}
	for _, t := range ps.recentReboots {
		j.RecentReboots = append(j.RecentReboots, int64(t))
	}
	if det := ps.det; det != nil {
		j.An = &detectorJSON{
			RawHours:   det.RawHours,
			Gaps:       det.Gaps,
			Networks:   det.Networks,
			Reboots:    det.Reboots,
			RebootGaps: det.RebootGaps,
			Prefix:     det.Prefix,
			Rounds:     det.Rounds,
			LastUptime: det.LastUptime,
		}
	}
	return j
}

func unmarshalProbeState(j probeStateJSON, churn *liveanalysis.ChurnTable) *probeState {
	ps := newProbeState(j.ID, churn)
	if j.Meta != nil {
		ps.setMeta(*j.Meta)
	}
	ps.metaCount = j.MetaCount
	ps.connCount = j.ConnCount
	ps.kRootCount = j.KRootCount
	ps.uptimeCount = j.UptimeCount

	ps.rawEntries = j.RawEntries
	ps.v4Count = j.V4Count
	ps.v6Count = j.V6Count
	ps.connectedSecs = j.ConnectedSecs
	ps.sessions = j.Sessions
	ps.allV4Single = j.AllV4Single
	ps.firstV4Addr = ip4.Addr(j.FirstV4Addr)
	if j.RunCount != nil {
		ps.runCount = j.RunCount
	}
	ps.runPrevAddr = j.RunPrevAddr
	ps.runTotal = j.RunTotal

	ps.stripped = j.Stripped
	ps.prevSet = j.PrevSet
	ps.prevIsV4 = j.PrevIsV4
	ps.prevAddr = ip4.Addr(j.PrevAddr)
	ps.prevEnd = simclock.Time(j.PrevEnd)
	ps.lastConnStart = simclock.Time(j.LastConnStart)
	ps.lastConnEnd = simclock.Time(j.LastConnEnd)
	ps.seg = addrRun{
		active:  j.Seg.Active,
		bounded: j.Seg.Bounded,
		addr:    ip4.Addr(j.Seg.Addr),
		start:   simclock.Time(j.Seg.Start),
		end:     simclock.Time(j.Seg.End),
	}

	ps.changes = j.Changes
	if j.TTF != nil {
		ps.ttf = *j.TTF
	}

	ps.homeASN = asdb.ASN(j.HomeASN)
	ps.homeConsistent = j.HomeConsistent
	ps.multiAS = j.MultiAS

	ps.hasGap = j.HasGap
	ps.lastGap = span{from: simclock.Time(j.LastGap.From), to: simclock.Time(j.LastGap.To)}
	ps.lastGapLinked = j.LastGapLinked
	ps.outageLinked = j.OutageLinked
	for _, o := range j.RecentOutages {
		ps.recentOutages = append(ps.recentOutages, span{from: simclock.Time(o.From), to: simclock.Time(o.To)})
	}
	for _, t := range j.RecentReboots {
		ps.recentReboots = append(ps.recentReboots, simclock.Time(t))
	}

	ps.loss = lossRun{
		active:   j.Loss.Active,
		start:    simclock.Time(j.Loss.Start),
		end:      simclock.Time(j.Loss.End),
		firstLTS: j.Loss.FirstLTS,
		lastLTS:  j.Loss.LastLTS,
		rounds:   j.Loss.Rounds,
	}
	ps.networkOutages = j.NetworkOutages
	ps.lastKRoot = simclock.Time(j.LastKRoot)
	ps.kRootSeen = j.KRootSeen

	ps.upSeen = j.UpSeen
	ps.prevBoot = simclock.Time(j.PrevBoot)
	ps.lastUptime = simclock.Time(j.LastUptime)
	ps.reboots = j.Reboots

	ps.rejected = j.Rejected

	if ps.det != nil && j.An != nil {
		det := ps.det
		det.RawHours = j.An.RawHours
		det.Gaps = j.An.Gaps
		det.Networks = j.An.Networks
		det.Reboots = j.An.Reboots
		det.RebootGaps = j.An.RebootGaps
		det.Prefix = j.An.Prefix
		det.Rounds = j.An.Rounds
		det.LastUptime = j.An.LastUptime
		det.Restore()
	}
	return ps
}

// buildCheckpoint serializes the shard's current state under the last
// appended sequence. Runs in the shard goroutine, so the state is
// quiescent.
func (s *shard) buildCheckpoint() *shardCheckpoint {
	ck := &shardCheckpoint{
		Version:    checkpointVersion,
		Shard:      s.index,
		Seq:        s.lastSeq,
		Generation: s.gen,
		Counts:     s.counts,
	}
	if len(s.sessionsByAS) > 0 {
		ck.SessionsByAS = make(map[uint32]int64, len(s.sessionsByAS))
		for asn, n := range s.sessionsByAS {
			ck.SessionsByAS[asn] = n
		}
	}
	if s.churn != nil {
		ck.Churn = s.churn.Cells()
		outside := s.churn.Outside()
		ck.ChurnOutside = &outside
	}
	ids := make([]atlasdata.ProbeID, 0, len(s.states))
	for id := range s.states {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	ck.Probes = make([]probeStateJSON, 0, len(ids))
	for _, id := range ids {
		ck.Probes = append(ck.Probes, marshalProbeState(s.states[id]))
	}
	return ck
}

// restoreCheckpoint loads a checkpoint document into a freshly
// allocated shard (before its goroutine starts).
func (s *shard) restoreCheckpoint(ck *shardCheckpoint) error {
	if err := ck.check(); err != nil {
		return err
	}
	s.counts = ck.Counts
	s.gen = ck.Generation
	for asn, n := range ck.SessionsByAS {
		s.sessionsByAS[asn] = n
	}
	if s.churn != nil {
		var outside core.PrefixChangeRow
		if ck.ChurnOutside != nil {
			outside = *ck.ChurnOutside
		}
		if err := s.churn.Restore(ck.Churn, outside); err != nil {
			return err
		}
	}
	for _, j := range ck.Probes {
		s.states[j.ID] = unmarshalProbeState(j, s.churn)
	}
	return nil
}

// check refuses a checkpoint the state machines cannot run from:
// negative counters, probes repeated or out of order, metadata filed
// under another probe, evidence rings over their size, and reboot
// lists that disagree in length. Checkpoints are read from disk and,
// in AdoptPartition, from the network, so these are input errors.
func (ck *shardCheckpoint) check() error {
	c := ck.Counts
	if err := nonNegative("record", c.Meta, c.ConnLogs, c.KRoot, c.Uptime, c.Rejected); err != nil {
		return fmt.Errorf("stream: checkpoint: %w", err)
	}
	for asn, n := range ck.SessionsByAS {
		if n < 0 {
			return fmt.Errorf("stream: checkpoint: negative session count for AS%d", asn)
		}
	}
	for _, cell := range ck.Churn {
		if err := nonNegativeRow(cell.Row); err != nil {
			return fmt.Errorf("stream: checkpoint: churn day %d: %w", cell.Day, err)
		}
	}
	if ck.ChurnOutside != nil {
		if err := nonNegativeRow(*ck.ChurnOutside); err != nil {
			return fmt.Errorf("stream: checkpoint: churn outside the study: %w", err)
		}
	}
	for i := range ck.Probes {
		j := &ck.Probes[i]
		if i > 0 && j.ID <= ck.Probes[i-1].ID {
			return fmt.Errorf("stream: checkpoint: probe %d out of order", j.ID)
		}
		if err := j.check(); err != nil {
			return fmt.Errorf("stream: checkpoint: probe %d: %w", j.ID, err)
		}
	}
	return nil
}

func (j *probeStateJSON) check() error {
	if j.Meta != nil && j.Meta.ID != j.ID {
		return fmt.Errorf("metadata of probe %d", j.Meta.ID)
	}
	if err := nonNegative("state", j.MetaCount, j.ConnCount, j.KRootCount, j.UptimeCount,
		int64(j.RawEntries), int64(j.V4Count), int64(j.V6Count), j.ConnectedSecs, j.Sessions,
		int64(j.RunTotal), j.Changes, j.OutageLinked, j.NetworkOutages, j.Reboots, j.Rejected,
		int64(j.Loss.Rounds)); err != nil {
		return err
	}
	for addr, n := range j.RunCount {
		if n < 0 {
			return fmt.Errorf("negative run count for %v", ip4.Addr(addr))
		}
	}
	if len(j.RecentOutages) > recentEvidence || len(j.RecentReboots) > recentEvidence {
		return fmt.Errorf("%d recent outages and %d recent reboots, at most %d each",
			len(j.RecentOutages), len(j.RecentReboots), recentEvidence)
	}
	if an := j.An; an != nil {
		if len(an.Reboots) != len(an.RebootGaps) {
			return fmt.Errorf("%d reboots but %d reboot gaps", len(an.Reboots), len(an.RebootGaps))
		}
		if err := nonNegativeRow(an.Prefix); err != nil {
			return err
		}
	}
	return nil
}

func nonNegative(what string, ns ...int64) error {
	for _, n := range ns {
		if n < 0 {
			return fmt.Errorf("negative %s counter %d", what, n)
		}
	}
	return nil
}

func nonNegativeRow(r core.PrefixChangeRow) error {
	return nonNegative("prefix-change", int64(r.Changes), int64(r.DiffBGP), int64(r.DiffS16), int64(r.DiffS8), int64(r.Unrouted))
}

// writeCheckpoint atomically replaces dir's checkpoint file.
func writeCheckpoint(dir string, ck *shardCheckpoint) error {
	data, err := json.Marshal(ck)
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, checkpointFile+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, checkpointFile)); err != nil {
		return err
	}
	return syncDir(dir)
}

// loadCheckpoint reads dir's checkpoint; a missing file is (nil, nil) —
// the shard simply starts empty and replays its whole WAL.
func loadCheckpoint(dir string) (*shardCheckpoint, error) {
	data, err := os.ReadFile(filepath.Join(dir, checkpointFile))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	ck := &shardCheckpoint{}
	if err := json.Unmarshal(data, ck); err != nil {
		return nil, fmt.Errorf("stream: corrupt checkpoint in %s: %w", dir, err)
	}
	if ck.Version != checkpointVersion {
		return nil, fmt.Errorf("stream: checkpoint version %d in %s, want %d", ck.Version, dir, checkpointVersion)
	}
	return ck, nil
}

// syncDir fsyncs a directory so renames and removals survive a crash;
// failure is tolerated (directory fsync is advisory on some systems).
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}
