package stream

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"

	"dynaddr/internal/asdb"
	"dynaddr/internal/atlasdata"
	"dynaddr/internal/core"
	"dynaddr/internal/ip4"
	"dynaddr/internal/simclock"
	"dynaddr/internal/wire"
)

// A checkpoint is one shard's full analysis state. The shard goroutine
// encodes it between records, into a buffer it reuses, and the shard's
// checkpoint writer writes it atomically (ckptwriter.go): temp file,
// fsync, rename, directory sync. A crash mid-write therefore leaves the
// previous checkpoint intact. The encoding is internal/wire frames
// (CRC32C each) in the peer views' idiom (viewcodec.go), whose event
// list encoders it shares:
//
//	header frame  'C', partition, last WAL sequence covered, generation,
//	              record counts, sessions by AS, an analysis flag and,
//	              when set, the churn table's non-empty days and its
//	              outside-the-study row, then the number of probe frames
//	probe frames  one per probe state, in ascending probe ID order
//
// Counters are uvarints, times zigzag varints, and floats their bits
// verbatim; totals are stored rather than re-accumulated. A state
// restored from checkpoint + WAL replay is therefore byte-identical to
// one that never crashed. Every value has exactly one encoding, so a
// checkpoint that decodes re-encodes to the same bytes.
//
// The decoder is the validator. Checkpoints are read from disk and, in
// AdoptPartition, from the network, so it refuses whatever the
// machines cannot run from: counters out of range (negative ones
// included), probes repeated or out of order, metadata that is invalid
// or filed under another probe, evidence rings over their size, the two
// copies of a probe's entry count or its reboot lists disagreeing, and
// churn days out of order or outside the study. Every count is checked against the bytes left before
// anything is allocated.

const (
	checkpointFile      = "checkpoint.bin"
	checkpointTag  byte = 'C'
	// ckAnalysis marks a checkpoint of an analysis shard: the header
	// carries the churn table and every probe frame its event lists.
	ckAnalysis byte = 1
)

// Flag bits of a probe-state frame: the machine's booleans, plus psTTF
// for a non-empty duration distribution.
const (
	psHasMeta uint64 = 1 << iota
	psAllV4Single
	psStripped
	psPrevSet
	psPrevIsV4
	psSegActive
	psSegBounded
	psHomeConsistent
	psMultiAS
	psHasGap
	psLastGapLinked
	psLossActive
	psKRootSeen
	psUpSeen
	psTTF
	psFlags = 1<<iota - 1
)

// Lower bounds on encoded sizes, which cap counts before allocation.
const (
	minProbeStateFrame = wire.FrameHeaderSize + 40 // one byte per scalar field
	minRunCount        = 2
	minGapEvent        = 3
	minSpan            = 2
)

// checkpointHead is a checkpoint's header frame. The shard refills the
// one it keeps for every checkpoint, so the slices are reused.
type checkpointHead struct {
	partition int
	seq, gen  uint64
	counts    RecordCounts
	sessions  []asSessions // ascending ASN
	analysis  bool
	churn     []core.ChurnCell
	outside   core.PrefixChangeRow
	probes    int
}

type asSessions struct {
	asn uint32
	n   int64
}

// appendCheckpoint appends the shard's checkpoint, under generation
// gen, to dst. It runs on the shard goroutine (or on a stopped shard)
// and allocates only when dst or the shard's scratch slices grow.
func (s *shard) appendCheckpoint(dst []byte, gen uint64) ([]byte, error) {
	h := &s.ckHead
	*h = checkpointHead{
		partition: s.index,
		seq:       s.lastSeq,
		gen:       gen,
		counts:    s.counts,
		sessions:  h.sessions[:0],
		analysis:  s.churn != nil,
		churn:     h.churn[:0],
		probes:    len(s.states),
	}
	for asn, n := range s.sessionsByAS {
		h.sessions = append(h.sessions, asSessions{asn, n})
	}
	slices.SortFunc(h.sessions, func(a, b asSessions) int { return cmp.Compare(a.asn, b.asn) })
	if s.churn != nil {
		h.churn = s.churn.AppendCells(h.churn)
		h.outside = s.churn.Outside()
	}
	dst = appendCheckpointHead(dst, h)

	ids := s.ckIDs[:0]
	for id := range s.states {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	s.ckIDs = ids
	var prev atlasdata.ProbeID
	for _, id := range ids {
		var err error
		if dst, err = s.appendProbeState(dst, s.states[id], prev); err != nil {
			return dst, fmt.Errorf("stream: checkpoint probe %d: %w", id, err)
		}
		prev = id
	}
	return dst, nil
}

func appendCheckpointHead(dst []byte, h *checkpointHead) []byte {
	dst, start := beginFrame(dst)
	dst = append(dst, checkpointTag)
	dst = binary.AppendUvarint(dst, uint64(h.partition))
	dst = binary.AppendUvarint(dst, h.seq)
	dst = binary.AppendUvarint(dst, h.gen)
	c := h.counts
	for _, n := range [...]int64{c.Meta, c.ConnLogs, c.KRoot, c.Uptime, c.Rejected} {
		dst = binary.AppendUvarint(dst, uint64(n))
	}
	dst = binary.AppendUvarint(dst, uint64(len(h.sessions)))
	for _, as := range h.sessions {
		dst = binary.AppendUvarint(dst, uint64(as.asn))
		dst = binary.AppendUvarint(dst, uint64(as.n))
	}
	if !h.analysis {
		dst = append(dst, 0)
	} else {
		dst = append(dst, ckAnalysis)
		dst = binary.AppendUvarint(dst, uint64(len(h.churn)))
		for _, cell := range h.churn {
			dst = binary.AppendUvarint(dst, uint64(cell.Day))
			dst = appendPrefixRow(dst, cell.Row)
		}
		dst = appendPrefixRow(dst, h.outside)
	}
	dst = binary.AppendUvarint(dst, uint64(h.probes))
	return endFrame(dst, start)
}

// appendProbeState appends one probe-state frame; prev is the previous
// frame's probe ID (zero for the first).
func (s *shard) appendProbeState(dst []byte, ps *probeState, prev atlasdata.ProbeID) ([]byte, error) {
	m := &ps.m
	dst, start := beginFrame(dst)
	dst = binary.AppendVarint(dst, int64(m.Probe-prev))
	var flags uint64
	for bit, on := range [...]bool{ps.hasMeta, !m.MixedAddrs, m.Stripped, m.PrevSet, m.PrevIsV4,
		m.Seg.Active, m.Seg.Bounded, !m.HomeConflict, m.MultiAS, m.HasGap, m.LastGapLinked,
		m.Loss.Active, m.KRootSeen, m.UpSeen, m.TTF.Len() > 0} {
		if on {
			flags |= 1 << bit
		}
	}
	dst = binary.AppendUvarint(dst, flags)
	if ps.hasMeta {
		// The metadata travels as its wire record payload, length first.
		meta, err := wire.AppendMeta(s.ckMeta[:0], ps.meta)
		if err != nil {
			return dst, err
		}
		s.ckMeta = meta
		dst = binary.AppendUvarint(dst, uint64(len(meta)))
		dst = append(dst, meta...)
	}
	// The entry count is stored twice, as entries and as sessions.
	for _, n := range [...]int64{ps.metaCount, ps.connCount, ps.kRootCount, ps.uptimeCount,
		int64(m.RawEntries), int64(m.V4Count), int64(m.V6Count), m.ConnectedSecs, int64(m.RawEntries)} {
		dst = binary.AppendUvarint(dst, uint64(n))
	}
	dst = binary.AppendUvarint(dst, uint64(m.FirstV4Addr))

	keys := s.ckKeys[:0]
	for addr := range m.RunCount {
		keys = append(keys, addr)
	}
	slices.Sort(keys)
	s.ckKeys = keys
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, addr := range keys {
		dst = binary.AppendUvarint(dst, uint64(addr))
		dst = binary.AppendUvarint(dst, uint64(m.RunCount[addr]))
	}
	dst = binary.AppendUvarint(dst, uint64(m.RunPrevAddr))
	dst = binary.AppendUvarint(dst, uint64(m.RunTotal))

	dst = binary.AppendUvarint(dst, uint64(m.PrevAddr))
	for _, t := range [...]simclock.Time{m.PrevEnd, m.LastConnStart, m.LastConnEnd} {
		dst = binary.AppendVarint(dst, int64(t))
	}
	dst = binary.AppendUvarint(dst, uint64(m.Seg.Addr))
	dst = binary.AppendVarint(dst, int64(m.Seg.Start))
	dst = binary.AppendVarint(dst, int64(m.Seg.End))

	dst = binary.AppendUvarint(dst, uint64(m.Changes))
	if m.TTF.Len() > 0 {
		dst = m.TTF.AppendBinary(dst)
	}
	dst = binary.AppendUvarint(dst, uint64(m.HomeASN))

	dst = binary.AppendVarint(dst, int64(m.LastGap.From))
	dst = binary.AppendVarint(dst, int64(m.LastGap.To))
	dst = binary.AppendUvarint(dst, uint64(m.OutageLinked))
	dst = binary.AppendUvarint(dst, uint64(len(m.RecentOutages)))
	var t simclock.Time
	for _, o := range m.RecentOutages {
		dst = binary.AppendVarint(dst, int64(o.From-t))
		dst = binary.AppendVarint(dst, int64(o.To-o.From))
		t = o.From
	}
	dst = appendTimes(dst, m.RecentReboots)

	dst = binary.AppendVarint(dst, int64(m.Loss.Start))
	dst = binary.AppendVarint(dst, int64(m.Loss.End))
	dst = binary.AppendVarint(dst, m.Loss.FirstLTS)
	dst = binary.AppendVarint(dst, m.Loss.LastLTS)
	dst = binary.AppendUvarint(dst, uint64(m.Loss.Rounds))
	dst = binary.AppendUvarint(dst, uint64(m.NetworkCount))
	dst = binary.AppendVarint(dst, int64(m.LastKRoot))

	dst = binary.AppendVarint(dst, int64(m.PrevBoot))
	dst = binary.AppendVarint(dst, int64(m.LastUptime))
	dst = binary.AppendUvarint(dst, uint64(m.RebootCount))
	dst = binary.AppendUvarint(dst, uint64(ps.rejected))

	if s.churn != nil {
		dst = appendRawHours(dst, m.RawHours)
		dst = binary.AppendUvarint(dst, uint64(len(m.Gaps)))
		t = 0
		for _, g := range m.Gaps {
			dst = binary.AppendVarint(dst, int64(g.PrevEnd-t))
			dst = binary.AppendVarint(dst, int64(g.NextStart-g.PrevEnd))
			t = g.NextStart
			var gf byte
			if g.Changed {
				gf = gapChanged
			}
			dst = append(dst, gf)
		}
		dst = appendNetworks(dst, m.Probe, m.Networks)
		dst = appendReboots(dst, m.Probe, m.Reboots)
		dst = appendRebootGaps(dst, m.RebootGaps)
		dst = appendPrefixRow(dst, m.Prefix)
		dst = appendTimes(dst, m.Rounds)
		dst = binary.AppendVarint(dst, int64(m.Watermark))
	}
	return endFrame(dst, start), nil
}

// appendTimes appends a time list, each time a delta from the previous.
func appendTimes(dst []byte, ts []simclock.Time) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ts)))
	var t simclock.Time
	for _, x := range ts {
		dst = binary.AppendVarint(dst, int64(x-t))
		t = x
	}
	return dst
}

// readCheckpointHead decodes a checkpoint's header frame, leaving it
// at the first probe frame.
func readCheckpointHead(it *wire.FrameIter, size int) (checkpointHead, error) {
	var h checkpointHead
	r, err := nextFrame(it, "checkpoint")
	if err != nil {
		return h, err
	}
	if tag := r.byte(); r.err == nil && tag != checkpointTag {
		return h, fmt.Errorf("stream: checkpoint header tag %q, want %q", tag, checkpointTag)
	}
	h.partition = int(r.counter())
	h.seq = r.uvarint()
	h.gen = r.uvarint()
	c := &h.counts
	for _, n := range [...]*int64{&c.Meta, &c.ConnLogs, &c.KRoot, &c.Uptime, &c.Rejected} {
		*n = r.counter()
	}
	if n := r.count(minSessionsByAS); n > 0 {
		h.sessions = make([]asSessions, n)
		for i := range h.sessions {
			h.sessions[i] = asSessions{asn: r.u32(), n: r.counter()}
			if i > 0 && h.sessions[i].asn <= h.sessions[i-1].asn {
				r.fail(fmt.Errorf("sessions by AS not ascending at AS%d", h.sessions[i].asn))
			}
		}
	}
	h.analysis = r.flags(ckAnalysis) != 0
	if h.analysis {
		if n := r.count(minChurnRow); n > 0 {
			h.churn = make([]core.ChurnCell, n)
			for i := range h.churn {
				cell := &h.churn[i]
				cell.Day = int(r.counter())
				cell.Row = r.prefixRow()
				if err := nonNegativeRow(cell.Row); err != nil {
					r.fail(fmt.Errorf("churn day %d: %w", cell.Day, err))
				}
			}
		}
		h.outside = r.prefixRow()
		if err := nonNegativeRow(h.outside); err != nil {
			r.fail(fmt.Errorf("churn outside the study: %w", err))
		}
	}
	h.probes = r.frameCount(size-it.Offset(), minProbeStateFrame)
	return h, r.done("checkpoint header frame", 0)
}

// restoreCheckpoint decodes and validates a checkpoint into a freshly
// allocated shard (before its goroutine starts) and returns the last
// WAL sequence it covers and the number of probe states it held. A
// checkpoint of an analysis shard restores into an analysis-off one
// without its analysis state, and the reverse with empty event lists —
// degradations, not incompatibilities. On error the shard is half
// restored and must be discarded.
func (s *shard) restoreCheckpoint(b []byte) (seq uint64, probes int, err error) {
	it := wire.Frames(b)
	h, err := readCheckpointHead(&it, len(b))
	if err != nil {
		return 0, 0, err
	}
	if h.partition != s.index {
		return 0, 0, fmt.Errorf("stream: checkpoint of partition %d, restoring partition %d", h.partition, s.index)
	}
	var prev atlasdata.ProbeID
	for i := 0; i < h.probes; i++ {
		r, err := nextFrame(&it, "checkpoint")
		if err != nil {
			return 0, 0, err
		}
		ps := s.decodeProbeState(&r, prev, h.analysis)
		if i > 0 && r.err == nil && ps.m.Probe <= prev {
			r.fail(fmt.Errorf("probe %d out of order", ps.m.Probe))
		}
		if err := r.done("checkpoint probe frame", i); err != nil {
			return 0, 0, err
		}
		s.states[ps.m.Probe] = ps
		prev = ps.m.Probe
	}
	if err := endOfFrames(&it, "checkpoint"); err != nil {
		return 0, 0, err
	}

	s.counts = h.counts
	s.gen = h.gen
	for _, as := range h.sessions {
		s.sessionsByAS[as.asn] = as.n
	}
	if s.churn != nil {
		if err := s.churn.Restore(h.churn, h.outside); err != nil {
			return 0, 0, fmt.Errorf("stream: checkpoint: %w", err)
		}
	}
	return h.seq, h.probes, nil
}

// decodeProbeState decodes one probe-state frame; the caller checks
// r.err.
func (s *shard) decodeProbeState(r *viewReader, prev atlasdata.ProbeID, analysis bool) *probeState {
	ps := newProbeState(prev+atlasdata.ProbeID(r.int()), s.churn != nil)
	m := &ps.m
	flags := r.uvarint()
	if flags&^psFlags != 0 {
		r.fail(fmt.Errorf("unknown flag bits %#x", flags&^psFlags))
	}
	on := func(bit uint64) bool { return flags&bit != 0 }
	if on(psHasMeta) {
		meta, err := decodeMeta(r.bytes(r.count(1)))
		switch {
		case err != nil:
			r.fail(err)
		case meta.ID != m.Probe:
			r.fail(fmt.Errorf("metadata of probe %d", meta.ID))
		default:
			ps.setMeta(meta)
		}
	}
	for _, n := range [...]*int64{&ps.metaCount, &ps.connCount, &ps.kRootCount, &ps.uptimeCount} {
		*n = r.counter()
	}
	for _, n := range [...]*int{&m.RawEntries, &m.V4Count, &m.V6Count} {
		*n = int(r.counter())
	}
	m.ConnectedSecs = r.counter()
	if sessions := r.counter(); sessions != int64(m.RawEntries) {
		r.fail(fmt.Errorf("%d sessions but %d entries", sessions, m.RawEntries))
	}
	m.MixedAddrs = !on(psAllV4Single)
	m.FirstV4Addr = ip4.Addr(r.u32())

	if n := r.count(minRunCount); n > 0 {
		m.RunCount = make(map[uint32]int, n)
		var last uint32
		for i := 0; i < n; i++ {
			addr := r.u32()
			if i > 0 && addr <= last {
				r.fail(fmt.Errorf("run counts not ascending at %v", ip4.Addr(addr)))
			}
			last = addr
			m.RunCount[addr] = int(r.counter())
		}
	}
	m.RunPrevAddr = r.u32()
	m.RunTotal = int(r.counter())

	m.Stripped = on(psStripped)
	m.PrevSet = on(psPrevSet)
	m.PrevIsV4 = on(psPrevIsV4)
	m.PrevAddr = ip4.Addr(r.u32())
	m.PrevEnd = r.time()
	m.LastConnStart = r.time()
	m.LastConnEnd = r.time()
	m.Seg = core.AddrRun{Active: on(psSegActive), Bounded: on(psSegBounded), Addr: ip4.Addr(r.u32()), Start: r.time(), End: r.time()}

	m.Changes = r.counter()
	if on(psTTF) && r.err == nil {
		rest, err := m.TTF.DecodeBinary(r.b)
		switch {
		case err != nil:
			r.fail(err)
		case m.TTF.Len() == 0:
			r.fail(fmt.Errorf("empty duration distribution flagged"))
		default:
			r.b = rest
		}
	}
	m.HomeASN = asdb.ASN(r.u32())
	m.HomeConflict = !on(psHomeConsistent)
	m.MultiAS = on(psMultiAS)

	m.HasGap = on(psHasGap)
	m.LastGap = core.Span{From: r.time(), To: r.time()}
	m.LastGapLinked = on(psLastGapLinked)
	m.OutageLinked = r.counter()
	if n := r.evidence(minSpan); n > 0 {
		m.RecentOutages = make([]core.Span, n)
		var t simclock.Time
		for i := range m.RecentOutages {
			o := &m.RecentOutages[i]
			o.From = t + r.time()
			o.To = o.From + r.time()
			t = o.From
		}
	}
	m.RecentReboots = r.times(r.evidence(1))

	m.Loss = core.LossRun{Active: on(psLossActive), Start: r.time(), End: r.time(), FirstLTS: r.varint(), LastLTS: r.varint(), Rounds: int(r.counter())}
	m.NetworkCount = r.counter()
	m.LastKRoot = r.time()
	m.KRootSeen = on(psKRootSeen)

	m.UpSeen = on(psUpSeen)
	m.PrevBoot = r.time()
	m.LastUptime = r.time()
	m.RebootCount = r.counter()
	ps.rejected = r.counter()

	if !analysis {
		return ps
	}
	// An analysis-off shard decodes the event lists only to validate
	// them, into a machine it then drops.
	ev := m
	if !m.KeepEvents {
		ev = &core.Machine{}
	}
	ev.RawHours = r.rawHours()
	if n := r.count(minGapEvent); n > 0 {
		ev.Gaps = make([]core.GapEvent, n)
		var t simclock.Time
		for i := range ev.Gaps {
			g := &ev.Gaps[i]
			g.PrevEnd = t + r.time()
			g.NextStart = g.PrevEnd + r.time()
			t = g.NextStart
			g.Changed = r.flags(gapChanged) != 0
		}
	}
	ev.Networks = r.networks(m.Probe)
	ev.Reboots = r.reboots(m.Probe)
	ev.RebootGaps = r.rebootGaps()
	if len(ev.Reboots) != len(ev.RebootGaps) && r.err == nil {
		r.fail(fmt.Errorf("%d reboots but %d reboot gaps", len(ev.Reboots), len(ev.RebootGaps)))
	}
	ev.Prefix = r.prefixRow()
	if err := nonNegativeRow(ev.Prefix); err != nil {
		r.fail(err)
	}
	ev.Rounds = r.times(r.count(1))
	ev.Watermark = r.time()
	ev.Restore()
	return ps
}

// decodeMeta decodes a probe's metadata record payload and validates
// it as ingest does.
func decodeMeta(payload []byte) (atlasdata.ProbeMeta, error) {
	if kind, err := wire.PayloadKind(payload); err != nil || kind != wire.KindMeta {
		return atlasdata.ProbeMeta{}, fmt.Errorf("metadata payload is not a meta record")
	}
	m, err := wire.DecodeMeta(payload)
	if err == nil {
		err = m.Validate()
	}
	return m, err
}

func nonNegativeRow(r core.PrefixChangeRow) error {
	for _, n := range [...]int{r.Changes, r.DiffBGP, r.DiffS16, r.DiffS8, r.Unrouted} {
		if n < 0 {
			return fmt.Errorf("negative prefix-change counter %d", n)
		}
	}
	return nil
}

// counter reads a non-negative count: a uvarint no larger than
// math.MaxInt64 (a negative counter, written as its two's complement,
// fails here).
func (r *viewReader) counter() int64 {
	v := r.uvarint()
	if v > math.MaxInt64 {
		r.fail(fmt.Errorf("counter %d out of range", v))
		return 0
	}
	return int64(v)
}

func (r *viewReader) time() simclock.Time { return simclock.Time(r.varint()) }

// evidence reads the length of a recent-evidence ring, at most
// core.RecentEvidence.
func (r *viewReader) evidence(min int) int {
	n := r.count(min)
	if n > core.RecentEvidence {
		r.fail(fmt.Errorf("%d recent outage or reboot entries, at most %d", n, core.RecentEvidence))
		return 0
	}
	return n
}

// times reads n delta-coded times (appendTimes after its count).
func (r *viewReader) times(n int) []simclock.Time {
	if n == 0 {
		return nil
	}
	ts := make([]simclock.Time, n)
	var t simclock.Time
	for i := range ts {
		t += r.time()
		ts[i] = t
	}
	return ts
}

func (r *viewReader) bytes(n int) []byte {
	b := r.b[:n]
	r.b = r.b[n:]
	return b
}

// loadCheckpoint reads dir's checkpoint; a missing file is (nil, nil):
// the shard then starts empty and replays its whole WAL.
func loadCheckpoint(dir string) ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(dir, checkpointFile))
	if os.IsNotExist(err) {
		return nil, nil
	}
	return data, err
}

// checkpointSeq returns the last WAL sequence a checkpoint covers.
func checkpointSeq(b []byte) (uint64, error) {
	it := wire.Frames(b)
	h, err := readCheckpointHead(&it, len(b))
	return h.seq, err
}
