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
	"dynaddr/internal/liveanalysis"
	"dynaddr/internal/simclock"
	"dynaddr/internal/wire"
)

// A checkpoint is one shard's full analysis state. The shard goroutine
// encodes it between records, into a buffer it reuses, and the shard's
// checkpoint writer writes it atomically (ckptwriter.go): temp file,
// fsync, rename, directory sync. A crash mid-write therefore leaves the
// previous checkpoint intact. The encoding is internal/wire frames
// (CRC32C each) in the peer views' idiom (viewcodec.go), whose detector
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
// AdoptPartition, from the network, so it refuses whatever the state
// machines cannot run from: counters out of range (negative ones
// included), probes repeated or out of order, metadata that is invalid
// or filed under another probe, evidence rings over their size, reboot
// lists that disagree in length, and churn days out of order or outside
// the study. Every count is checked against the bytes left before
// anything is allocated.

const (
	checkpointFile      = "checkpoint.bin"
	checkpointTag  byte = 'C'
	// ckAnalysis marks a checkpoint of an analysis shard: the header
	// carries the churn table and every probe frame its detector state.
	ckAnalysis byte = 1
)

// Flag bits of a probe-state frame: the state machines' booleans, plus
// psTTF for a non-empty duration distribution.
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
	churn     []liveanalysis.ChurnCell
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
	dst, start := beginFrame(dst)
	dst = binary.AppendVarint(dst, int64(ps.id-prev))
	var flags uint64
	for bit, on := range [...]bool{ps.hasMeta, ps.allV4Single, ps.stripped, ps.prevSet, ps.prevIsV4,
		ps.seg.active, ps.seg.bounded, ps.homeConsistent, ps.multiAS, ps.hasGap, ps.lastGapLinked,
		ps.loss.active, ps.kRootSeen, ps.upSeen, ps.ttf.Len() > 0} {
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
	for _, n := range [...]int64{ps.metaCount, ps.connCount, ps.kRootCount, ps.uptimeCount,
		int64(ps.rawEntries), int64(ps.v4Count), int64(ps.v6Count), ps.connectedSecs, ps.sessions} {
		dst = binary.AppendUvarint(dst, uint64(n))
	}
	dst = binary.AppendUvarint(dst, uint64(ps.firstV4Addr))

	keys := s.ckKeys[:0]
	for addr := range ps.runCount {
		keys = append(keys, addr)
	}
	slices.Sort(keys)
	s.ckKeys = keys
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, addr := range keys {
		dst = binary.AppendUvarint(dst, uint64(addr))
		dst = binary.AppendUvarint(dst, uint64(ps.runCount[addr]))
	}
	dst = binary.AppendUvarint(dst, uint64(ps.runPrevAddr))
	dst = binary.AppendUvarint(dst, uint64(ps.runTotal))

	dst = binary.AppendUvarint(dst, uint64(ps.prevAddr))
	for _, t := range [...]simclock.Time{ps.prevEnd, ps.lastConnStart, ps.lastConnEnd} {
		dst = binary.AppendVarint(dst, int64(t))
	}
	dst = binary.AppendUvarint(dst, uint64(ps.seg.addr))
	dst = binary.AppendVarint(dst, int64(ps.seg.start))
	dst = binary.AppendVarint(dst, int64(ps.seg.end))

	dst = binary.AppendUvarint(dst, uint64(ps.changes))
	if ps.ttf.Len() > 0 {
		dst = ps.ttf.AppendBinary(dst)
	}
	dst = binary.AppendUvarint(dst, uint64(ps.homeASN))

	dst = binary.AppendVarint(dst, int64(ps.lastGap.from))
	dst = binary.AppendVarint(dst, int64(ps.lastGap.to))
	dst = binary.AppendUvarint(dst, uint64(ps.outageLinked))
	dst = binary.AppendUvarint(dst, uint64(len(ps.recentOutages)))
	var t simclock.Time
	for _, o := range ps.recentOutages {
		dst = binary.AppendVarint(dst, int64(o.from-t))
		dst = binary.AppendVarint(dst, int64(o.to-o.from))
		t = o.from
	}
	dst = appendTimes(dst, ps.recentReboots)

	dst = binary.AppendVarint(dst, int64(ps.loss.start))
	dst = binary.AppendVarint(dst, int64(ps.loss.end))
	dst = binary.AppendVarint(dst, ps.loss.firstLTS)
	dst = binary.AppendVarint(dst, ps.loss.lastLTS)
	dst = binary.AppendUvarint(dst, uint64(ps.loss.rounds))
	dst = binary.AppendUvarint(dst, uint64(ps.networkOutages))
	dst = binary.AppendVarint(dst, int64(ps.lastKRoot))

	dst = binary.AppendVarint(dst, int64(ps.prevBoot))
	dst = binary.AppendVarint(dst, int64(ps.lastUptime))
	dst = binary.AppendUvarint(dst, uint64(ps.reboots))
	dst = binary.AppendUvarint(dst, uint64(ps.rejected))

	if s.churn != nil {
		det := ps.det
		dst = appendRawHours(dst, det.RawHours)
		dst = binary.AppendUvarint(dst, uint64(len(det.Gaps)))
		t = 0
		for _, g := range det.Gaps {
			dst = binary.AppendVarint(dst, int64(g.PrevEnd-t))
			dst = binary.AppendVarint(dst, int64(g.NextStart-g.PrevEnd))
			t = g.NextStart
			var gf byte
			if g.Changed {
				gf = gapChanged
			}
			dst = append(dst, gf)
		}
		dst = appendNetworks(dst, ps.id, det.Networks)
		dst = appendReboots(dst, ps.id, det.Reboots)
		dst = appendRebootGaps(dst, det.RebootGaps)
		dst = appendPrefixRow(dst, det.Prefix)
		dst = appendTimes(dst, det.Rounds)
		dst = binary.AppendVarint(dst, int64(det.LastUptime))
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
			h.churn = make([]liveanalysis.ChurnCell, n)
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
// without its analysis state, and the reverse with empty detectors —
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
		if i > 0 && r.err == nil && ps.id <= prev {
			r.fail(fmt.Errorf("probe %d out of order", ps.id))
		}
		if err := r.done("checkpoint probe frame", i); err != nil {
			return 0, 0, err
		}
		s.states[ps.id] = ps
		prev = ps.id
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
	id := prev + atlasdata.ProbeID(r.int())
	ps := newProbeState(id, s.churn)
	flags := r.uvarint()
	if flags&^psFlags != 0 {
		r.fail(fmt.Errorf("unknown flag bits %#x", flags&^psFlags))
	}
	on := func(bit uint64) bool { return flags&bit != 0 }
	if on(psHasMeta) {
		m, err := decodeMeta(r.bytes(r.count(1)))
		switch {
		case err != nil:
			r.fail(err)
		case m.ID != id:
			r.fail(fmt.Errorf("metadata of probe %d", m.ID))
		default:
			ps.setMeta(m)
		}
	}
	for _, n := range [...]*int64{&ps.metaCount, &ps.connCount, &ps.kRootCount, &ps.uptimeCount} {
		*n = r.counter()
	}
	for _, n := range [...]*int{&ps.rawEntries, &ps.v4Count, &ps.v6Count} {
		*n = int(r.counter())
	}
	ps.connectedSecs = r.counter()
	ps.sessions = r.counter()
	ps.allV4Single = on(psAllV4Single)
	ps.firstV4Addr = ip4.Addr(r.u32())

	n := r.count(minRunCount)
	var last uint32
	for i := 0; i < n; i++ {
		addr := r.u32()
		if i > 0 && addr <= last {
			r.fail(fmt.Errorf("run counts not ascending at %v", ip4.Addr(addr)))
		}
		last = addr
		ps.runCount[addr] = int(r.counter())
	}
	ps.runPrevAddr = r.u32()
	ps.runTotal = int(r.counter())

	ps.stripped = on(psStripped)
	ps.prevSet = on(psPrevSet)
	ps.prevIsV4 = on(psPrevIsV4)
	ps.prevAddr = ip4.Addr(r.u32())
	ps.prevEnd = r.time()
	ps.lastConnStart = r.time()
	ps.lastConnEnd = r.time()
	ps.seg = addrRun{active: on(psSegActive), bounded: on(psSegBounded), addr: ip4.Addr(r.u32()), start: r.time(), end: r.time()}

	ps.changes = r.counter()
	if on(psTTF) && r.err == nil {
		rest, err := ps.ttf.DecodeBinary(r.b)
		switch {
		case err != nil:
			r.fail(err)
		case ps.ttf.Len() == 0:
			r.fail(fmt.Errorf("empty duration distribution flagged"))
		default:
			r.b = rest
		}
	}
	ps.homeASN = asdb.ASN(r.u32())
	ps.homeConsistent = on(psHomeConsistent)
	ps.multiAS = on(psMultiAS)

	ps.hasGap = on(psHasGap)
	ps.lastGap = span{from: r.time(), to: r.time()}
	ps.lastGapLinked = on(psLastGapLinked)
	ps.outageLinked = r.counter()
	if n := r.evidence(minSpan); n > 0 {
		ps.recentOutages = make([]span, n)
		var t simclock.Time
		for i := range ps.recentOutages {
			o := &ps.recentOutages[i]
			o.from = t + r.time()
			o.to = o.from + r.time()
			t = o.from
		}
	}
	ps.recentReboots = r.times(r.evidence(1))

	ps.loss = lossRun{active: on(psLossActive), start: r.time(), end: r.time(), firstLTS: r.varint(), lastLTS: r.varint(), rounds: int(r.counter())}
	ps.networkOutages = r.counter()
	ps.lastKRoot = r.time()
	ps.kRootSeen = on(psKRootSeen)

	ps.upSeen = on(psUpSeen)
	ps.prevBoot = r.time()
	ps.lastUptime = r.time()
	ps.reboots = r.counter()
	ps.rejected = r.counter()

	if !analysis {
		return ps
	}
	det := ps.det
	if det == nil {
		// An analysis-off shard decodes the detector state only to
		// validate it.
		det = &liveanalysis.Detector{}
	}
	det.RawHours = r.rawHours()
	if n := r.count(minGapEvent); n > 0 {
		det.Gaps = make([]liveanalysis.GapEvent, n)
		var t simclock.Time
		for i := range det.Gaps {
			g := &det.Gaps[i]
			g.PrevEnd = t + r.time()
			g.NextStart = g.PrevEnd + r.time()
			t = g.NextStart
			g.Changed = r.flags(gapChanged) != 0
		}
	}
	det.Networks = r.networks(id)
	det.Reboots = r.reboots(id)
	det.RebootGaps = r.rebootGaps()
	if len(det.Reboots) != len(det.RebootGaps) && r.err == nil {
		r.fail(fmt.Errorf("%d reboots but %d reboot gaps", len(det.Reboots), len(det.RebootGaps)))
	}
	det.Prefix = r.prefixRow()
	if err := nonNegativeRow(det.Prefix); err != nil {
		r.fail(err)
	}
	det.Rounds = r.times(r.count(1))
	det.LastUptime = r.time()
	det.Restore()
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
// recentEvidence.
func (r *viewReader) evidence(min int) int {
	n := r.count(min)
	if n > recentEvidence {
		r.fail(fmt.Errorf("%d recent outage or reboot entries, at most %d", n, recentEvidence))
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
