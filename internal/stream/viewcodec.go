package stream

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/core"
	"dynaddr/internal/simclock"
	"dynaddr/internal/stats"
	"dynaddr/internal/wire"
)

// Binary peer views. A coordinator fetches every peer's PeerView or
// AnalysisPeerView on each merged read, and the analysis view carries
// every analyzable probe's gaps, outages and reboots, so both views
// also travel as internal/wire frames (CRC32C per frame):
//
//	header frame   a view tag, total and owned partitions, Version, the
//	               view's aggregate rows (Counts and SessionsByAS, or the
//	               churn rows), then the number of probe frames
//	probe frames   one per ProbeView or ProbeEvents, in view order
//
// Signed integers are zigzag varints, unsigned ones uvarints; probe IDs
// are deltas from the previous probe's, times deltas from the previous
// time in their list, and float64s are their bits verbatim. A decoded
// view is therefore bit-identical to the encoded one, and merges to the
// same bytes. Map-valued fields are written in ascending key order, so
// the encoding of a view is deterministic.
//
// The decoders return errors and never panic. Every count is checked
// against the bytes left before anything is allocated, so a hostile
// body cannot make a decoder allocate much more than its own length.

const (
	peerViewTag     byte = 'P'
	analysisViewTag byte = 'A'
)

// Per-element lower bounds on the encoded size, which cap every count
// before its slice is allocated.
const (
	minProbeViewFrame   = wire.FrameHeaderSize + 18 // ID, flags, category, country, ASN, 5 counters, connected days
	minProbeEventsFrame = wire.FrameHeaderSize + 14 // probe, ASN, flags, 5 list counts, prefix row
	minGap              = 4
	minNetwork          = 3
	minReboot           = 2
	minRebootGap        = 3
	minChurnRow         = 7
	minSessionsByAS     = 2
)

// Flag bits of a probe frame.
const (
	pvHasMeta byte = 1 << iota
	pvMultiAS
	pvOpenLossRun
	pvTTF
	pvFlags = pvHasMeta | pvMultiAS | pvOpenLossRun | pvTTF
)

const (
	evMultiAS byte = 1 << iota
	evV3
	evHasChanges
	evFlags = evMultiAS | evV3 | evHasChanges
)

// gapChanged flags a gap across which the address changed. A gap's
// cause is not in the encoding: a peer's gaps are unclassified.
const gapChanged byte = 1

// AppendPeerView appends v's binary form to dst.
func AppendPeerView(dst []byte, v *PeerView) []byte {
	// Reserve a generous estimate of the encoding up front: growing a
	// large slice by appends allocates several times its final size.
	est := 64 + 16*len(v.SessionsByAS)
	for i := range v.Probes {
		est += 48 + len(v.Probes[i].Country)
		if v.Probes[i].TTF != nil {
			est += 16 * v.Probes[i].TTF.Len()
		}
	}
	dst = slices.Grow(dst, est)
	dst, start := beginFrame(dst)
	dst = append(dst, peerViewTag)
	dst = appendViewHead(dst, v.TotalPartitions, v.Partitions, v.Version)
	c := v.Counts
	for _, n := range []int64{c.Meta, c.ConnLogs, c.KRoot, c.Uptime, c.Rejected} {
		dst = binary.AppendVarint(dst, n)
	}
	asns := make([]uint32, 0, len(v.SessionsByAS))
	for asn := range v.SessionsByAS {
		asns = append(asns, asn)
	}
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })
	dst = binary.AppendUvarint(dst, uint64(len(asns)))
	for _, asn := range asns {
		dst = binary.AppendUvarint(dst, uint64(asn))
		dst = binary.AppendVarint(dst, v.SessionsByAS[asn])
	}
	dst = binary.AppendUvarint(dst, uint64(len(v.Probes)))
	dst = endFrame(dst, start)

	var prev atlasdata.ProbeID
	for i := range v.Probes {
		p := &v.Probes[i]
		dst, start = beginFrame(dst)
		dst = binary.AppendVarint(dst, int64(p.ID-prev))
		prev = p.ID
		var flags byte
		if p.HasMeta {
			flags |= pvHasMeta
		}
		if p.MultiAS {
			flags |= pvMultiAS
		}
		if p.OpenLossRun {
			flags |= pvOpenLossRun
		}
		if p.TTF != nil {
			flags |= pvTTF
		}
		dst = append(dst, flags)
		dst = binary.AppendVarint(dst, int64(p.Category))
		dst = binary.AppendUvarint(dst, uint64(len(p.Country)))
		dst = append(dst, p.Country...)
		dst = binary.AppendUvarint(dst, uint64(p.ASN))
		for _, n := range []int64{p.Sessions, p.Changes, p.NetworkOutages, p.Reboots, p.OutageLinked} {
			dst = binary.AppendVarint(dst, n)
		}
		dst = appendFloat(dst, p.ConnectedDays)
		if p.TTF != nil {
			dst = p.TTF.AppendBinary(dst)
		}
		dst = endFrame(dst, start)
	}
	return dst
}

// DecodePeerView decodes a view AppendPeerView wrote.
func DecodePeerView(b []byte) (*PeerView, error) {
	it := wire.Frames(b)
	r, err := headerFrame(&it, peerViewTag)
	if err != nil {
		return nil, err
	}
	v := &PeerView{}
	v.TotalPartitions, v.Partitions, v.Version = r.viewHead()
	c := &v.Counts
	for _, n := range []*int64{&c.Meta, &c.ConnLogs, &c.KRoot, &c.Uptime, &c.Rejected} {
		*n = r.varint()
	}
	n := r.count(minSessionsByAS)
	v.SessionsByAS = make(map[uint32]int64, n)
	var last uint32
	for i := 0; i < n; i++ {
		asn := r.u32()
		if i > 0 && asn <= last {
			r.fail(fmt.Errorf("sessions_by_as keys not ascending at AS%d", asn))
		}
		last = asn
		v.SessionsByAS[asn] = r.varint()
	}
	probes := r.frameCount(len(b)-it.Offset(), minProbeViewFrame)
	if err := r.done("view header frame", 0); err != nil {
		return nil, err
	}
	v.Probes = make([]ProbeView, probes)
	var prev atlasdata.ProbeID
	for i := range v.Probes {
		r, err := nextFrame(&it, "view")
		if err != nil {
			return nil, err
		}
		p := &v.Probes[i]
		p.ID = prev + atlasdata.ProbeID(r.int())
		prev = p.ID
		flags := r.flags(pvFlags)
		p.HasMeta = flags&pvHasMeta != 0
		p.MultiAS = flags&pvMultiAS != 0
		p.OpenLossRun = flags&pvOpenLossRun != 0
		p.Category = core.Category(r.int())
		p.Country = r.str()
		p.ASN = r.u32()
		for _, n := range []*int64{&p.Sessions, &p.Changes, &p.NetworkOutages, &p.Reboots, &p.OutageLinked} {
			*n = r.varint()
		}
		p.ConnectedDays = r.float()
		if flags&pvTTF != 0 && r.err == nil {
			p.TTF = new(stats.Weighted)
			rest, err := p.TTF.DecodeBinary(r.b)
			if err != nil {
				r.fail(err)
			}
			r.b = rest
		}
		if err := r.done("view probe frame", i); err != nil {
			return nil, err
		}
	}
	return v, endOfFrames(&it, "view")
}

// AppendAnalysisPeerView appends v's binary form to dst.
func AppendAnalysisPeerView(dst []byte, v *AnalysisPeerView) []byte {
	est := 64 + 40*len(v.Churn)
	for i := range v.Events {
		ev := &v.Events[i]
		est += 48 + 8*len(ev.RawHours) + 10*(len(ev.Gaps)+len(ev.Networks)+len(ev.Reboots)+len(ev.RebootGaps))
	}
	dst = slices.Grow(dst, est)
	dst, start := beginFrame(dst)
	dst = append(dst, analysisViewTag)
	dst = appendViewHead(dst, v.TotalPartitions, v.Partitions, v.Version)
	days := make([]int, 0, len(v.Churn))
	for day := range v.Churn {
		days = append(days, day)
	}
	sort.Ints(days)
	dst = binary.AppendUvarint(dst, uint64(len(days)))
	for _, day := range days {
		dst = binary.AppendVarint(dst, int64(day))
		dst = appendPrefixRow(dst, v.Churn[day])
	}
	dst = binary.AppendUvarint(dst, uint64(len(v.Events)))
	dst = endFrame(dst, start)

	var prev atlasdata.ProbeID
	for i := range v.Events {
		ev := &v.Events[i]
		dst, start = beginFrame(dst)
		dst = binary.AppendVarint(dst, int64(ev.Probe-prev))
		prev = ev.Probe
		dst = binary.AppendUvarint(dst, uint64(ev.ASN))
		var flags byte
		if ev.MultiAS {
			flags |= evMultiAS
		}
		if ev.V3 {
			flags |= evV3
		}
		if ev.HasChanges {
			flags |= evHasChanges
		}
		dst = append(dst, flags)

		dst = appendRawHours(dst, ev.RawHours)

		dst = binary.AppendUvarint(dst, uint64(len(ev.Gaps)))
		var t simclock.Time
		for _, g := range ev.Gaps {
			dst = append(dst, 0) // the gap's probe, as a delta from the event's
			dst = appendGap(dst, g, &t)
		}

		dst = appendNetworks(dst, ev.Probe, ev.Networks)
		dst = appendReboots(dst, ev.Probe, ev.Reboots)
		dst = appendRebootGaps(dst, ev.RebootGaps)
		dst = appendPrefixRow(dst, ev.Prefix)
		dst = endFrame(dst, start)
	}
	return dst
}

// DecodeAnalysisPeerView decodes a view AppendAnalysisPeerView wrote.
func DecodeAnalysisPeerView(b []byte) (*AnalysisPeerView, error) {
	it := wire.Frames(b)
	r, err := headerFrame(&it, analysisViewTag)
	if err != nil {
		return nil, err
	}
	v := &AnalysisPeerView{}
	v.TotalPartitions, v.Partitions, v.Version = r.viewHead()
	n := r.count(minChurnRow)
	v.Churn = make(map[int]core.PrefixChangeRow, n)
	var last int
	for i := 0; i < n; i++ {
		day := r.int()
		if i > 0 && day <= last {
			r.fail(fmt.Errorf("churn days not ascending at day %d", day))
		}
		last = day
		v.Churn[day] = r.prefixRow()
	}
	events := r.frameCount(len(b)-it.Offset(), minProbeEventsFrame)
	if err := r.done("view header frame", 0); err != nil {
		return nil, err
	}
	v.Events = make([]core.ProbeEvents, events)
	var prev atlasdata.ProbeID
	for i := range v.Events {
		r, err := nextFrame(&it, "view")
		if err != nil {
			return nil, err
		}
		ev := &v.Events[i]
		ev.Probe = prev + atlasdata.ProbeID(r.int())
		prev = ev.Probe
		ev.ASN = r.u32()
		flags := r.flags(evFlags)
		ev.MultiAS = flags&evMultiAS != 0
		ev.V3 = flags&evV3 != 0
		ev.HasChanges = flags&evHasChanges != 0

		ev.RawHours = r.rawHours()

		var t simclock.Time
		if n := r.count(minGap); n > 0 {
			ev.Gaps = make([]core.GapEvent, n)
			for k := range ev.Gaps {
				if d := r.int(); d != 0 && r.err == nil {
					r.fail(fmt.Errorf("gap of probe %d in the events of probe %d", ev.Probe+atlasdata.ProbeID(d), ev.Probe))
				}
				ev.Gaps[k] = r.gap(&t)
			}
		}

		ev.Networks = r.networks(ev.Probe)
		ev.Reboots = r.reboots(ev.Probe)
		ev.RebootGaps = r.rebootGaps()
		ev.Prefix = r.prefixRow()
		if err := r.done("view event frame", i); err != nil {
			return nil, err
		}
	}
	return v, endOfFrames(&it, "view")
}

// beginFrame reserves a frame header at the end of dst; endFrame fills
// it in once the payload after it is complete.
func beginFrame(dst []byte) ([]byte, int) {
	var hdr [wire.FrameHeaderSize]byte
	return append(dst, hdr[:]...), len(dst)
}

func endFrame(dst []byte, start int) []byte {
	wire.PutFrameHeader(dst[start:], dst[start+wire.FrameHeaderSize:])
	return dst
}

func appendViewHead(dst []byte, total int, parts []int, ver Version) []byte {
	dst = binary.AppendVarint(dst, int64(total))
	dst = binary.AppendUvarint(dst, uint64(len(parts)))
	for _, p := range parts {
		dst = binary.AppendVarint(dst, int64(p))
	}
	dst = binary.AppendUvarint(dst, ver.Generation)
	return binary.AppendUvarint(dst, ver.Seq)
}

// The list encoders below are shared by the analysis view and the shard
// checkpoint, so an event list has one encoding wherever it travels.
// Events carry their probe as a delta from the frame's probe, and times
// are deltas from the previous element's in the list.

func appendRawHours(dst []byte, hours []float64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(hours)))
	for _, h := range hours {
		dst = appendFloat(dst, h)
	}
	return dst
}

// appendGap appends a gap, its times deltas from *t, which it advances
// to the gap's end.
func appendGap(dst []byte, g core.GapEvent, t *simclock.Time) []byte {
	dst = binary.AppendVarint(dst, int64(g.PrevEnd()-*t))
	dst = binary.AppendVarint(dst, int64(g.NextStart()-g.PrevEnd()))
	*t = g.NextStart()
	var gf byte
	if g.Changed {
		gf = gapChanged
	}
	return append(dst, gf)
}

func appendNetworks(dst []byte, probe atlasdata.ProbeID, ns []core.NetworkOutage) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ns)))
	var t simclock.Time
	for _, n := range ns {
		dst = binary.AppendVarint(dst, int64(n.Probe-probe))
		dst = binary.AppendVarint(dst, int64(n.Start-t))
		dst = binary.AppendVarint(dst, int64(n.End-n.Start))
		t = n.Start
	}
	return dst
}

func appendReboots(dst []byte, probe atlasdata.ProbeID, rbs []core.Reboot) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(rbs)))
	var t simclock.Time
	for _, rb := range rbs {
		dst = binary.AppendVarint(dst, int64(rb.Probe-probe))
		dst = binary.AppendVarint(dst, int64(rb.At-t))
		t = rb.At
	}
	return dst
}

func appendRebootGaps(dst []byte, gs []core.RebootGap) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(gs)))
	var t simclock.Time
	for _, g := range gs {
		dst = binary.AppendVarint(dst, int64(g.Start-t))
		dst = binary.AppendVarint(dst, int64(g.End-g.Start))
		t = g.Start
		var open byte
		if g.Open {
			open = 1
		}
		dst = append(dst, open)
	}
	return dst
}

func appendPrefixRow(dst []byte, r core.PrefixChangeRow) []byte {
	dst = binary.AppendUvarint(dst, uint64(r.ASN))
	for _, n := range []int{r.Changes, r.DiffBGP, r.DiffS16, r.DiffS8, r.Unrouted} {
		dst = binary.AppendVarint(dst, int64(n))
	}
	return dst
}

func appendFloat(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

// headerFrame reads a view's first frame and checks its tag.
func headerFrame(it *wire.FrameIter, tag byte) (viewReader, error) {
	r, err := nextFrame(it, "view")
	if err != nil {
		return r, err
	}
	if got := r.byte(); r.err == nil && got != tag {
		return r, fmt.Errorf("stream: view header tag %q, want %q", got, tag)
	}
	return r, nil
}

// nextFrame reads the next frame of a body; what names the body
// ("view", "checkpoint") in errors.
func nextFrame(it *wire.FrameIter, what string) (viewReader, error) {
	payload, done, err := it.Next()
	if err != nil {
		return viewReader{}, fmt.Errorf("stream: %s: %w", what, err)
	}
	if done {
		return viewReader{}, fmt.Errorf("stream: %s: %w: missing frame at offset %d", what, wire.ErrTornFrame, it.Offset())
	}
	return viewReader{b: payload}, nil
}

func endOfFrames(it *wire.FrameIter, what string) error {
	if _, done, err := it.Next(); err != nil || !done {
		return fmt.Errorf("stream: %s: trailing data at offset %d", what, it.Offset())
	}
	return nil
}

// viewReader decodes one frame payload. The first error sticks: later
// reads return zero values, and done reports it.
type viewReader struct {
	b   []byte
	err error
}

func (r *viewReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

// done reports the frame's first error, or trailing bytes after a
// complete decode; kind names the frame ("view probe frame") and frame
// which of the kind it is.
func (r *viewReader) done(kind string, frame int) error {
	if r.err == nil && len(r.b) > 0 {
		r.err = fmt.Errorf("%d trailing bytes", len(r.b))
	}
	if r.err != nil {
		return fmt.Errorf("stream: %s %d: %w", kind, frame, r.err)
	}
	return nil
}

func (r *viewReader) byte() byte {
	if len(r.b) == 0 {
		r.fail(fmt.Errorf("truncated"))
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *viewReader) flags(mask byte) byte {
	f := r.byte()
	if f&^mask != 0 {
		r.fail(fmt.Errorf("unknown flag bits %#x", f&^mask))
		return 0
	}
	return f
}

// uvarint and varint refuse overlong encodings (a final byte of zero
// after continuation bytes) as well as truncated ones, so every value
// has exactly one encoding and an accepted body re-encodes to itself.
func (r *viewReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 || n > 1 && r.b[n-1] == 0 {
		r.fail(fmt.Errorf("bad varint"))
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *viewReader) varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 || n > 1 && r.b[n-1] == 0 {
		r.fail(fmt.Errorf("bad varint"))
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *viewReader) int() int {
	v := r.varint()
	if int64(int(v)) != v {
		r.fail(fmt.Errorf("integer %d out of range", v))
		return 0
	}
	return int(v)
}

func (r *viewReader) u32() uint32 {
	v := r.uvarint()
	if v > math.MaxUint32 {
		r.fail(fmt.Errorf("%d out of uint32 range", v))
		return 0
	}
	return uint32(v)
}

func (r *viewReader) float() float64 {
	if len(r.b) < 8 {
		r.fail(fmt.Errorf("truncated float"))
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	if math.IsNaN(f) || math.IsInf(f, 0) {
		r.fail(fmt.Errorf("non-finite float"))
		return 0
	}
	return f
}

// count reads a length whose elements take at least min bytes each and
// refuses one the rest of the frame cannot hold.
func (r *viewReader) count(min int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/min) {
		r.fail(fmt.Errorf("count %d exceeds the %d bytes left", n, len(r.b)))
		return 0
	}
	return int(n)
}

// frameCount reads the number of frames that follow the header and
// refuses a count the rest of the body cannot hold.
func (r *viewReader) frameCount(rest, min int) int {
	n := r.uvarint()
	if n > uint64(rest/min) {
		r.fail(fmt.Errorf("%d frames cannot fit in the %d bytes left", n, rest))
		return 0
	}
	return int(n)
}

func (r *viewReader) str() string {
	n := r.count(1)
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *viewReader) viewHead() (total int, parts []int, ver Version) {
	total = r.int()
	parts = make([]int, r.count(1))
	for i := range parts {
		parts[i] = r.int()
	}
	ver.Generation = r.uvarint()
	ver.Seq = r.uvarint()
	return total, parts, ver
}

func (r *viewReader) rawHours() []float64 {
	n := r.count(8)
	if n == 0 {
		return nil
	}
	hours := make([]float64, n)
	for k := range hours {
		hours[k] = r.float()
	}
	return hours
}

// gap reads a gap appendGap wrote and refuses one outside
// core.NewGapEvent's range.
func (r *viewReader) gap(t *simclock.Time) core.GapEvent {
	prevEnd := *t + simclock.Time(r.varint())
	nextStart := prevEnd + simclock.Time(r.varint())
	*t = nextStart
	g, err := core.NewGapEvent(prevEnd, nextStart, r.flags(gapChanged) != 0)
	if err != nil {
		r.fail(err)
	}
	return g
}

func (r *viewReader) networks(probe atlasdata.ProbeID) []core.NetworkOutage {
	n := r.count(minNetwork)
	if n == 0 {
		return nil
	}
	ns := make([]core.NetworkOutage, n)
	var t simclock.Time
	for k := range ns {
		o := &ns[k]
		o.Probe = probe + atlasdata.ProbeID(r.int())
		o.Start = t + simclock.Time(r.varint())
		o.End = o.Start + simclock.Time(r.varint())
		t = o.Start
	}
	return ns
}

func (r *viewReader) reboots(probe atlasdata.ProbeID) []core.Reboot {
	n := r.count(minReboot)
	if n == 0 {
		return nil
	}
	rbs := make([]core.Reboot, n)
	var t simclock.Time
	for k := range rbs {
		rb := &rbs[k]
		rb.Probe = probe + atlasdata.ProbeID(r.int())
		rb.At = t + simclock.Time(r.varint())
		t = rb.At
	}
	return rbs
}

func (r *viewReader) rebootGaps() []core.RebootGap {
	n := r.count(minRebootGap)
	if n == 0 {
		return nil
	}
	gs := make([]core.RebootGap, n)
	var t simclock.Time
	for k := range gs {
		g := &gs[k]
		g.Start = t + simclock.Time(r.varint())
		g.End = g.Start + simclock.Time(r.varint())
		t = g.Start
		g.Open = r.flags(1) != 0
	}
	return gs
}

func (r *viewReader) prefixRow() core.PrefixChangeRow {
	row := core.PrefixChangeRow{ASN: r.u32()}
	for _, n := range []*int{&row.Changes, &row.DiffBGP, &row.DiffS16, &row.DiffS8, &row.Unrouted} {
		*n = r.int()
	}
	return row
}
