package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/ip4"
	"dynaddr/internal/simclock"
)

// Kind tags a frame payload's record type. The stream tier's record
// kinds are these byte values (meta, conn, kroot, uptime, in that
// order), and its WAL stores wire payloads as they are, so a WAL
// segment is a wire batch.
type Kind uint8

// Record kinds, in stream order.
const (
	KindMeta Kind = iota
	KindConn
	KindKRoot
	KindUptime
	kindCount
)

// String names the kind for errors and metrics.
func (k Kind) String() string {
	switch k {
	case KindMeta:
		return "meta"
	case KindConn:
		return "connlog"
	case KindKRoot:
		return "kroot"
	case KindUptime:
		return "uptime"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ErrRecord marks a payload that framed correctly but does not decode
// as a record: unknown kind byte, short body, trailing bytes, or a
// field out of range.
var ErrRecord = errors.New("wire: malformed record")

// PayloadKind returns a framed payload's kind byte without decoding
// the body.
func PayloadKind(payload []byte) (Kind, error) {
	if len(payload) == 0 {
		return 0, fmt.Errorf("%w: empty payload", ErrRecord)
	}
	k := Kind(payload[0])
	if k >= kindCount {
		return 0, fmt.Errorf("%w: unknown kind %d", ErrRecord, payload[0])
	}
	return k, nil
}

// PayloadProbe returns a framed payload's probe ID without decoding the
// body: every record layout places a u32 LE probe ID immediately after
// the kind byte, by design, so a router can split a batch by probe
// owner while only touching 5 bytes per record. The kind byte is
// validated; the rest of the body is not (the owning peer's decoder
// remains the authority on body validity).
func PayloadProbe(payload []byte) (atlasdata.ProbeID, error) {
	if _, err := PayloadKind(payload); err != nil {
		return 0, err
	}
	if len(payload) < 5 {
		return 0, fmt.Errorf("%w: payload too short for probe ID", ErrRecord)
	}
	return atlasdata.ProbeID(binary.LittleEndian.Uint32(payload[1:5])), nil
}

// Record bodies are fixed-width little-endian, one layout per kind,
// preceded by the kind byte:
//
//	meta:   u32 probe, u8 version, f64 connected-days, u8 country len +
//	        bytes, u8 tag count, then per tag u8 len + bytes
//	conn:   u32 probe, i64 start, i64 end (u32 values), u8 family,
//	        then u32 v4 addr | u16 v6 len + bytes
//	kroot:  u32 probe, i64 timestamp (a u32 value), u16 sent,
//	        u16 success, i64 lts (an int32 value)
//	uptime: u32 probe, i64 timestamp, i64 uptime
//
// Probe IDs are positive and fit comfortably in 32 bits (RIPE Atlas IDs
// are small integers); timestamps are the simulation's unix seconds.
// Decoders reject trailing bytes so a payload has exactly one valid
// reading.

func appendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// appendProbe guards the int→u32 narrowing: an ID outside the wire
// range must fail at encode time, not decode as a different probe.
func appendProbe(dst []byte, id atlasdata.ProbeID) ([]byte, error) {
	if id < 0 || int64(id) > math.MaxUint32 {
		return dst, fmt.Errorf("%w: probe ID %d outside wire range", ErrRecord, id)
	}
	return appendU32(dst, uint32(id)), nil
}

func appendI64(dst []byte, v int64) []byte {
	u := uint64(v)
	return append(dst, byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
		byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
}

func appendU16(dst []byte, v uint16) []byte {
	return append(dst, byte(v), byte(v>>8))
}

// cursor is a bounds-checked little-endian reader over one payload.
// Methods record the first failure; callers check err once at the end.
type cursor struct {
	b   []byte
	off int
	err error
}

func (c *cursor) fail(what string) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: truncated %s at offset %d", ErrRecord, what, c.off)
	}
}

func (c *cursor) u8(what string) uint8 {
	if c.err != nil || c.off+1 > len(c.b) {
		c.fail(what)
		return 0
	}
	v := c.b[c.off]
	c.off++
	return v
}

func (c *cursor) u16(what string) uint16 {
	if c.err != nil || c.off+2 > len(c.b) {
		c.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint16(c.b[c.off:])
	c.off += 2
	return v
}

func (c *cursor) u32(what string) uint32 {
	if c.err != nil || c.off+4 > len(c.b) {
		c.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint32(c.b[c.off:])
	c.off += 4
	return v
}

func (c *cursor) i64(what string) int64 {
	if c.err != nil || c.off+8 > len(c.b) {
		c.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint64(c.b[c.off:])
	c.off += 8
	return int64(v)
}

// bytes returns n raw bytes as a subslice (no copy, no allocation).
func (c *cursor) bytes(n int, what string) []byte {
	if c.err != nil || c.off+n > len(c.b) {
		c.fail(what)
		return nil
	}
	v := c.b[c.off : c.off+n]
	c.off += n
	return v
}

// finish rejects trailing bytes and returns the first error.
func (c *cursor) finish(kind Kind) error {
	if c.err != nil {
		return c.err
	}
	if c.off != len(c.b) {
		return fmt.Errorf("%w: %d trailing bytes after %s record", ErrRecord, len(c.b)-c.off, kind)
	}
	return nil
}

// AppendMeta appends a probe-metadata payload (kind byte + body).
func AppendMeta(dst []byte, m atlasdata.ProbeMeta) ([]byte, error) {
	if len(m.Country) > math.MaxUint8 {
		return dst, fmt.Errorf("%w: country %q too long", ErrRecord, m.Country)
	}
	if len(m.Tags) > math.MaxUint8 {
		return dst, fmt.Errorf("%w: %d tags", ErrRecord, len(m.Tags))
	}
	dst = append(dst, byte(KindMeta))
	dst, err := appendProbe(dst, m.ID)
	if err != nil {
		return dst, err
	}
	dst = append(dst, byte(m.Version))
	dst = appendI64(dst, int64(math.Float64bits(m.ConnectedDays)))
	dst = append(dst, byte(len(m.Country)))
	dst = append(dst, m.Country...)
	dst = append(dst, byte(len(m.Tags)))
	for _, t := range m.Tags {
		if len(t) > math.MaxUint8 {
			return dst, fmt.Errorf("%w: tag %q too long", ErrRecord, t)
		}
		dst = append(dst, byte(len(t)))
		dst = append(dst, t...)
	}
	return dst, nil
}

// DecodeMeta decodes a payload written by AppendMeta. Metadata arrives
// once per probe, so its string materialisation is off the hot path.
func DecodeMeta(payload []byte) (atlasdata.ProbeMeta, error) {
	c := cursor{b: payload, off: 1}
	var m atlasdata.ProbeMeta
	m.ID = atlasdata.ProbeID(c.u32("probe id"))
	m.Version = atlasdata.ProbeVersion(c.u8("version"))
	m.ConnectedDays = math.Float64frombits(uint64(c.i64("connected days")))
	m.Country = string(c.bytes(int(c.u8("country length")), "country"))
	nTags := int(c.u8("tag count"))
	if nTags > 0 && c.err == nil {
		m.Tags = make([]string, 0, nTags)
		for i := 0; i < nTags; i++ {
			m.Tags = append(m.Tags, string(c.bytes(int(c.u8("tag length")), "tag")))
		}
	}
	if err := c.finish(KindMeta); err != nil {
		return atlasdata.ProbeMeta{}, err
	}
	return m, nil
}

// Family bytes on the wire.
const (
	familyV4 = 4
	familyV6 = 6
)

// AppendConnLog appends a connection-session payload. A start or end
// outside u32, which DecodeConnLog refuses, fails here too, so a session
// that encodes decodes.
func AppendConnLog(dst []byte, e atlasdata.ConnLogEntry) ([]byte, error) {
	if !atlasdata.InUnix32(e.Start) || !atlasdata.InUnix32(e.End) {
		return dst, fmt.Errorf("%w: conn times %d-%d outside u32", ErrRecord, int64(e.Start), int64(e.End))
	}
	dst = append(dst, byte(KindConn))
	dst, err := appendProbe(dst, e.Probe)
	if err != nil {
		return dst, err
	}
	dst = appendI64(dst, int64(e.Start))
	dst = appendI64(dst, int64(e.End))
	if e.Family == atlasdata.V6 {
		if len(e.V6Addr) > math.MaxUint16 {
			return dst, fmt.Errorf("%w: v6 address too long", ErrRecord)
		}
		dst = append(dst, familyV6)
		dst = appendU16(dst, uint16(len(e.V6Addr)))
		return append(dst, e.V6Addr...), nil
	}
	dst = append(dst, familyV4)
	return appendU32(dst, uint32(e.Addr)), nil
}

// DecodeConnLog decodes a payload written by AppendConnLog. A start or
// end outside u32 (the range a detector keeps gap times in) is
// ErrRecord. IPv4 sessions — the analysis hot path — decode with zero
// allocations; an IPv6 session materialises its address string.
func DecodeConnLog(payload []byte) (atlasdata.ConnLogEntry, error) {
	c := cursor{b: payload, off: 1}
	var e atlasdata.ConnLogEntry
	e.Probe = atlasdata.ProbeID(c.u32("probe id"))
	start, end := c.i64("start"), c.i64("end")
	switch fam := c.u8("family"); {
	case c.err != nil:
	case fam == familyV4:
		e.Family = atlasdata.V4
		e.Addr = ip4.Addr(c.u32("v4 address"))
	case fam == familyV6:
		e.Family = atlasdata.V6
		e.V6Addr = string(c.bytes(int(c.u16("v6 length")), "v6 address"))
	default:
		return atlasdata.ConnLogEntry{}, fmt.Errorf("%w: unknown family byte %d", ErrRecord, fam)
	}
	if err := c.finish(KindConn); err != nil {
		return atlasdata.ConnLogEntry{}, err
	}
	if !atlasdata.InUnix32(simclock.Time(start)) || !atlasdata.InUnix32(simclock.Time(end)) {
		return atlasdata.ConnLogEntry{}, fmt.Errorf("%w: conn times %d-%d outside u32", ErrRecord, start, end)
	}
	e.Start, e.End = simclock.Time(start), simclock.Time(end)
	return e, nil
}

// AppendKRoot appends a k-root round payload. A timestamp outside u32,
// which DecodeKRoot refuses, fails here too, so a round that encodes
// decodes.
func AppendKRoot(dst []byte, k atlasdata.KRootRound) ([]byte, error) {
	if !atlasdata.InUnix32(k.Timestamp) {
		return dst, fmt.Errorf("%w: kroot timestamp %d outside u32", ErrRecord, int64(k.Timestamp))
	}
	dst = append(dst, byte(KindKRoot))
	dst, err := appendProbe(dst, k.Probe)
	if err != nil {
		return dst, err
	}
	dst = appendI64(dst, int64(k.Timestamp))
	dst = appendU16(dst, k.Sent)
	dst = appendU16(dst, k.Success)
	return appendI64(dst, int64(k.LTS)), nil
}

// DecodeKRoot decodes a payload written by AppendKRoot. The counts are
// u16 on the wire as in the record; a timestamp outside u32 (the range a
// Dataset stores rounds in) or an LTS outside int32 is ErrRecord. Zero
// allocations.
func DecodeKRoot(payload []byte) (atlasdata.KRootRound, error) {
	c := cursor{b: payload, off: 1}
	var k atlasdata.KRootRound
	k.Probe = atlasdata.ProbeID(c.u32("probe id"))
	ts := c.i64("timestamp")
	k.Sent = c.u16("sent")
	k.Success = c.u16("success")
	lts := c.i64("lts")
	if err := c.finish(KindKRoot); err != nil {
		return atlasdata.KRootRound{}, err
	}
	if !atlasdata.InUnix32(simclock.Time(ts)) {
		return atlasdata.KRootRound{}, fmt.Errorf("%w: kroot timestamp %d outside u32", ErrRecord, ts)
	}
	if lts < math.MinInt32 || lts > math.MaxInt32 {
		return atlasdata.KRootRound{}, fmt.Errorf("%w: kroot lts %d outside int32", ErrRecord, lts)
	}
	k.Timestamp = simclock.Time(ts)
	k.LTS = int32(lts)
	return k, nil
}

// AppendUptime appends an uptime-report payload.
func AppendUptime(dst []byte, u atlasdata.UptimeRecord) ([]byte, error) {
	dst = append(dst, byte(KindUptime))
	dst, err := appendProbe(dst, u.Probe)
	if err != nil {
		return dst, err
	}
	dst = appendI64(dst, int64(u.Timestamp))
	return appendI64(dst, u.Uptime), nil
}

// DecodeUptime decodes a payload written by AppendUptime. Zero
// allocations.
func DecodeUptime(payload []byte) (atlasdata.UptimeRecord, error) {
	c := cursor{b: payload, off: 1}
	var u atlasdata.UptimeRecord
	u.Probe = atlasdata.ProbeID(c.u32("probe id"))
	u.Timestamp = simclock.Time(c.i64("timestamp"))
	u.Uptime = c.i64("uptime")
	if err := c.finish(KindUptime); err != nil {
		return atlasdata.UptimeRecord{}, err
	}
	return u, nil
}
