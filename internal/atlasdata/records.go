// Package atlasdata defines the three RIPE Atlas datasets the paper
// repurposes — connection logs, k-root ping rounds, and SOS-uptime
// records — plus probe metadata, with line-oriented text codecs and a
// directory-based dataset bundle.
//
// Record shapes follow the paper's Tables 1, 3 and 4. The text formats
// are tab-separated, one record per line, so that generated datasets are
// inspectable with standard Unix tools and stable across runs.
package atlasdata

import (
	"fmt"
	"math"
	"strings"
	"unicode"
	"unsafe"

	"dynaddr/internal/ip4"
	"dynaddr/internal/simclock"
)

// ProbeID identifies a RIPE Atlas probe.
type ProbeID int

// Family distinguishes the IP family a connection used. Dual-stack
// probes alternate families, which is one of the paper's filtering
// criteria (§3.2).
type Family uint8

// Address families observed in connection logs.
const (
	V4 Family = iota
	V6
)

// String names the family ("v4" or "v6").
func (f Family) String() string {
	if f == V6 {
		return "v6"
	}
	return "v4"
}

// ConnLogEntry is one controller TCP session from the connection-logs
// dataset (paper Table 1): who connected, from which public address, and
// when the session started and ended.
type ConnLogEntry struct {
	Probe ProbeID
	Start simclock.Time
	End   simclock.Time

	// Family selects which address field is meaningful.
	Family Family
	// Addr is the publicly visible IPv4 address (the CPE's address) when
	// Family is V4.
	Addr ip4.Addr
	// V6Addr is an opaque IPv6 address literal when Family is V6. The
	// analysis only needs IPv6 connections to be recognisable and
	// comparable, so the simulator emits well-formed but unmodeled
	// literals.
	V6Addr string
}

// IsV4 reports whether the session ran over IPv4.
func (e ConnLogEntry) IsV4() bool { return e.Family == V4 }

// AddrKey returns a family-qualified string key for the session's
// address, usable for equality across families.
func (e ConnLogEntry) AddrKey() string {
	if e.Family == V6 {
		return "v6:" + e.V6Addr
	}
	return "v4:" + e.Addr.String()
}

// checkConnTimes refuses a session that starts or ends outside
// InUnix32's range, the range a detector keeps gap times in
// (core.GapEvent).
func checkConnTimes(probe ProbeID, start, end simclock.Time) error {
	for _, t := range [2]simclock.Time{start, end} {
		if !InUnix32(t) {
			return fmt.Errorf("atlasdata: connection for probe %d has time %d outside 0-%d", probe, int64(t), uint32(math.MaxUint32))
		}
	}
	return nil
}

// NewConnLogEntry builds a session from decoded values: an IPv6 one
// when v6 is not empty, else an IPv4 one from addr. It refuses a probe
// ID outside u32 (CheckProbeID), a start or end outside u32
// (checkConnTimes) and an IPv6 literal holding a Unicode space, which
// the text archive would read back as two fields; then it validates the
// entry. Every decoder of connection logs but the wire format's own goes
// through it, so a session any of them accepts saves to an archive that
// loads.
func NewConnLogEntry(probe ProbeID, start, end simclock.Time, addr ip4.Addr, v6 string) (ConnLogEntry, error) {
	if err := CheckProbeID(probe); err != nil {
		return ConnLogEntry{}, err
	}
	if err := checkConnTimes(probe, start, end); err != nil {
		return ConnLogEntry{}, err
	}
	if strings.IndexFunc(v6, unicode.IsSpace) >= 0 {
		return ConnLogEntry{}, fmt.Errorf("atlasdata: v6 connection for probe %d has address %q with a space", probe, v6)
	}
	e := ConnLogEntry{Probe: probe, Start: start, End: end, Family: V4, Addr: addr}
	if v6 != "" {
		e.Family, e.Addr, e.V6Addr = V6, 0, v6
	}
	return e, e.Validate()
}

// Validate checks internal consistency.
func (e ConnLogEntry) Validate() error {
	if e.End < e.Start {
		return fmt.Errorf("atlasdata: connection for probe %d ends (%v) before it starts (%v)", e.Probe, e.End, e.Start)
	}
	switch e.Family {
	case V4:
		if !e.Addr.IsValid() {
			return fmt.Errorf("atlasdata: v4 connection for probe %d has no address", e.Probe)
		}
	case V6:
		if !strings.Contains(e.V6Addr, ":") {
			return fmt.Errorf("atlasdata: v6 connection for probe %d has malformed address %q", e.Probe, e.V6Addr)
		}
	default:
		return fmt.Errorf("atlasdata: unknown family %d", e.Family)
	}
	return nil
}

// ConnLogSample is a connection-log session as a Dataset stores it,
// filed under its probe's key: the session without its probe ID, its
// times as unsigned 32-bit Unix seconds (checkConnTimes' range), and its
// address in one uint32, 16 bytes with no pointer. Sessions are the
// records every analysis reads, so the key is not repeated in each of
// them, and an IPv6 literal is held once in the Dataset's V6Table.
type ConnLogSample struct {
	Start, End uint32
	// Addr is the session's IPv4 address when Family is V4, and the
	// index of its IPv6 literal in the Dataset's V6Table when Family is
	// V6.
	Addr   uint32
	Family Family
}

// Sample is the session as a Dataset stores it, its IPv6 literal, if
// any, interned by lits. The session's times must be within
// checkConnTimes' range; ConnLogSeries checks them.
func (e ConnLogEntry) Sample(lits *V6Interner) ConnLogSample {
	s := ConnLogSample{Start: uint32(e.Start), End: uint32(e.End), Addr: uint32(e.Addr), Family: e.Family}
	if e.Family == V6 {
		s.Addr = lits.Intern(e.V6Addr)
	}
	return s
}

// IsV4 reports whether the session ran over IPv4.
func (s ConnLogSample) IsV4() bool { return s.Family == V4 }

// V4Addr is the session's IPv4 address, 0 for an IPv6 session, as
// ConnLogEntry.Addr has it.
func (s ConnLogSample) V4Addr() ip4.Addr {
	if s.Family == V4 {
		return ip4.Addr(s.Addr)
	}
	return 0
}

// StartTime is when the session started.
func (s ConnLogSample) StartTime() simclock.Time { return simclock.Time(s.Start) }

// EndTime is when the session ended.
func (s ConnLogSample) EndTime() simclock.Time { return simclock.Time(s.End) }

// Entry is the sample as probe's session, its IPv6 literal read from
// lits; an index lits does not hold reads as "", which Validate refuses.
func (s ConnLogSample) Entry(probe ProbeID, lits *V6Table) ConnLogEntry {
	e := ConnLogEntry{Probe: probe, Start: s.StartTime(), End: s.EndTime(), Family: s.Family, Addr: s.V4Addr()}
	if s.Family == V6 {
		e.V6Addr = lits.Literal(s.Addr)
	}
	return e
}

// ConnLogSeries is a probe's sessions as a Dataset stores them, their
// IPv6 literals interned by lits. It refuses a session of another probe
// rather than file it under probe, a time the sample cannot hold rather
// than truncate it, and literals the table has no room for; lits
// interns nothing then.
func ConnLogSeries(probe ProbeID, entries []ConnLogEntry, lits *V6Interner) ([]ConnLogSample, error) {
	room := uint64(len(lits.t.bytes)) // and the bytes of every literal, repeats included
	for _, e := range entries {
		if e.Probe != probe {
			return nil, fmt.Errorf("atlasdata: probe %d connection logs contain a record for probe %d", probe, e.Probe)
		}
		if err := checkConnTimes(probe, e.Start, e.End); err != nil {
			return nil, err
		}
		if e.Family != V6 {
			continue
		}
		if room += uint64(len(e.V6Addr)); room > math.MaxUint32 {
			return nil, fmt.Errorf("atlasdata: probe %d connection logs overflow the IPv6 literal table", probe)
		}
	}
	out := make([]ConnLogSample, len(entries))
	for i, e := range entries {
		out[i] = e.Sample(lits)
	}
	return out, nil
}

// V6Table holds the IPv6 address literals of a Dataset's connection
// logs, each once, in the order they were first interned: equal
// literals share one index, which an IPv6 ConnLogSample holds. It holds
// no pointer: the literals' bytes one after another, 4 GiB at most, and
// where each ends. A V6Interner adds to it; the zero V6Table is empty.
type V6Table struct {
	bytes []byte
	ends  []uint32
}

// Literal returns the literal at index i, "" if the table holds none
// there. The literal shares the table's bytes, which are never
// rewritten: a table only grows, and growing copies them.
func (t *V6Table) Literal(i uint32) string {
	if uint64(i) >= uint64(len(t.ends)) {
		return ""
	}
	var start uint32
	if i > 0 {
		start = t.ends[i-1]
	}
	if start == t.ends[i] {
		return ""
	}
	return unsafe.String(&t.bytes[start], t.ends[i]-start)
}

// Len is the number of literals in the table.
func (t *V6Table) Len() int { return len(t.ends) }

// fits reports whether the table has room for lit's bytes.
func (t *V6Table) fits(lit string) bool {
	return uint64(len(t.bytes))+uint64(len(lit)) <= math.MaxUint32
}

// V6Interner adds literals to a V6Table, each once.
type V6Interner struct {
	t     *V6Table
	index map[string]uint32 // keys share t's bytes
}

// NewV6Interner returns an interner adding to t, which already holds
// what it holds.
func NewV6Interner(t *V6Table) *V6Interner {
	in := &V6Interner{t: t, index: make(map[string]uint32, t.Len())}
	for i := range uint32(t.Len()) {
		in.index[t.Literal(i)] = i
	}
	return in
}

// Intern returns lit's index in the interner's table, adding lit if the
// table holds no equal literal. It panics if the table has no room for
// lit: the table's 4 GiB outgrows any input its callers check.
func (in *V6Interner) Intern(lit string) uint32 {
	if i, ok := in.index[lit]; ok {
		return i
	}
	t := in.t
	if !t.fits(lit) {
		panic("atlasdata: V6Table full")
	}
	t.bytes = append(t.bytes, lit...)
	t.ends = append(t.ends, uint32(len(t.bytes)))
	i := uint32(len(t.ends) - 1)
	in.index[t.Literal(i)] = i
	return i
}

// reset empties the interner and its table, keeping their memory.
func (in *V6Interner) reset() {
	clear(in.index) // before the bytes its keys share are rewritten
	in.t.bytes, in.t.ends = in.t.bytes[:0], in.t.ends[:0]
}

// KRootRound is one built-in measurement round from the k-root ping
// dataset (paper Table 3): three pings to k-root every ~4 minutes plus
// the probe's LTS ("last time synchronised") value in seconds.
//
// K-root rounds are most of every dataset, so the fields are as narrow
// as the wire format's: 24 bytes, with nothing padded. NewKRootRound is
// the one place that checks a wider value against that range.
type KRootRound struct {
	Probe     ProbeID
	Timestamp simclock.Time
	// LTS is the number of seconds since the probe last synchronised its
	// clock with the controller. In normal operation it stays below ~240;
	// it grows across a network outage.
	LTS     int32
	Sent    uint16
	Success uint16
}

// CheckProbeID refuses a probe ID outside 0 to 2³²-1, the binary wire
// format's range. Every decoder of probe IDs but the wire format's own
// makes this check, so every record any of them accepts can be logged
// and replayed.
func CheckProbeID(probe ProbeID) error {
	if probe < 0 || int64(probe) > math.MaxUint32 {
		return fmt.Errorf("atlasdata: probe ID %d outside 0-%d", probe, uint32(math.MaxUint32))
	}
	return nil
}

// InUnix32 reports whether t is within 0 to 2³²-1 Unix seconds (until
// February 2106): the range of k-root timestamps and connection-log
// times in every format, which a Dataset stores rounds in and a
// detector keeps gaps and rounds in.
func InUnix32(t simclock.Time) bool { return uint64(t) <= math.MaxUint32 }

// checkKRootTime refuses a k-root timestamp outside InUnix32's range,
// the range a Dataset stores rounds in (KRootSample).
func checkKRootTime(probe ProbeID, ts simclock.Time) error {
	if !InUnix32(ts) {
		return fmt.Errorf("atlasdata: k-root round for probe %d has timestamp %d outside 0-%d", probe, int64(ts), uint32(math.MaxUint32))
	}
	return nil
}

// NewKRootRound builds a round from decoded values, refusing a probe ID
// outside u32 (CheckProbeID), a timestamp outside u32 (checkKRootTime),
// counts outside 0-65535 and an LTS outside int32 (the binary wire
// format's ranges), then validates it. Every decoder of k-root values
// but the wire format's own goes through it.
func NewKRootRound(probe ProbeID, ts simclock.Time, sent, success int, lts int64) (KRootRound, error) {
	if err := CheckProbeID(probe); err != nil {
		return KRootRound{}, err
	}
	if err := checkKRootTime(probe, ts); err != nil {
		return KRootRound{}, err
	}
	if sent < 0 || sent > math.MaxUint16 || success < 0 || success > math.MaxUint16 {
		return KRootRound{}, fmt.Errorf("atlasdata: k-root round for probe %d has %d/%d successes, outside 0-%d", probe, success, sent, math.MaxUint16)
	}
	if lts < math.MinInt32 || lts > math.MaxInt32 {
		return KRootRound{}, fmt.Errorf("atlasdata: k-root round for probe %d has LTS %d outside int32", probe, lts)
	}
	k := KRootRound{Probe: probe, Timestamp: ts, LTS: int32(lts), Sent: uint16(sent), Success: uint16(success)}
	return k, k.Validate()
}

// AllLost reports whether every ping in the round was lost — the paper's
// per-round outage signal.
func (k KRootRound) AllLost() bool { return k.Sent > 0 && k.Success == 0 }

// Validate checks internal consistency.
func (k KRootRound) Validate() error {
	if k.Success > k.Sent {
		return fmt.Errorf("atlasdata: k-root round for probe %d has %d/%d successes", k.Probe, k.Success, k.Sent)
	}
	if k.LTS < 0 {
		return fmt.Errorf("atlasdata: k-root round for probe %d has negative LTS", k.Probe)
	}
	return nil
}

// KRootSample is a k-root round as a Dataset stores it, filed under its
// probe's key: the round without its probe ID, its timestamp as unsigned
// 32-bit Unix seconds (checkKRootTime's range, good until 2106), 12
// bytes. Rounds are most of every dataset, so the key is not repeated in
// each of them.
type KRootSample struct {
	Timestamp uint32
	LTS       int32
	Sent      uint16
	Success   uint16
}

// Sample is the round as a Dataset stores it. The round's timestamp must
// be within checkKRootTime's range; KRootSeries checks it.
func (k KRootRound) Sample() KRootSample {
	return KRootSample{Timestamp: uint32(k.Timestamp), LTS: k.LTS, Sent: k.Sent, Success: k.Success}
}

// Time is the sample's timestamp.
func (s KRootSample) Time() simclock.Time { return simclock.Time(s.Timestamp) }

// Round is the sample as probe's round.
func (s KRootSample) Round(probe ProbeID) KRootRound {
	return KRootRound{Probe: probe, Timestamp: s.Time(), LTS: s.LTS, Sent: s.Sent, Success: s.Success}
}

// KRootSeries is a probe's rounds as a Dataset stores them. It refuses a
// round of another probe rather than file it under probe, and a
// timestamp the sample cannot hold rather than truncate it.
func KRootSeries(probe ProbeID, rounds []KRootRound) ([]KRootSample, error) {
	out := make([]KRootSample, len(rounds))
	for i, k := range rounds {
		if k.Probe != probe {
			return nil, fmt.Errorf("atlasdata: probe %d k-root rounds contain a record for probe %d", probe, k.Probe)
		}
		if err := checkKRootTime(probe, k.Timestamp); err != nil {
			return nil, err
		}
		out[i] = k.Sample()
	}
	return out, nil
}

// UptimeRecord is one SOS-uptime report (paper Table 4): the probe's
// seconds-since-boot counter, reported when the probe (re)connects.
type UptimeRecord struct {
	Probe     ProbeID
	Timestamp simclock.Time
	// Uptime is the value of the probe's boot counter at Timestamp. A
	// value smaller than the previous report implies the probe rebooted
	// Uptime seconds before Timestamp.
	Uptime int64
}

// Validate checks internal consistency.
func (u UptimeRecord) Validate() error {
	if u.Uptime < 0 {
		return fmt.Errorf("atlasdata: negative uptime for probe %d", u.Probe)
	}
	return nil
}

// UptimeSample is an uptime record as a Dataset stores it, filed under
// its probe's key: the record without its probe ID, 16 bytes.
type UptimeSample struct {
	Timestamp simclock.Time
	Uptime    int64
}

// Sample is the record as a Dataset stores it.
func (u UptimeRecord) Sample() UptimeSample {
	return UptimeSample{Timestamp: u.Timestamp, Uptime: u.Uptime}
}

// Record is the sample as probe's uptime record.
func (s UptimeSample) Record(probe ProbeID) UptimeRecord {
	return UptimeRecord{Probe: probe, Timestamp: s.Timestamp, Uptime: s.Uptime}
}

// UptimeSeries is a probe's uptime records as a Dataset stores them. It
// refuses a record of another probe rather than file it under probe.
func UptimeSeries(probe ProbeID, recs []UptimeRecord) ([]UptimeSample, error) {
	out := make([]UptimeSample, len(recs))
	for i, u := range recs {
		if u.Probe != probe {
			return nil, fmt.Errorf("atlasdata: probe %d uptime records contain a record for probe %d", probe, u.Probe)
		}
		out[i] = u.Sample()
	}
	return out, nil
}

// ProbeVersion is the probe hardware generation. Versions 1 and 2 can
// reboot spontaneously when establishing new TCP connections (memory
// fragmentation, paper §5.1), so the power-outage analysis uses only v3.
type ProbeVersion int

// Probe hardware versions deployed during the study year.
const (
	V1 ProbeVersion = 1
	V2 ProbeVersion = 2
	V3 ProbeVersion = 3
)

// Well-known user-provided probe tags the filtering pipeline consumes
// (paper §3.2).
const (
	TagMultihomed = "multihomed"
	TagDatacentre = "datacentre"
	TagCore       = "core"
)

// ProbeMeta is the probe-archive record for one probe: the fields of the
// RIPE Atlas probe API the analysis consumes.
type ProbeMeta struct {
	ID      ProbeID      `json:"id"`
	Country string       `json:"country_code"`
	Version ProbeVersion `json:"version"`
	Tags    []string     `json:"tags,omitempty"`
	// ConnectedDays is the aggregate number of days the probe was
	// connected during the study year; the paper keeps probes with more
	// than 30 days.
	ConnectedDays float64 `json:"connected_days"`
}

// HasTag reports whether the probe carries the given user tag.
func (p ProbeMeta) HasTag(tag string) bool {
	for _, t := range p.Tags {
		if t == tag {
			return true
		}
	}
	return false
}

// Validate checks internal consistency.
func (p ProbeMeta) Validate() error {
	if p.ID <= 0 {
		return fmt.Errorf("atlasdata: probe ID %d out of range", p.ID)
	}
	switch p.Version {
	case V1, V2, V3:
	default:
		return fmt.Errorf("atlasdata: probe %d has unknown version %d", p.ID, p.Version)
	}
	if p.ConnectedDays < 0 {
		return fmt.Errorf("atlasdata: probe %d has negative connected days", p.ID)
	}
	if math.IsNaN(p.ConnectedDays) || math.IsInf(p.ConnectedDays, 1) {
		return fmt.Errorf("atlasdata: probe %d has non-finite connected days %v", p.ID, p.ConnectedDays)
	}
	return nil
}
