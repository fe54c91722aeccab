package core

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"

	"dynaddr/internal/asdb"
	"dynaddr/internal/atlasdata"
	"dynaddr/internal/ip4"
	"dynaddr/internal/pfx2as"
	"dynaddr/internal/simclock"
	"dynaddr/internal/stats"
)

// Machine is one probe's detector: the paper's per-probe detection
// (§3), fed record by record in the probe's time order. From the
// connection log it keeps the Table 2 filter's features, address
// changes with their home-AS state, and the change-bounded address
// durations with their total-time fraction; from the k-root rounds the
// qualified loss runs (network outages); from the uptime records the
// counter resets (reboots); and it links each change to outage
// evidence inside its gap. With KeepEvents it also keeps the event
// lists the outage, periodic and prefix analyses read: closed
// durations, gaps, network outages, reboots with their surrounding
// k-root silence, and the probe's Table 7 row.
//
// A stream shard feeds it record by record as records arrive; Detect
// feeds it a finished dataset's records in the merged order of
// Dataset.EachRecord, for Run, Filter and liveanalysis.FromBatch. A
// batch answer is therefore the live answer at the end of the input.
//
// The zero Machine is a probe with no records. The exported fields are
// the state a checkpoint stores; after loading them, call Restore.
//
// The event lists only grow: no element below a length the machine has
// published is rewritten, except a RebootGap still Open, which the next
// round after its reboot resolves in place. SharedEvents relies on this
// to hand out the lists without copying them.
type Machine struct {
	Probe atlasdata.ProbeID
	// KeepEvents keeps the event lists (RawHours through Watermark).
	KeepEvents bool

	// Raw-log features, read before the testing-entry strip.
	RawEntries    int
	V4Count       int
	V6Count       int
	ConnectedSecs int64
	// MixedAddrs is set once the raw log holds an IPv6 entry or a
	// second IPv4 address.
	MixedAddrs  bool
	FirstV4Addr ip4.Addr
	// RunCount counts, per address, the runs of equal IPv4 addresses in
	// the raw log (the behavioural multihomed test), in ascending
	// address order; nil until the first IPv4 entry. Once it holds
	// runTailFrom addresses, new ones wait in runTail until RunCounts
	// merges them in.
	RunCount    []RunCount
	RunPrevAddr uint32
	RunTotal    int

	// Changes, gaps and durations are read from the log with a leading
	// testing-address entry stripped (§3.3).
	Stripped      bool
	PrevSet       bool
	PrevIsV4      bool
	PrevAddr      ip4.Addr
	PrevEnd       simclock.Time
	LastConnStart simclock.Time
	LastConnEnd   simclock.Time
	Seg           AddrRun

	Changes int64
	// TTF is the total-time fraction of the closed durations (§4.1).
	TTF          stats.Weighted
	HomeASN      asdb.ASN
	HomeConflict bool // changes touched two different routed ASes
	MultiAS      bool // some change crossed ASes

	// The outage-change correlator: whether evidence of an outage lies
	// inside the latest change's gap.
	HasGap        bool
	LastGap       Span
	LastGapLinked bool
	OutageLinked  int64
	RecentOutages []Span          // ring of RecentEvidence, newest last
	RecentReboots []simclock.Time // ring of RecentEvidence, newest last

	Loss         LossRun
	NetworkCount int64
	LastKRoot    simclock.Time
	KRootSeen    bool

	UpSeen      bool
	PrevBoot    simclock.Time
	LastUptime  simclock.Time
	RebootCount int64

	// RawHours are the closed durations in hours, in close order,
	// non-positive ones included (they count toward the periodic
	// classifier's minimum-durations gate but carry no TTF mass).
	RawHours []float64
	Gaps     []GapEvent
	Networks []NetworkOutage
	Reboots  []Reboot
	// RebootGaps is index-aligned with Reboots.
	RebootGaps []RebootGap
	Prefix     PrefixChangeRow
	// Rounds is the retained k-root round deque (see Uptime), in Unix
	// seconds, and Watermark the uptime report it was last pruned
	// against.
	Rounds    []uint32
	Watermark simclock.Time

	// pending indexes the RebootGaps still Open, ascending; Restore
	// rebuilds it from the Open flags.
	pending []int
	// runTail holds, in ascending address order, the run counts of
	// addresses RunCount does not hold yet: at most about the square
	// root of RunCount's length, so that a new address costs a shift of
	// the tail and, amortised, a share of one merge.
	runTail []RunCount
}

// AddrRun is the open same-address run inside the current IPv4 segment
// of the stripped log. A run is Bounded when it began at an observed
// address change; only bounded runs that also end at one are durations.
type AddrRun struct {
	Active, Bounded bool
	Addr            ip4.Addr
	Start, End      simclock.Time
}

// LossRun is an open run of all-lost k-root rounds.
type LossRun struct {
	Active            bool
	Start, End        simclock.Time
	FirstLTS, LastLTS int64
	Rounds            int
}

// Span is a closed time interval.
type Span struct{ From, To simclock.Time }

func (s Span) overlaps(o Span) bool { return !s.To.Before(o.From) && !o.To.Before(s.From) }

func (s Span) contains(t simclock.Time) bool { return !t.Before(s.From) && !t.After(s.To) }

// RunCount is one address's number of runs in the raw log, 8 bytes.
type RunCount struct{ Addr, N uint32 }

// GapEvent is one inter-connection gap of the stripped log: the span
// and whether the IPv4 address changed across it. Its cause is
// assigned only when the outage analysis runs (ProbeEvents.Outages),
// because firmware filtering reshapes the power evidence after the
// fact.
//
// Gaps are most of a detector's state, so the times are unsigned 32-bit
// Unix seconds (good until 2106), 12 bytes in all: a machine refuses a
// connection-log entry outside that range (and a checkpoint, a previous
// session end outside it), and NewGapEvent is the one range check for a
// gap built elsewhere.
type GapEvent struct {
	prevEnd, nextStart uint32
	Changed            bool
}

// NewGapEvent builds a gap, refusing a time outside 0 to 2³²-1 Unix
// seconds rather than truncating it.
func NewGapEvent(prevEnd, nextStart simclock.Time, changed bool) (GapEvent, error) {
	if !atlasdata.InUnix32(prevEnd) || !atlasdata.InUnix32(nextStart) {
		return GapEvent{}, fmt.Errorf("core: gap %d-%d outside 0-%d", int64(prevEnd), int64(nextStart), uint32(math.MaxUint32))
	}
	return GapEvent{prevEnd: uint32(prevEnd), nextStart: uint32(nextStart), Changed: changed}, nil
}

// PrevEnd is the end of the session before the gap.
func (g GapEvent) PrevEnd() simclock.Time { return simclock.Time(g.prevEnd) }

// NextStart is the start of the session after the gap.
func (g GapEvent) NextStart() simclock.Time { return simclock.Time(g.nextStart) }

// gapJSON is a gap's JSON form in the JSON peer view: its span as two
// simclock times named after the accessors, and Changed.
type gapJSON struct {
	PrevEnd   simclock.Time
	NextStart simclock.Time
	Changed   bool
}

// MarshalJSON writes the gap as gapJSON.
func (g GapEvent) MarshalJSON() ([]byte, error) {
	return json.Marshal(gapJSON{PrevEnd: g.PrevEnd(), NextStart: g.NextStart(), Changed: g.Changed})
}

// UnmarshalJSON reads a gapJSON through NewGapEvent's range check.
func (g *GapEvent) UnmarshalJSON(b []byte) error {
	var j gapJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	v, err := NewGapEvent(j.PrevEnd, j.NextStart, j.Changed)
	if err != nil {
		return err
	}
	*g = v
	return nil
}

// RecentEvidence bounds the rings of closed outages and reboots kept
// for gap correlation. Changes arrive close in time to the outage that
// caused them, so a short memory suffices.
const RecentEvidence = 8

// ltsSyncBound is the LTS value above which a probe has clearly missed
// its controller sync (normal reporting keeps LTS under ~240 s).
const ltsSyncBound = 240

// Conn feeds one connection-log entry. An entry starting before the
// previous one ended breaks the probe's time order and is refused
// (false), as Dataset.Validate refuses overlaps; so is one with a time
// outside 0 to 2³²-1 Unix seconds, which every decoder of connection
// logs refuses (atlasdata.NewConnLogEntry). pfx maps change
// endpoints to origin ASes (nil maps none); churn, when non-nil, also
// counts every change by study day.
func (m *Machine) Conn(e atlasdata.ConnLogEntry, pfx *pfx2as.SnapshotStore, churn *ChurnTable) bool {
	return m.conn(e, pfx, churn, nil)
}

// conn is Conn; asns, when non-nil, also gets each change's endpoint
// ASes, in change order.
func (m *Machine) conn(e atlasdata.ConnLogEntry, pfx *pfx2as.SnapshotStore, churn *ChurnTable, asns *[]EndpointASNs) bool {
	if m.RawEntries > 0 && e.Start.Before(m.LastConnEnd) || !atlasdata.InUnix32(e.Start) || !atlasdata.InUnix32(e.End) {
		return false
	}
	m.LastConnStart = e.Start
	m.LastConnEnd = e.End

	m.RawEntries++
	m.ConnectedSecs += int64(e.End.Sub(e.Start))
	v4 := e.IsV4()
	if v4 {
		m.V4Count++
		if m.V4Count == 1 {
			m.FirstV4Addr = e.Addr
		} else if e.Addr != m.FirstV4Addr {
			m.MixedAddrs = true
		}
		if a := uint32(e.Addr); m.RunTotal == 0 || a != m.RunPrevAddr {
			m.countRun(a)
			m.RunPrevAddr = a
			m.RunTotal++
		}
	} else {
		m.V6Count++
		m.MixedAddrs = true
	}

	if m.RawEntries == 1 && v4 && e.Addr == ip4.TestingAddr {
		m.Stripped = true
		return true
	}

	// A change is two directly consecutive IPv4 entries with different
	// addresses: an IPv6 session in between hides when (or whether) the
	// IPv4 address changed (§3.2).
	if m.PrevSet {
		changed := m.PrevIsV4 && v4 && e.Addr != m.PrevAddr
		if m.KeepEvents {
			m.Gaps = append(m.Gaps, GapEvent{prevEnd: uint32(m.PrevEnd), nextStart: uint32(e.Start), Changed: changed})
		}
		if changed {
			m.change(m.PrevAddr, e.Addr, m.PrevEnd, e.Start, pfx, churn, asns)
		}
	}

	// Durations are the interior runs of maximal IPv4 segments: a run
	// closes, and yields a duration if a change also opened it, when a
	// different address arrives in the same segment. An IPv6 entry ends
	// the segment and drops the open run, whose extent is unknowable.
	if v4 {
		switch {
		case m.Seg.Active && m.Seg.Addr == e.Addr:
			m.Seg.End = e.End
		case m.Seg.Active:
			if m.Seg.Bounded {
				m.closeDuration()
			}
			m.Seg = AddrRun{Active: true, Bounded: true, Addr: e.Addr, Start: e.Start, End: e.End}
		default:
			m.Seg = AddrRun{Active: true, Addr: e.Addr, Start: e.Start, End: e.End}
		}
	} else {
		m.Seg = AddrRun{}
	}

	m.PrevSet = true
	m.PrevIsV4 = v4
	m.PrevAddr = e.Addr
	m.PrevEnd = e.End
	return true
}

// runTailFrom is how many addresses RunCount holds before new ones go to
// runTail: below it a new address shifts at most this many entries.
const runTailFrom = 256

// countRun counts a run of address a. An address RunCount or runTail
// holds is found by binary search. A new one is inserted in address
// order into RunCount while that is short, and into runTail after; a
// full tail is merged into RunCount, so a probe that keeps getting new
// addresses costs about the square root of their number per address,
// not their number.
func (m *Machine) countRun(a uint32) {
	i, ok := findRun(m.RunCount, a)
	if ok {
		m.RunCount[i].N++
		return
	}
	if len(m.RunCount) < runTailFrom {
		m.RunCount = insertRun(m.RunCount, i, a)
		return
	}
	if i, ok = findRun(m.runTail, a); ok {
		m.runTail[i].N++
		return
	}
	m.runTail = insertRun(m.runTail, i, a)
	if len(m.runTail)*len(m.runTail) > len(m.RunCount) {
		m.mergeRuns()
	}
}

// findRun returns where a is, or belongs, in rc, which is in address
// order, and whether rc holds it.
func findRun(rc []RunCount, a uint32) (int, bool) {
	lo, hi := 0, len(rc)
	for lo < hi {
		if h := int(uint(lo+hi) >> 1); rc[h].Addr < a {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo, lo < len(rc) && rc[lo].Addr == a
}

// insertRun inserts a first run of a at i in rc, which is in address
// order, shifting the larger addresses up.
func insertRun(rc []RunCount, i int, a uint32) []RunCount {
	rc = append(rc, RunCount{})
	copy(rc[i+1:], rc[i:])
	rc[i] = RunCount{Addr: a, N: 1}
	return rc
}

// mergeRuns merges runTail into RunCount, in RunCount's own array once
// it has grown by the tail: from the largest tail address down, the run
// counts above it move up, past the tail entries still to place, in one
// copy.
func (m *Machine) mergeRuns() {
	tail := m.runTail
	if len(tail) == 0 {
		return
	}
	hi := len(m.RunCount) // m.RunCount[:hi] has not moved
	rc := slices.Grow(m.RunCount, len(tail))[:hi+len(tail)]
	for j := len(tail) - 1; j >= 0; j-- {
		lo, _ := findRun(rc[:hi], tail[j].Addr)
		copy(rc[lo+j+1:], rc[lo:hi])
		rc[lo+j] = tail[j]
		hi = lo
	}
	m.RunCount, m.runTail = rc, tail[:0]
}

// RunCounts returns RunCount with every address counted so far merged
// in, in address order: what a checkpoint stores.
func (m *Machine) RunCounts() []RunCount {
	m.mergeRuns()
	return m.RunCount
}

// closeDuration folds the closing run into the TTF: weight d at the
// hour-quantised value.
func (m *Machine) closeDuration() {
	hours := m.Seg.End.Sub(m.Seg.Start).Hours()
	if m.KeepEvents {
		m.RawHours = append(m.RawHours, hours)
	}
	if hours > 0 {
		m.TTF.Add(QuantizeHours(hours), hours)
	}
}

// change records an address change across the gap (prevEnd,
// nextStart): its endpoints' month-matched origin ASes and prefixes
// (§6), the home-AS state (§3.3) and the gap's outage evidence.
func (m *Machine) change(from, to ip4.Addr, prevEnd, nextStart simclock.Time, pfx *pfx2as.SnapshotStore, churn *ChurnTable, asns *[]EndpointASNs) {
	m.Changes++
	var fromASN, toASN asdb.ASN
	var fromPfx, toPfx ip4.Prefix
	var okFrom, okTo bool
	if pfx != nil {
		fromASN, fromPfx, okFrom = pfx.Lookup(from, prevEnd)
		toASN, toPfx, okTo = pfx.Lookup(to, nextStart)
	}
	if asns != nil {
		*asns = append(*asns, EndpointASNs{From: fromASN, To: toASN})
	}
	routed := okFrom && okTo
	if m.KeepEvents {
		m.Prefix.addChange(from, to, fromPfx, toPfx, routed)
	}
	if churn != nil {
		churn.Row(nextStart).addChange(from, to, fromPfx, toPfx, routed)
	}
	if fromASN != toASN {
		m.MultiAS = true
	}
	for _, asn := range [2]asdb.ASN{fromASN, toASN} {
		if asn == 0 {
			continue
		}
		if m.HomeASN == 0 {
			m.HomeASN = asn
		} else if m.HomeASN != asn {
			m.HomeConflict = true
		}
	}

	gap := Span{From: prevEnd, To: nextStart}
	m.HasGap = true
	m.LastGap = gap
	m.LastGapLinked = m.gapHasEvidence(gap)
	if m.LastGapLinked {
		m.OutageLinked++
	}
}

// gapHasEvidence reports whether outage evidence seen so far falls
// inside the gap: an open or recently closed loss run overlapping it,
// or a recent reboot whose boot instant lies within it.
func (m *Machine) gapHasEvidence(gap Span) bool {
	if m.Loss.Active && gap.overlaps(Span{From: m.Loss.Start, To: m.Loss.End}) {
		return true
	}
	for _, o := range m.RecentOutages {
		if gap.overlaps(o) {
			return true
		}
	}
	for _, t := range m.RecentReboots {
		if gap.contains(t) {
			return true
		}
	}
	return false
}

// linkEvidence links the latest change's gap to newly arrived evidence
// inside it. Evidence can trail the change (the closing good round
// arrives after the session re-establishes), so correlation runs both
// ways.
func (m *Machine) linkEvidence(ev Span) {
	if m.HasGap && !m.LastGapLinked && m.LastGap.overlaps(ev) {
		m.LastGapLinked = true
		m.OutageLinked++
	}
}

// KRoot feeds one k-root round; a round older than the previous one is
// refused (false), and so is one outside 0 to 2³²-1 Unix seconds, which
// every decoder of k-root rounds refuses (atlasdata.NewKRootRound).
func (m *Machine) KRoot(k atlasdata.KRootRound) bool {
	if m.KRootSeen && k.Timestamp.Before(m.LastKRoot) || !atlasdata.InUnix32(k.Timestamp) {
		return false
	}
	m.KRootSeen = true
	m.LastKRoot = k.Timestamp
	if m.KeepEvents {
		// Reboot gaps care about round presence, not outcome.
		m.Rounds = append(m.Rounds, uint32(k.Timestamp))
		if len(m.pending) > 0 {
			m.resolvePending(k.Timestamp)
		}
	}
	if !k.AllLost() {
		if m.Loss.Active {
			m.closeLossRun()
		}
		return true
	}
	if !m.Loss.Active {
		m.Loss = LossRun{Active: true, Start: k.Timestamp, End: k.Timestamp, FirstLTS: int64(k.LTS), LastLTS: int64(k.LTS), Rounds: 1}
	} else {
		m.Loss.End = k.Timestamp
		m.Loss.LastLTS = int64(k.LTS)
		m.Loss.Rounds++
	}
	return true
}

// closeLossRun ends the open loss run and keeps it if it qualifies.
func (m *Machine) closeLossRun() {
	run := m.Loss
	m.Loss = LossRun{}
	n, ok := m.qualify(run)
	if !ok {
		return
	}
	m.NetworkCount++
	if m.KeepEvents {
		m.Networks = append(m.Networks, n)
	}
	ev := Span{From: run.Start, To: run.End}
	m.RecentOutages = appendRing(m.RecentOutages, ev)
	m.linkEvidence(ev)
}

// qualify applies the paper's network-outage rule to a loss run (§3.4,
// Table 3): the LTS grows across a multi-round run, or exceeds the sync
// bound in a single-round one — two independent signals agreeing. The
// first and last all-lost rounds bound the outage, which under-states
// it by up to two round intervals, the paper's stated error.
func (m *Machine) qualify(run LossRun) (NetworkOutage, bool) {
	if !run.Active {
		return NetworkOutage{}, false
	}
	ok := run.FirstLTS > ltsSyncBound
	if run.Rounds > 1 {
		ok = run.LastLTS > run.FirstLTS
	}
	return NetworkOutage{Probe: m.Probe, Start: run.Start, End: run.End}, ok
}

// Uptime feeds one SOS-uptime record; a record older than the previous
// one is refused (false). Each record implies a boot instant, timestamp
// minus counter, and a boot instant later than the previous one by
// more than BootSlack is a reboot (§3.5, Table 4).
func (m *Machine) Uptime(u atlasdata.UptimeRecord) bool {
	if m.UpSeen && u.Timestamp.Before(m.LastUptime) {
		return false
	}
	m.LastUptime = u.Timestamp
	boot := u.Timestamp.Add(-simclock.Duration(u.Uptime))
	if m.UpSeen && boot.Sub(m.PrevBoot) > BootSlack {
		m.RebootCount++
		if m.KeepEvents {
			m.reboot(boot)
		}
		m.RecentReboots = appendRing(m.RecentReboots, boot)
		m.linkEvidence(Span{From: boot, To: boot})
	}
	if !m.UpSeen || boot.After(m.PrevBoot) {
		m.PrevBoot = boot
	}
	m.UpSeen = true
	if m.KeepEvents {
		m.prune(u.Timestamp)
	}
	return true
}

// Reboot-gap resolution needs, for each reboot, the last k-root round
// at or before the boot instant and the first one after: history and
// the future. The machine keeps a deque of round times for the first,
// resolves the second when a later round arrives (the gap stays Open
// until then), and prunes the deque against the uptime watermark: a
// later reboot's boot instant cannot precede the latest uptime report
// by more than the clock slack (that report would have shown the new
// counter), so rounds older than that, bar the newest of them, are
// never needed again. Memory stays bounded by the reporting cadence,
// and resolution stays exact for truthful uptime counters.

// reboot records a reboot and resolves its k-root silence against the
// retained rounds: the last round at or before the boot instant (or
// boot minus the ping-gap threshold when none), the first one after
// (or Open until one arrives).
func (m *Machine) reboot(at simclock.Time) {
	i := sort.Search(len(m.Rounds), func(k int) bool { return simclock.Time(m.Rounds[k]).After(at) })
	g := RebootGap{Start: at.Add(-PingGapThreshold)}
	if i > 0 {
		g.Start = simclock.Time(m.Rounds[i-1])
	}
	if i < len(m.Rounds) {
		g.End = simclock.Time(m.Rounds[i])
	} else {
		g.Open = true
		m.pending = append(m.pending, len(m.Reboots))
	}
	m.Reboots = append(m.Reboots, Reboot{Probe: m.Probe, At: at})
	m.RebootGaps = append(m.RebootGaps, g)
}

// resolvePending closes the open reboot gaps a new round bounds;
// reboots are detected in boot order, so they resolve front first.
func (m *Machine) resolvePending(ts simclock.Time) {
	for len(m.pending) > 0 {
		i := m.pending[0]
		if !ts.After(m.Reboots[i].At) {
			break
		}
		m.RebootGaps[i].End = ts
		m.RebootGaps[i].Open = false
		m.pending = m.pending[1:]
	}
}

// prune drops every round older than the watermark except the newest
// of them. The doubled slack leaves margin on both the old and the new
// boot-instant estimate.
func (m *Machine) prune(ts simclock.Time) {
	m.Watermark = ts
	if len(m.Rounds) < 2 {
		return
	}
	w := ts.Add(-2 * BootSlack)
	// A front scan: the pruned deque holds about one reporting
	// interval's rounds.
	i := 0
	for i < len(m.Rounds) && !simclock.Time(m.Rounds[i]).After(w) {
		i++
	}
	if i > 1 {
		n := copy(m.Rounds, m.Rounds[i-1:])
		m.Rounds = m.Rounds[:n]
	}
}

// Restore rebuilds the derived open-gap queue after the exported
// fields were loaded from a checkpoint.
func (m *Machine) Restore() {
	if len(m.runTail) > 0 {
		// A copy of a machine shares its tail: merge into arrays of its own.
		m.RunCount = slices.Clone(m.RunCount)
		m.mergeRuns()
	}
	m.runTail = nil
	m.pending = nil
	for i := range m.RebootGaps {
		if m.RebootGaps[i].Open {
			m.pending = append(m.pending, i)
		}
	}
}

func appendRing[T any](ring []T, v T) []T {
	if len(ring) >= RecentEvidence {
		copy(ring, ring[1:])
		ring[len(ring)-1] = v
		return ring
	}
	return append(ring, v)
}

// ConnectedDays is the probe's aggregate connected time in days: the
// metadata's figure, but never less than what the records themselves
// add up to (live registration may precede the records).
func (m *Machine) ConnectedDays(meta atlasdata.ProbeMeta) float64 {
	return max(meta.ConnectedDays, float64(m.ConnectedSecs)/86400)
}

// Category places the probe in the paper's Table 2 pipeline (§3.2-3.3).
// Categories are exclusive and tried in order; the family filters come
// before the address tests because a dual-stack log cannot bound IPv4
// durations at all.
func (m *Machine) Category(meta atlasdata.ProbeMeta) Category {
	switch {
	case m.ConnectedDays(meta) <= minConnectedDays:
		return CatShortLived
	case m.V4Count == 0 && m.V6Count > 0:
		return CatIPv6Only
	case m.V6Count > 0:
		return CatDualStack
	case m.RawEntries > 0 && !m.MixedAddrs:
		// One IPv4 address all year, a testing entry included: never
		// changed.
		return CatNeverChanged
	case meta.HasTag(atlasdata.TagMultihomed) || meta.HasTag(atlasdata.TagDatacentre) || meta.HasTag(atlasdata.TagCore):
		return CatTaggedMultihomed
	case m.alternating():
		return CatBehaviouralMultihomed
	case m.Changes == 0 && m.Stripped:
		return CatTestingOnly
	case m.Changes == 0:
		return CatNeverChanged
	}
	return CatAnalyzable
}

// alternating is the behavioural multihomed detector (§3.2): the log
// alternates between one fixed address and others. If some address
// keeps coming back — at least three separated runs covering a quarter
// of all runs — the probe switches uplinks rather than being renumbered,
// because ISPs essentially never hand the same address back repeatedly.
func (m *Machine) alternating() bool {
	if m.RunTotal < 5 {
		return false
	}
	for _, rc := range [2][]RunCount{m.RunCount, m.runTail} {
		for _, r := range rc {
			if c := r.N; c >= 3 && float64(c) >= 0.25*float64(m.RunTotal) {
				return true
			}
		}
	}
	return false
}

// Home returns the probe's home AS: the one AS its changes touched, or
// 0 when they touched several or none was routed.
func (m *Machine) Home() asdb.ASN {
	if m.HomeConflict {
		return 0
	}
	return m.HomeASN
}

// ProbeEvents is one analyzable probe's event state, frozen: what the
// outage, periodic and prefix analyses read of a probe. FoldEvents
// reads it, in Run over a finished dataset and in the live analysis at a
// snapshot barrier.
type ProbeEvents struct {
	Probe atlasdata.ProbeID
	// ASN is the probe's home AS when single-AS and routed, else 0.
	ASN uint32
	// MultiAS excludes the probe from AS-level aggregation (§3.3).
	MultiAS bool
	// V3 gates the power-outage counting (§5.1).
	V3 bool
	// HasChanges reports at least one observed IPv4 address change.
	HasChanges bool

	RawHours []float64
	Gaps     []GapEvent
	// Networks includes a loss run still open at the freeze, qualified
	// as if the input ended there.
	Networks []NetworkOutage
	// Reboots and RebootGaps are index-aligned; a gap with no round
	// after its reboot yet is Open.
	Reboots    []Reboot
	RebootGaps []RebootGap
	Prefix     PrefixChangeRow
}

// Events freezes the machine's event lists into exact-size copies, so
// the machine may go on while the copy is read. A freeze is an end of
// input for the records seen so far: an open loss run is qualified as if
// it closed. The batch analyses, whose machine ends with the call, use it:
// a copy lets the machine's append slack go with it.
func (m *Machine) Events(meta atlasdata.ProbeMeta) ProbeEvents {
	return m.freeze(meta, ProbeEvents{
		RawHours:   append([]float64(nil), m.RawHours...),
		Gaps:       append([]GapEvent(nil), m.Gaps...),
		Networks:   append([]NetworkOutage(nil), m.Networks...),
		Reboots:    append([]Reboot(nil), m.Reboots...),
		RebootGaps: append([]RebootGap(nil), m.RebootGaps...),
	})
}

// SharedEvents is Events without the copies, for a machine that goes on
// while the freeze is read: the event lists are the machine's own,
// clipped to their length, so the machine's appends never write where a
// reader looks and a reader's appends reallocate. RebootGaps is copied
// while a gap is still Open, as the machine resolves open gaps in place.
// The lists are read-only.
func (m *Machine) SharedEvents(meta atlasdata.ProbeMeta) ProbeEvents {
	gaps := slices.Clip(m.RebootGaps)
	if len(m.pending) > 0 {
		gaps = append([]RebootGap(nil), m.RebootGaps...)
	}
	return m.freeze(meta, ProbeEvents{
		RawHours:   slices.Clip(m.RawHours),
		Gaps:       slices.Clip(m.Gaps),
		Networks:   slices.Clip(m.Networks),
		Reboots:    slices.Clip(m.Reboots),
		RebootGaps: gaps,
	})
}

// freeze completes ev, which holds the machine's event lists, with the
// probe's fields and the open loss run.
func (m *Machine) freeze(meta atlasdata.ProbeMeta, ev ProbeEvents) ProbeEvents {
	ev.Probe = m.Probe
	ev.ASN = uint32(m.Home())
	ev.MultiAS = m.MultiAS
	ev.V3 = meta.Version == atlasdata.V3
	ev.HasChanges = m.Changes > 0
	ev.Prefix = m.Prefix
	if n, ok := m.qualify(m.Loss); ok {
		ev.Networks = append(ev.Networks, n)
	}
	return ev
}

// Detect feeds one probe's records from ds through a fresh machine
// that keeps its events, in the merged time order of
// Dataset.EachRecord, the order every replay of the probe uses. churn,
// when non-nil, also counts the probe's changes by day.
func Detect(ds *atlasdata.Dataset, id atlasdata.ProbeID, churn *ChurnTable) *Machine {
	return detect(ds, id, churn, nil)
}

// detect is Detect; asns, when non-nil, also gets each change's
// endpoint ASes, in change order.
func detect(ds *atlasdata.Dataset, id atlasdata.ProbeID, churn *ChurnTable, asns *[]EndpointASNs) *Machine {
	f := &batchFeed{m: Machine{Probe: id, KeepEvents: true}, pfx: ds.Pfx2AS, churn: churn, asns: asns}
	ds.EachRecord(id, f) // the feed never fails
	return &f.m
}

// batchFeed adapts a machine to atlasdata.RecordSink. A dataset's
// records are in order, so the machine refuses none of them.
type batchFeed struct {
	m     Machine
	pfx   *pfx2as.SnapshotStore
	churn *ChurnTable
	asns  *[]EndpointASNs
}

func (f *batchFeed) ConnLog(e atlasdata.ConnLogEntry) error {
	f.m.conn(e, f.pfx, f.churn, f.asns)
	return nil
}

func (f *batchFeed) KRoot(k atlasdata.KRootRound) error {
	f.m.KRoot(k)
	return nil
}

func (f *batchFeed) Uptime(u atlasdata.UptimeRecord) error {
	f.m.Uptime(u)
	return nil
}
