package core

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/ip4"
	"dynaddr/internal/simclock"
)

// TestMachineMatchesSliceReference runs every probe of a generated
// world through Detect and checks the machine, list by list, against
// the slice detectors it replaced (reference_test.go).
func TestMachineMatchesSliceReference(t *testing.T) {
	ds := testDataset(t, 11, 0.1).Dataset
	analyzable := 0
	for _, id := range ds.ProbeIDs() {
		meta := ds.Probes[id]
		m := Detect(ds, id, nil)
		ev := m.Events(meta)
		raw, _ := ds.ReadConnLogs(id)
		entries, _ := stripTestingEntry(raw)

		wantCat, wantHome, wantMultiAS := refClassify(ds, meta)
		if got := m.Category(meta); got != wantCat {
			t.Fatalf("probe %d: category %v, reference %v", id, got, wantCat)
		}
		if wantCat == CatAnalyzable {
			analyzable++
			if m.Home() != wantHome || m.MultiAS != wantMultiAS {
				t.Errorf("probe %d: home AS %d multi-AS %v, reference %d %v", id, m.Home(), m.MultiAS, wantHome, wantMultiAS)
			}
			view := &ProbeView{Changes: changesOf(entries)}
			if want := refPrefixChanges(ds, view); m.Prefix != want {
				t.Errorf("probe %d: prefix row %+v, reference %+v", id, m.Prefix, want)
			}
		}
		if m.Changes != int64(len(changesOf(entries))) {
			t.Errorf("probe %d: %d changes, reference %d", id, m.Changes, len(changesOf(entries)))
		}
		var hours []float64
		for _, d := range durationsOf(entries) {
			hours = append(hours, d.Hours())
		}
		if !reflect.DeepEqual(ev.RawHours, hours) {
			t.Errorf("probe %d: durations %v, reference %v", id, ev.RawHours, hours)
		}
		if !reflect.DeepEqual(ev.Gaps, gapSpans(entries)) {
			t.Errorf("probe %d: gaps differ from the reference", id)
		}
		rounds, _ := ds.ReadKRoot(id)
		if want := refNetworkOutages(rounds); !reflect.DeepEqual(ev.Networks, want) {
			t.Errorf("probe %d: network outages %v, reference %v", id, ev.Networks, want)
		}
		ups, _ := ds.ReadUptime(id)
		reboots := refReboots(ups)
		if !reflect.DeepEqual(ev.Reboots, reboots) {
			t.Errorf("probe %d: reboots %v, reference %v", id, ev.Reboots, reboots)
		}
		if want := refRebootGaps(reboots, rounds); len(want) > 0 && !reflect.DeepEqual(ev.RebootGaps, want) {
			t.Errorf("probe %d: reboot gaps %v, reference %v", id, ev.RebootGaps, want)
		}
	}
	if analyzable == 0 {
		t.Fatal("no analyzable probe in the world")
	}
}

// TestEachRecordOrder pins the merged feed order: by time, and on ties
// connection entries, then k-root rounds, then uptime records.
func TestEachRecordOrder(t *testing.T) {
	ds := atlasdata.NewDataset()
	fileLog(ds, 1, []atlasdata.ConnLogEntry{v4e(1, 100, 150, "10.0.0.1"), v4e(1, 300, 400, "10.0.0.2")})
	ds.KRoot[1] = stored(round(100, 3, 10), round(200, 3, 10), round(300, 3, 10))
	ds.Uptime[1] = []atlasdata.UptimeSample{{Timestamp: 50}, {Timestamp: 100}, {Timestamp: 300}}
	var got []string
	rec := func(kind string, ts int64) { got = append(got, fmt.Sprintf("%s:%d", kind, ts)) }
	sink := orderSink{rec}
	if err := ds.EachRecord(1, sink); err != nil {
		t.Fatal(err)
	}
	want := []string{"up:50", "conn:100", "kroot:100", "up:100", "kroot:200", "conn:300", "kroot:300", "up:300"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("order %v, want %v", got, want)
	}
}

type orderSink struct{ rec func(string, int64) }

func (s orderSink) ConnLog(e atlasdata.ConnLogEntry) error { s.rec("conn", int64(e.Start)); return nil }
func (s orderSink) KRoot(k atlasdata.KRootRound) error {
	s.rec("kroot", int64(k.Timestamp))
	return nil
}
func (s orderSink) Uptime(u atlasdata.UptimeRecord) error {
	s.rec("up", int64(u.Timestamp))
	return nil
}

// TestMachineStateSizes pins the layout of a detector's largest lists:
// gaps are most of a live shard's heap, run counts the next largest, and
// the round deque holds every round of a reporting interval.
func TestMachineStateSizes(t *testing.T) {
	if n := unsafe.Sizeof(GapEvent{}); n != 12 {
		t.Errorf("GapEvent is %d bytes, want 12", n)
	}
	if n := unsafe.Sizeof(RunCount{}); n != 8 {
		t.Errorf("RunCount is %d bytes, want 8", n)
	}
	var m Machine
	if n := unsafe.Sizeof(m.Rounds[0]); n != 4 {
		t.Errorf("a machine keeps a k-root round in %d bytes, want 4", n)
	}
}

// TestNewGapEvent: a gap keeps its times in 32 bits, so NewGapEvent
// refuses what they cannot hold rather than truncate it, and the JSON
// form keeps the field names and values of the wider layout.
func TestNewGapEvent(t *testing.T) {
	for _, tc := range []struct {
		prevEnd, nextStart simclock.Time
		ok                 bool
	}{
		{0, 0, true},
		{1, math.MaxUint32, true},
		{-1, 5, false},
		{5, math.MaxUint32 + 1, false},
		{math.MaxUint32 + 1, math.MaxUint32 + 2, false},
	} {
		g, err := NewGapEvent(tc.prevEnd, tc.nextStart, true)
		if (err == nil) != tc.ok {
			t.Errorf("NewGapEvent(%d, %d): %v", tc.prevEnd, tc.nextStart, err)
			continue
		}
		if tc.ok && (g.PrevEnd() != tc.prevEnd || g.NextStart() != tc.nextStart || !g.Changed) {
			t.Errorf("NewGapEvent(%d, %d) = %d, %d, %v", tc.prevEnd, tc.nextStart, g.PrevEnd(), g.NextStart(), g.Changed)
		}
	}

	g, _ := NewGapEvent(100, math.MaxUint32, true)
	b, err := json.Marshal([]GapEvent{g})
	if want := `[{"PrevEnd":100,"NextStart":4294967295,"Changed":true}]`; err != nil || string(b) != want {
		t.Fatalf("JSON %s, %v; want %s", b, err, want)
	}
	var back []GapEvent
	if err := json.Unmarshal(b, &back); err != nil || len(back) != 1 || back[0] != g {
		t.Errorf("JSON round trip %+v, %v", back, err)
	}
	for _, in := range []string{
		`{"PrevEnd":-1,"NextStart":5,"Changed":false}`,
		`{"PrevEnd":1,"NextStart":4294967296,"Changed":false}`,
	} {
		if err := json.Unmarshal([]byte(in), &g); err == nil {
			t.Errorf("JSON gap %s accepted as %+v", in, g)
		}
	}
}

// TestMachineRefusesTimesOutsideUnix32: the machine keeps gap and round
// times in 32 bits, so it refuses a session or round it could not hold
// and its state does not move.
func TestMachineRefusesTimesOutsideUnix32(t *testing.T) {
	m := Machine{Probe: 1, KeepEvents: true}
	for _, e := range []atlasdata.ConnLogEntry{
		{Probe: 1, Start: -1, End: 5, Addr: 9},
		{Probe: 1, Start: 5, End: math.MaxUint32 + 1, Addr: 9},
	} {
		if m.Conn(e, nil, nil) {
			t.Errorf("machine accepted session %d-%d", e.Start, e.End)
		}
	}
	for _, ts := range []simclock.Time{-1, math.MaxUint32 + 1} {
		if m.KRoot(atlasdata.KRootRound{Probe: 1, Timestamp: ts, Sent: 3, Success: 3}) {
			t.Errorf("machine accepted a round at %d", ts)
		}
	}
	if !reflect.DeepEqual(m, Machine{Probe: 1, KeepEvents: true}) {
		t.Errorf("refused records changed the machine: %+v", m)
	}
	if !m.Conn(atlasdata.ConnLogEntry{Probe: 1, Start: 0, End: math.MaxUint32, Addr: 9}, nil, nil) ||
		!m.KRoot(atlasdata.KRootRound{Probe: 1, Timestamp: math.MaxUint32, Sent: 3, Success: 3}) {
		t.Errorf("machine refused records at the edges of 0-2^32-1")
	}
}

// TestBehaviouralMultihomed checks §3.2's behavioural multihomed rule on
// Machine.Category, from the rule's text: the probe alternates between
// one fixed address and others when some address has at least three
// separated runs covering at least a quarter of all runs. Each case is
// an IPv4-only log, one session per letter, whose consecutive letters
// differ, so every session is a run and the addresses change; a probe
// the rule does not catch is analyzable.
func TestBehaviouralMultihomed(t *testing.T) {
	for _, tc := range []struct {
		name, runs string
		multihomed bool
	}{
		{"4 runs, two of one address", "ABAB", false},
		{"5 runs, three of one address", "ABABA", true},
		{"5 runs, two of one address", "ABACD", false},
		{"6 runs, three of one address", "ABACAD", true},
		{"12 runs, a quarter of one address", "ABACADEFGHIJ", true},
		{"13 runs, three of one address, under a quarter", "ABACADEFGHIJK", false},
		{"16 runs, four of one address, a quarter", "ABACADAEFGHIJKLM", true},
		{"17 runs, four of one address, under a quarter", "ABACADAEFGHIJKLMN", false},
		{"10 runs, no address three times", "ABCABDCDEF", false},
	} {
		m := Machine{Probe: 1}
		at := simclock.StudyStart
		for _, c := range tc.runs {
			addr := ip4.Addr(0x0A000000 + uint32(c))
			if !m.Conn(atlasdata.ConnLogEntry{Probe: 1, Start: at, End: at + 1800, Addr: addr}, nil, nil) {
				t.Fatalf("%s: session refused", tc.name)
			}
			at += 3600
		}
		if m.RunTotal != len(tc.runs) {
			t.Fatalf("%s: %d runs, want %d", tc.name, m.RunTotal, len(tc.runs))
		}
		want := CatAnalyzable
		if tc.multihomed {
			want = CatBehaviouralMultihomed
		}
		if got := m.Category(atlasdata.ProbeMeta{ID: 1, Version: atlasdata.V3, ConnectedDays: 365}); got != want {
			t.Errorf("%s (%s): %v, want %v", tc.name, tc.runs, got, want)
		}
	}
}

// TestRunCountsSorted: run counts stay in address order however the
// addresses arrive, and count separated runs, not sessions.
func TestRunCountsSorted(t *testing.T) {
	m := Machine{Probe: 1}
	at := simclock.StudyStart
	for _, a := range []ip4.Addr{9, 3, 3, 7, 9, 1, 3, 9} {
		m.Conn(atlasdata.ConnLogEntry{Probe: 1, Start: at, End: at + 60, Addr: a}, nil, nil)
		at += 120
	}
	want := []RunCount{{1, 1}, {3, 2}, {7, 1}, {9, 3}}
	if !reflect.DeepEqual(m.RunCount, want) || m.RunTotal != 7 {
		t.Errorf("run counts %v over %d runs, want %v over 7", m.RunCount, m.RunTotal, want)
	}
}

// TestRunCountsPastTail: with more addresses than RunCount takes
// directly, new ones wait in the tail; the counts, read through
// RunCounts or by the behavioural multihomed test, are a map's.
func TestRunCountsPastTail(t *testing.T) {
	m := Machine{Probe: 1}
	want := map[uint32]uint32{}
	at := simclock.StudyStart
	prev, total, sawTail := uint32(0), 0, false
	for i := 0; i < 20*runTailFrom; i++ {
		a := uint32(i+1) * 2654435761 % 3000 // revisits addresses, out of order
		if i%7 == 0 {
			a = 5 // one address keeps coming back
		}
		m.Conn(atlasdata.ConnLogEntry{Probe: 1, Start: at, End: at + 60, Addr: ip4.Addr(a)}, nil, nil)
		at += 120
		if total == 0 || a != prev {
			want[a]++
			total++
		}
		prev = a
		sawTail = sawTail || len(m.runTail) > 0
	}
	if !sawTail {
		t.Fatal("no address waited in the tail")
	}
	wantAlt := want[5] >= 3 && float64(want[5]) >= 0.25*float64(total)
	if got := m.alternating(); got != wantAlt {
		t.Errorf("alternating = %v before the merge, want %v", got, wantAlt)
	}
	got := m.RunCounts()
	if len(got) != len(want) || m.RunTotal != total || len(m.runTail) != 0 {
		t.Fatalf("%d run counts over %d runs (tail %d), want %d over %d", len(got), m.RunTotal, len(m.runTail), len(want), total)
	}
	for i, rc := range got {
		if i > 0 && rc.Addr <= got[i-1].Addr {
			t.Fatalf("run counts out of order at %d: %v after %v", i, rc, got[i-1])
		}
		if want[rc.Addr] != rc.N {
			t.Errorf("address %d: %d runs, want %d", rc.Addr, rc.N, want[rc.Addr])
		}
	}
}

// TestAlternatingReadsTail: an uplink address that first shows up once
// RunCount is full, and keeps coming back, is counted in the tail, and
// the behavioural multihomed test finds it there before any merge.
func TestAlternatingReadsTail(t *testing.T) {
	m := Machine{Probe: 1}
	at := simclock.StudyStart
	feed := func(a uint32) {
		m.Conn(atlasdata.ConnLogEntry{Probe: 1, Start: at, End: at + 60, Addr: ip4.Addr(a)}, nil, nil)
		at += 120
	}
	for a := uint32(1); a <= runTailFrom; a++ {
		feed(a)
	}
	for i := uint32(0); i < 150; i++ { // 150 of 556 runs: over a quarter
		feed(1 << 20)
		feed(1 + i)
	}
	if len(m.runTail) != 1 || m.runTail[0] != (RunCount{Addr: 1 << 20, N: 150}) {
		t.Fatalf("tail %v, want the uplink address alone with 150 runs", m.runTail)
	}
	if got := m.Category(atlasdata.ProbeMeta{ID: 1, Version: atlasdata.V3, ConnectedDays: 365}); got != CatBehaviouralMultihomed {
		t.Errorf("category %v, want %v", got, CatBehaviouralMultihomed)
	}
}

// TestRestoreOwnsTail: a copy of a machine whose new addresses wait in
// the tail, restored, counts on in arrays of its own, as does the
// original.
func TestRestoreOwnsTail(t *testing.T) {
	var m Machine
	want := map[uint32]uint32{}
	at := simclock.StudyStart
	feed := func(m *Machine, a uint32) {
		m.Conn(atlasdata.ConnLogEntry{Probe: 1, Start: at, End: at + 60, Addr: ip4.Addr(a)}, nil, nil)
		at += 120
	}
	for a := uint32(1); a <= runTailFrom+5; a++ { // a tail of 5, with room to grow in place
		feed(&m, 2*a)
		want[2*a]++
	}
	if len(m.runTail) == 0 {
		t.Fatal("no address waits in the tail")
	}
	restored := m
	restored.RunCount = slices.Clone(m.RunCount)
	restored.Restore()
	for a := uint32(1); a <= 4; a++ {
		feed(&m, 2*a+1)        // new addresses below the tail's
		feed(&restored, 1e6+a) // and above them
	}
	for _, c := range []struct {
		m     *Machine
		extra []uint32
	}{{&m, []uint32{3, 5, 7, 9}}, {&restored, []uint32{1e6 + 1, 1e6 + 2, 1e6 + 3, 1e6 + 4}}} {
		w := maps.Clone(want)
		for _, a := range c.extra {
			w[a]++
		}
		got := c.m.RunCounts()
		ok := len(got) == len(w)
		for i, rc := range got {
			ok = ok && w[rc.Addr] == rc.N && (i == 0 || rc.Addr > got[i-1].Addr)
		}
		if !ok {
			t.Errorf("run counts %v, want those of %v", got, w)
		}
	}
}

// BenchmarkCountRunRenumbered feeds one probe renumbered every hour for
// a year, each time to a new IPv4 address (8,760 in all, in no order),
// through a fresh machine: the run counts' worst case. ns/entry is per
// session.
func BenchmarkCountRunRenumbered(b *testing.B) {
	const hours = 365 * 24
	entries := make([]atlasdata.ConnLogEntry, hours)
	for i := range entries {
		at := simclock.StudyStart.Add(simclock.Duration(i) * simclock.Hour)
		entries[i] = atlasdata.ConnLogEntry{Probe: 1, Start: at, End: at.Add(50 * simclock.Minute),
			Addr: ip4.Addr(uint32(i+1) * 2654435761)} // distinct: the multiplier is odd
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		m := Machine{Probe: 1}
		for _, e := range entries {
			m.Conn(e, nil, nil)
		}
		if m.RunTotal != hours {
			b.Fatalf("%d runs, want %d", m.RunTotal, hours)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*hours), "ns/entry")
}
