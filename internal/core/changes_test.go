package core

import (
	"testing"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/ip4"
	"dynaddr/internal/simclock"
)

func v4e(probe int, start, end simclock.Time, addr string) atlasdata.ConnLogEntry {
	return atlasdata.ConnLogEntry{
		Probe: atlasdata.ProbeID(probe), Start: start, End: end,
		Family: atlasdata.V4, Addr: ip4.MustParseAddr(addr),
	}
}

func v6e(probe int, start, end simclock.Time) atlasdata.ConnLogEntry {
	return atlasdata.ConnLogEntry{
		Probe: atlasdata.ProbeID(probe), Start: start, End: end,
		Family: atlasdata.V6, V6Addr: "2001:db8::1",
	}
}

func TestV4ChangesBasic(t *testing.T) {
	entries := []atlasdata.ConnLogEntry{
		v4e(1, 0, 100, "10.0.0.1"),
		v4e(1, 200, 300, "10.0.0.2"),
		v4e(1, 400, 500, "10.0.0.2"),
		v4e(1, 600, 700, "10.0.0.3"),
	}
	got := V4Changes(entries)
	if len(got) != 2 {
		t.Fatalf("changes = %d, want 2", len(got))
	}
	if got[0].From.String() != "10.0.0.1" || got[0].To.String() != "10.0.0.2" {
		t.Errorf("first change = %v -> %v", got[0].From, got[0].To)
	}
	if got[0].PrevEnd != 100 || got[0].NextStart != 200 {
		t.Errorf("first change gap = [%v, %v]", got[0].PrevEnd, got[0].NextStart)
	}
	if got[1].From.String() != "10.0.0.2" || got[1].To.String() != "10.0.0.3" {
		t.Errorf("second change = %v -> %v", got[1].From, got[1].To)
	}
}

func TestV4ChangesSkipsV6Boundaries(t *testing.T) {
	// An IPv6 session between two different v4 addresses hides the
	// change instant, so no change is recorded across it.
	entries := []atlasdata.ConnLogEntry{
		v4e(1, 0, 100, "10.0.0.1"),
		v6e(1, 200, 300),
		v4e(1, 400, 500, "10.0.0.2"),
	}
	if got := V4Changes(entries); len(got) != 0 {
		t.Errorf("changes across v6 = %d, want 0", len(got))
	}
}

func TestV4ChangesEmptyAndSingle(t *testing.T) {
	if got := V4Changes(nil); got != nil {
		t.Error("nil entries should yield nil")
	}
	one := []atlasdata.ConnLogEntry{v4e(1, 0, 100, "10.0.0.1")}
	if got := V4Changes(one); len(got) != 0 {
		t.Error("single entry yields no change")
	}
}

func TestV4DurationsPaperTable1(t *testing.T) {
	// Table 1: eight entries, seven changes, durations known only for
	// the middle six addresses.
	mk := func(sd, sh, sm, ss, ed, eh, em, es int, addr string) atlasdata.ConnLogEntry {
		return v4e(206,
			simclock.Date(2015, 1, sd, sh, sm, ss),
			simclock.Date(2015, 1, ed, eh, em, es), addr)
	}
	entries := []atlasdata.ConnLogEntry{
		// First entry starts in 2014 in the paper; January stands in.
		mk(1, 1, 21, 34, 1, 2, 57, 37, "91.55.174.103"),
		mk(1, 3, 22, 16, 1, 17, 34, 11, "91.55.169.37"),
		mk(1, 18, 0, 54, 1, 18, 42, 31, "91.55.132.252"),
		mk(1, 19, 6, 46, 2, 2, 19, 16, "91.55.155.115"),
		mk(2, 2, 41, 55, 3, 2, 18, 0, "91.55.141.95"),
		mk(3, 2, 43, 14, 4, 2, 16, 59, "91.55.165.167"),
		mk(4, 2, 40, 58, 5, 2, 15, 45, "91.55.163.252"),
		mk(5, 2, 38, 39, 6, 2, 14, 48, "91.55.141.63"),
	}
	durations := V4Durations(entries)
	if len(durations) != 6 {
		t.Fatalf("durations = %d, want 6 (first and last unknown)", len(durations))
	}
	wantHours := []float64{14.2, 0.7, 7.2, 23.6, 23.6, 23.6}
	for i, d := range durations {
		if got := d.Hours(); got < wantHours[i]-0.1 || got > wantHours[i]+0.1 {
			t.Errorf("duration %d = %.1fh, want ~%.1fh", i, got, wantHours[i])
		}
	}
	if durations[0].Addr.String() != "91.55.169.37" {
		t.Errorf("first bounded duration addr = %v", durations[0].Addr)
	}
}

func TestV4DurationsMergesRuns(t *testing.T) {
	// Reconnections keeping the address extend the same duration.
	entries := []atlasdata.ConnLogEntry{
		v4e(1, 0, 100, "10.0.0.1"),
		v4e(1, 200, 300, "10.0.0.2"),
		v4e(1, 400, 900, "10.0.0.2"),
		v4e(1, 1000, 1100, "10.0.0.3"),
	}
	durations := V4Durations(entries)
	if len(durations) != 1 {
		t.Fatalf("durations = %d, want 1", len(durations))
	}
	if durations[0].Start != 200 || durations[0].End != 900 {
		t.Errorf("merged duration = [%v, %v], want [200, 900]", durations[0].Start, durations[0].End)
	}
}

func TestV4DurationsV6ResetsSegments(t *testing.T) {
	// v6 entries truncate segments: durations adjacent to a v6 entry
	// have unknown bounds.
	entries := []atlasdata.ConnLogEntry{
		v4e(1, 0, 100, "10.0.0.1"),
		v4e(1, 200, 300, "10.0.0.2"),
		v4e(1, 350, 380, "10.0.0.3"),
		v6e(1, 400, 500),
		v4e(1, 600, 700, "10.0.0.4"),
		v4e(1, 800, 900, "10.0.0.5"),
		v4e(1, 950, 990, "10.0.0.6"),
	}
	durations := V4Durations(entries)
	// Segment 1: addrs 1,2,3 -> one bounded (addr 2).
	// Segment 2: addrs 4,5,6 -> one bounded (addr 5).
	if len(durations) != 2 {
		t.Fatalf("durations = %d, want 2", len(durations))
	}
	if durations[0].Addr.String() != "10.0.0.2" || durations[1].Addr.String() != "10.0.0.5" {
		t.Errorf("bounded durations = %v, %v", durations[0].Addr, durations[1].Addr)
	}
}

func TestStripTestingEntry(t *testing.T) {
	entries := []atlasdata.ConnLogEntry{
		v4e(1, 0, 100, "193.0.0.78"),
		v4e(1, 200, 300, "10.0.0.2"),
		v4e(1, 400, 500, "10.0.0.3"),
	}
	stripped, ok := stripTestingEntry(entries)
	if !ok || len(stripped) != 2 || stripped[0].Addr.String() != "10.0.0.2" {
		t.Errorf("stripTestingEntry = %v, %v", stripped, ok)
	}
	if same, ok := stripTestingEntry(stripped); ok || len(same) != 2 {
		t.Error("second strip should be a no-op")
	}
	if empty, ok := stripTestingEntry(nil); ok || empty != nil {
		t.Error("empty strip should be a no-op")
	}

	// The machine strips the same entry: its gaps and changes start at
	// the first real address, while the raw features still count the
	// testing entry.
	m := Machine{KeepEvents: true}
	for _, e := range entries {
		m.Conn(e, nil, nil)
	}
	if !m.Stripped || m.RawEntries != 3 || m.Changes != 1 || len(m.Gaps) != 1 || m.Gaps[0].PrevEnd != 300 {
		t.Errorf("machine over a testing entry: stripped %v, entries %d, changes %d, gaps %v",
			m.Stripped, m.RawEntries, m.Changes, m.Gaps)
	}
}
