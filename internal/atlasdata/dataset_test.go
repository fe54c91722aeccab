package atlasdata

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dynaddr/internal/asdb"
	"dynaddr/internal/ip4"
	"dynaddr/internal/pfx2as"
	"dynaddr/internal/simclock"
)

// connLogs is entries, all of probe id, as d stores them.
func connLogs(d *Dataset, id ProbeID, entries ...ConnLogEntry) []ConnLogSample {
	s, err := ConnLogSeries(id, entries, NewV6Interner(&d.V6))
	if err != nil {
		panic(err)
	}
	return s
}

func sampleDataset(t *testing.T) *Dataset {
	t.Helper()
	d := NewDataset()
	d.Probes[206] = ProbeMeta{ID: 206, Country: "DE", Version: V3, ConnectedDays: 300}
	d.Probes[207] = ProbeMeta{ID: 207, Country: "FR", Version: V1, Tags: []string{TagCore}, ConnectedDays: 100}
	d.ConnLogs[206] = connLogs(d, 206,
		ConnLogEntry{Probe: 206, Start: 100, End: 200, Family: V4, Addr: ip4.MustParseAddr("91.55.1.1")},
		ConnLogEntry{Probe: 206, Start: 300, End: 400, Family: V4, Addr: ip4.MustParseAddr("91.55.2.2")},
	)
	d.ConnLogs[207] = connLogs(d, 207,
		ConnLogEntry{Probe: 207, Start: 150, End: 250, Family: V6, V6Addr: "2001:db8::2"},
	)
	d.KRoot[206] = []KRootSample{
		{Timestamp: 120, Sent: 3, Success: 3, LTS: 60},
		{Timestamp: 360, Sent: 3, Success: 0, LTS: 300},
	}
	d.Uptime[206] = []UptimeSample{
		{Timestamp: 100, Uptime: 5000},
		{Timestamp: 300, Uptime: 20},
	}
	tbl, err := pfx2as.NewTable([]pfx2as.Entry{
		{Prefix: ip4.MustParsePrefix("91.55.0.0/16"), ASN: asdb.ASN(3320)},
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Pfx2AS.Put(201501, tbl)
	return d
}

func TestDatasetSaveLoadRoundTrip(t *testing.T) {
	d := sampleDataset(t)
	dir := filepath.Join(t.TempDir(), "ds")
	if err := d.Save(dir); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Probes, d.Probes) {
		t.Errorf("probes mismatch:\n got %+v\nwant %+v", got.Probes, d.Probes)
	}
	if !reflect.DeepEqual(got.ConnLogs, d.ConnLogs) || !reflect.DeepEqual(got.V6, d.V6) {
		t.Errorf("connlogs mismatch:\n got %+v %+v\nwant %+v %+v", got.ConnLogs, got.V6, d.ConnLogs, d.V6)
	}
	if !reflect.DeepEqual(got.KRoot, d.KRoot) {
		t.Errorf("kroot mismatch")
	}
	if !reflect.DeepEqual(got.Uptime, d.Uptime) {
		t.Errorf("uptime mismatch")
	}
	asn, pfx, ok := got.Pfx2AS.Lookup(ip4.MustParseAddr("91.55.9.9"), 1420100000)
	if !ok || asn != 3320 || pfx.String() != "91.55.0.0/16" {
		t.Errorf("pfx2as lookup after load = %v %v %v", asn, pfx, ok)
	}
}

func TestDatasetValidateCatchesOverlap(t *testing.T) {
	d := sampleDataset(t)
	d.ConnLogs[206] = append(d.ConnLogs[206], connLogs(d, 206, ConnLogEntry{
		Probe: 206, Start: 350, End: 500, Family: V4, Addr: ip4.MustParseAddr("91.55.3.3"),
	})...)
	d.SortRecords()
	if err := d.Validate(); err == nil {
		t.Error("overlapping connections should fail validation")
	}
}

func TestDatasetValidateCatchesOrphans(t *testing.T) {
	d := NewDataset()
	d.ConnLogs[999] = connLogs(d, 999,
		ConnLogEntry{Probe: 999, Start: 1, End: 2, Family: V4, Addr: 1},
	)
	if err := d.Validate(); err == nil {
		t.Error("records without probe metadata should fail validation")
	}
}

func TestDatasetValidateCatchesWrongProbeID(t *testing.T) {
	d := NewDataset()
	d.Probes[1] = ProbeMeta{ID: 1, Version: V3}
	// A stored session holds no probe ID for Validate to check: the
	// series constructor refuses the session instead, and interns none
	// of its literals.
	if s, err := ConnLogSeries(1, []ConnLogEntry{
		{Probe: 1, Start: 1, End: 2, Family: V6, V6Addr: "2001:db8::1"},
		{Probe: 2, Start: 3, End: 4, Family: V4, Addr: 1},
	}, NewV6Interner(&d.V6)); err == nil || !strings.Contains(err.Error(), "probe 1 connection logs contain a record for probe 2") || d.V6.Len() != 0 {
		t.Errorf("ConnLogSeries of a session of probe 2 under probe 1 = %v, %v (%d literals interned)", s, err, d.V6.Len())
	}
	// Nor does a stored k-root round.
	if s, err := KRootSeries(1, []KRootRound{{Probe: 1, Timestamp: 1, Sent: 3}, {Probe: 2, Timestamp: 2, Sent: 3}}); err == nil ||
		!strings.Contains(err.Error(), "probe 1 k-root rounds contain a record for probe 2") {
		t.Errorf("KRootSeries of a round of probe 2 under probe 1 = %v, %v", s, err)
	}
	// Nor does a stored uptime record.
	if s, err := UptimeSeries(1, []UptimeRecord{{Probe: 1, Timestamp: 1}, {Probe: 2, Timestamp: 2}}); err == nil ||
		!strings.Contains(err.Error(), "probe 1 uptime records contain a record for probe 2") {
		t.Errorf("UptimeSeries of a record of probe 2 under probe 1 = %v, %v", s, err)
	}
}

func TestSortRecords(t *testing.T) {
	d := NewDataset()
	d.Probes[1] = ProbeMeta{ID: 1, Version: V3}
	d.ConnLogs[1] = connLogs(d, 1,
		ConnLogEntry{Probe: 1, Start: 300, End: 400, Family: V4, Addr: 1},
		ConnLogEntry{Probe: 1, Start: 100, End: 200, Family: V4, Addr: 2},
	)
	d.KRoot[1] = []KRootSample{
		{Timestamp: 50, Sent: 3, Success: 3},
		{Timestamp: 10, Sent: 3, Success: 3},
	}
	d.Uptime[1] = []UptimeSample{
		{Timestamp: 9, Uptime: 100},
		{Timestamp: 3, Uptime: 50},
	}
	d.SortRecords()
	if d.ConnLogs[1][0].Start != 100 || d.KRoot[1][0].Timestamp != 10 || d.Uptime[1][0].Timestamp != 3 {
		t.Error("SortRecords did not sort all streams")
	}
	if err := d.Validate(); err != nil {
		t.Errorf("sorted dataset should validate: %v", err)
	}
}

func TestProbeIDsSorted(t *testing.T) {
	d := NewDataset()
	for _, id := range []ProbeID{30, 10, 20} {
		d.Probes[id] = ProbeMeta{ID: id, Version: V3}
	}
	got := d.ProbeIDs()
	want := []ProbeID{10, 20, 30}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ProbeIDs = %v, want %v", got, want)
	}
}

// TestLoadKeepsFileOrderAcrossProbes: records of one probe scattered
// through a file reach SortRecords in file order, so same-timestamp
// records keep the order a per-probe append of each line would give.
func TestLoadKeepsFileOrderAcrossProbes(t *testing.T) {
	want := NewDataset()
	var src strings.Builder
	for i := 0; i < 64; i++ {
		id := ProbeID(1 + (i*7)%3)
		want.Probes[id] = ProbeMeta{ID: id, Version: V3}
		u := UptimeRecord{Probe: id, Timestamp: simclock.Time(100 * (i % 2)), Uptime: int64(i)}
		want.Uptime[id] = append(want.Uptime[id], u.Sample())
		fmt.Fprintf(&src, "%d\t%d\t%d\n", u.Probe, int64(u.Timestamp), u.Uptime)
	}
	want.SortRecords()
	dir := filepath.Join(t.TempDir(), "ds")
	if err := want.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, uptimeFile), []byte(src.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Uptime, want.Uptime) {
		t.Errorf("uptime records:\n got %v\nwant %v", got.Uptime, want.Uptime)
	}
}

func TestLoadMissingDirFails(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Error("loading a missing directory should fail")
	}
}

// TestValidateNamesLowestProbe: with two probes' records invalid, Load
// and Open name the lower probe ID every time.
func TestValidateNamesLowestProbe(t *testing.T) {
	d := NewDataset()
	for _, id := range []ProbeID{3, 7} {
		d.Probes[id] = ProbeMeta{ID: id, Version: V3}
		d.ConnLogs[id] = connLogs(d, id,
			ConnLogEntry{Probe: id, Start: 100, End: 300, Family: V4, Addr: 1},
			ConnLogEntry{Probe: id, Start: 200, End: 400, Family: V4, Addr: 2},
		)
	}
	dir := filepath.Join(t.TempDir(), "ds")
	if err := d.Save(dir); err != nil {
		t.Fatal(err)
	}
	const want = "atlasdata: probe 3 has overlapping connections at 1"
	for i := 0; i < 40; i++ {
		_, lerr := Load(dir)
		_, oerr := openDataset(dir)
		for name, err := range map[string]error{"Load": lerr, "Open": oerr} {
			if err == nil || !strings.HasPrefix(err.Error(), want) {
				t.Fatalf("%s attempt %d: error %v, want %q", name, i, err, want)
			}
		}
	}
}

// TestDatasetValidateCatchesLiteralIndex: an IPv6 sample must index a
// literal of the Dataset's table; one past it is refused by name, and
// Save writes nothing for it.
func TestDatasetValidateCatchesLiteralIndex(t *testing.T) {
	d := sampleDataset(t)
	d.ConnLogs[207] = append(d.ConnLogs[207], ConnLogSample{Start: 300, End: 400, Family: V6, Addr: uint32(d.V6.Len())})
	err := d.Validate()
	if want := "atlasdata: probe 207 connection logs at 1 name IPv6 literal 1 of 1"; err == nil || err.Error() != want {
		t.Errorf("Validate = %v, want %q", err, want)
	}
	if err := d.Save(filepath.Join(t.TempDir(), "ds")); err == nil {
		t.Error("Save wrote a session whose literal the table does not hold")
	}
}
