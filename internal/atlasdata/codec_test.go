package atlasdata

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"dynaddr/internal/ip4"
	"dynaddr/internal/simclock"
)

func TestConnLogRoundTrip(t *testing.T) {
	in := []ConnLogEntry{
		{Probe: 206, Start: 1420082494, End: 1420167457, Family: V4, Addr: ip4.MustParseAddr("91.55.174.103")},
		{Probe: 206, Start: 1420168936, End: 1420220051, Family: V4, Addr: ip4.MustParseAddr("91.55.169.37")},
		{Probe: 207, Start: 1420082494, End: 1420082500, Family: V6, V6Addr: "2001:db8::1"},
	}
	var buf bytes.Buffer
	if err := WriteConnLogs(&buf, in); err != nil {
		t.Fatal(err)
	}
	got, err := ParseConnLogs(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, in) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, in)
	}
}

func TestConnLogRejectsInvalid(t *testing.T) {
	bad := []ConnLogEntry{
		{Probe: 1, Start: 100, End: 50, Family: V4, Addr: 1},       // ends before start
		{Probe: 1, Start: 100, End: 200, Family: V4},               // no address
		{Probe: 1, Start: 100, End: 200, Family: V6, V6Addr: "no"}, // bad v6
	}
	for i, e := range bad {
		var buf bytes.Buffer
		if err := WriteConnLogs(&buf, []ConnLogEntry{e}); err == nil {
			t.Errorf("case %d: WriteConnLogs accepted invalid entry", i)
		}
	}
}

func TestParseConnLogsErrors(t *testing.T) {
	bad := []string{
		"206\t100\t200",            // too few fields
		"0\t100\t200\t1.2.3.4",     // probe 0
		"206\tabc\t200\t1.2.3.4",   // bad start
		"206\t100\txyz\t1.2.3.4",   // bad end
		"206\t100\t200\t1.2.3.999", // bad address
		"206\t200\t100\t1.2.3.4",   // end before start
	}
	for _, src := range bad {
		if _, err := ParseConnLogs(strings.NewReader(src)); err == nil {
			t.Errorf("ParseConnLogs(%q) should fail", src)
		}
	}
}

func TestParseConnLogsSkipsCommentsAndBlank(t *testing.T) {
	src := "# header\n\n206\t100\t200\t1.2.3.4\n"
	got, err := ParseConnLogs(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Errorf("parsed %d entries, want 1", len(got))
	}
}

func TestAddrKeyFamilies(t *testing.T) {
	v4 := ConnLogEntry{Family: V4, Addr: ip4.MustParseAddr("1.2.3.4")}
	v6 := ConnLogEntry{Family: V6, V6Addr: "2001:db8::1"}
	if v4.AddrKey() == v6.AddrKey() {
		t.Error("different families must never share address keys")
	}
	if !v4.IsV4() || v6.IsV4() {
		t.Error("IsV4 wrong")
	}
	if got := v4.AddrKey(); got != "v4:1.2.3.4" {
		t.Errorf("AddrKey = %q", got)
	}
}

func TestKRootRoundTrip(t *testing.T) {
	in := []KRootRound{
		{Probe: 16893, Timestamp: 1422349302, Sent: 3, Success: 3, LTS: 86},
		{Probe: 16893, Timestamp: 1422349548, Sent: 3, Success: 0, LTS: 151},
	}
	var buf bytes.Buffer
	if err := WriteKRoot(&buf, in); err != nil {
		t.Fatal(err)
	}
	got, err := ParseKRoot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, in) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, in)
	}
}

func TestKRootValidate(t *testing.T) {
	bad := []KRootRound{
		{Probe: 1, Sent: 3, Success: 4}, // more successes than sent
		{Probe: 1, Sent: 3, Success: 0, LTS: -5},
	}
	for i, k := range bad {
		if err := k.Validate(); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
	good := KRootRound{Probe: 1, Sent: 3, Success: 0, LTS: 100}
	if err := good.Validate(); err != nil {
		t.Error(err)
	}
	if !good.AllLost() {
		t.Error("AllLost should be true for 0/3")
	}
	if (KRootRound{Sent: 0, Success: 0}).AllLost() {
		t.Error("AllLost must be false when nothing was sent")
	}
}

// TestKRootRoundSize pins the compact layouts: k-root rounds are most of
// every dataset, so a field that widens or reorders into padding costs
// resident memory on every Load. Uptime records and connection-log
// sessions, stored the same way, are pinned beside them.
func TestKRootRoundSize(t *testing.T) {
	if n := unsafe.Sizeof(KRootRound{}); n != 24 {
		t.Errorf("KRootRound is %d bytes, want 24", n)
	}
	var d Dataset
	if n := unsafe.Sizeof(d.KRoot[0][0]); n != 12 {
		t.Errorf("a Dataset stores a k-root round in %d bytes, want 12", n)
	}
	if n := unsafe.Sizeof(UptimeRecord{}); n != 24 {
		t.Errorf("UptimeRecord is %d bytes, want 24", n)
	}
	if n := unsafe.Sizeof(d.Uptime[0][0]); n != 16 {
		t.Errorf("a Dataset stores an uptime record in %d bytes, want 16", n)
	}
	// Connection logs are what every analysis reads: 16 bytes, and no
	// pointer for the collector to trace, the IPv6 literals held once
	// each in the Dataset's V6Table.
	if n := unsafe.Sizeof(d.ConnLogs[0][0]); n != 16 {
		t.Errorf("a Dataset stores a session in %d bytes, want 16", n)
	}
	for _, stored := range []any{d.ConnLogs, d.KRoot, d.Uptime} {
		ty := reflect.TypeOf(stored).Elem().Elem() // the map's slices' elements
		if p := pointerIn(ty); p != "" {
			t.Errorf("a Dataset's %s holds a pointer: %s", ty.Name(), p)
		}
	}
}

// pointerIn names a part of values of type ty that holds a pointer, ""
// if none does.
func pointerIn(ty reflect.Type) string {
	switch ty.Kind() {
	case reflect.Struct:
		for i := range ty.NumField() {
			if p := pointerIn(ty.Field(i).Type); p != "" {
				return ty.Name() + "." + ty.Field(i).Name + ": " + p
			}
		}
		return ""
	case reflect.Array:
		return pointerIn(ty.Elem())
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.String, reflect.Map,
		reflect.Chan, reflect.Func, reflect.Interface:
		return ty.Kind().String()
	}
	return ""
}

// TestConnLogSeries: a stored session keeps every value of its entry,
// at the ends of the time range too; equal IPv6 literals share one
// index, in the table and in an interner resumed over it; and a time the
// sample cannot hold is refused, not truncated.
func TestConnLogSeries(t *testing.T) {
	var tbl V6Table
	entries := []ConnLogEntry{
		{Probe: 206, Start: 0, End: 5, Family: V4, Addr: ip4.MustParseAddr("91.55.174.103")},
		{Probe: 206, Start: 10, End: 20, Family: V6, V6Addr: "2001:db8::1"},
		{Probe: 206, Start: 30, End: 40, Family: V6, V6Addr: "2001:db8::2"},
		{Probe: 206, Start: 50, End: math.MaxUint32, Family: V6, V6Addr: "2001:db8::1"},
	}
	s, err := ConnLogSeries(206, entries, NewV6Interner(&tbl))
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range s {
		if got := e.Entry(206, &tbl); got != entries[i] {
			t.Errorf("session %d: stored as %+v, rebuilt as %+v, want %+v", i, e, got, entries[i])
		}
	}
	if tbl.Len() != 2 || s[1].Addr != s[3].Addr || s[1].Addr == s[2].Addr {
		t.Errorf("literals %d, indexes %d %d %d: want 2 literals, the first shared", tbl.Len(), s[1].Addr, s[2].Addr, s[3].Addr)
	}
	more := NewV6Interner(&tbl)
	if i, j := more.Intern("2001:db8::2"), more.Intern("2001:db8::3"); i != s[2].Addr || j != 2 || tbl.Literal(j) != "2001:db8::3" {
		t.Errorf("resumed interner gave %d and %d (%q), want %d and 2", i, j, tbl.Literal(j), s[2].Addr)
	}
	if got := tbl.Literal(3); got != "" {
		t.Errorf("Literal past the table = %q, want \"\"", got)
	}
	for _, bad := range []ConnLogEntry{
		{Probe: 206, Start: -1, End: 5, Family: V4, Addr: 1},
		{Probe: 206, Start: 5, End: math.MaxUint32 + 1, Family: V6, V6Addr: "2001:db8::9"},
	} {
		if _, err := ConnLogSeries(206, []ConnLogEntry{entries[1], bad}, NewV6Interner(&tbl)); err == nil || tbl.Len() != 3 {
			t.Errorf("ConnLogSeries of %+v: %v, %d literals; want an error and none interned", bad, err, tbl.Len())
		}
	}
}

// TestKRootSeries checks that the stored series keeps every value of
// its rounds. (TestDatasetValidateCatchesWrongProbeID checks that it
// refuses a round of another probe.)
func TestKRootSeries(t *testing.T) {
	rounds := []KRootRound{
		{Probe: 206, Timestamp: 0, Sent: 65535, Success: 65535, LTS: math.MaxInt32},
		{Probe: 206, Timestamp: 340, Sent: 3, Success: 0, LTS: 0},
		{Probe: 206, Timestamp: math.MaxUint32, Sent: 3, Success: 3, LTS: 60},
	}
	s, err := KRootSeries(206, rounds)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range s {
		if k.Round(206) != rounds[i] {
			t.Errorf("sample %d = %+v, want round %+v", i, k.Round(206), rounds[i])
		}
	}
	// A timestamp the sample cannot hold is refused, never truncated.
	for _, ts := range []simclock.Time{-1, math.MaxUint32 + 1} {
		if s, err := KRootSeries(206, []KRootRound{{Probe: 206, Timestamp: ts, Sent: 3}}); err == nil ||
			!strings.Contains(err.Error(), "outside 0-4294967295") {
			t.Errorf("KRootSeries of a round at %d = %v, %v", ts, s, err)
		}
	}
}

// TestUptimeSeries checks that the stored series keeps every value of
// its records. (TestDatasetValidateCatchesWrongProbeID checks that it
// refuses a record of another probe.)
func TestUptimeSeries(t *testing.T) {
	recs := []UptimeRecord{
		{Probe: 206, Timestamp: -5, Uptime: math.MaxInt64},
		{Probe: 206, Timestamp: math.MaxInt64, Uptime: 0},
	}
	s, err := UptimeSeries(206, recs)
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range s {
		if u.Record(206) != recs[i] {
			t.Errorf("sample %d = %+v, want record %+v", i, u.Record(206), recs[i])
		}
	}
}

// TestProbeIDRange checks that every text format refuses probe IDs the
// wire format cannot carry, and takes the largest it can.
func TestProbeIDRange(t *testing.T) {
	for _, tc := range []struct {
		what  string
		parse func(string) error
		line  string // with the probe ID as %s
	}{
		{"connection log", func(s string) error { _, err := ParseConnLogs(strings.NewReader(s)); return err }, "%s\t1\t2\t10.0.0.1\n"},
		{"k-root", func(s string) error { _, err := ParseKRoot(strings.NewReader(s)); return err }, "%s\t1\t3\t3\t60\n"},
		{"uptime", func(s string) error { _, err := ParseUptime(strings.NewReader(s)); return err }, "%s\t1\t5000\n"},
	} {
		for _, id := range []string{"-5", "4294967296"} {
			if err := tc.parse(strings.Replace(tc.line, "%s", id, 1)); err == nil {
				t.Errorf("%s line with probe %s accepted", tc.what, id)
			}
		}
		if err := tc.parse(strings.Replace(tc.line, "%s", "4294967295", 1)); err != nil {
			t.Errorf("%s line with probe 4294967295: %v", tc.what, err)
		}
	}
	for _, id := range []ProbeID{-5, 1 << 32} {
		if _, err := NewKRootRound(id, 1, 3, 3, 60); err == nil || !strings.Contains(err.Error(), "outside 0-4294967295") {
			t.Errorf("NewKRootRound with probe %d: %v", id, err)
		}
	}
}

func TestNewKRootRound(t *testing.T) {
	for _, tc := range []struct {
		sent, success int
		lts           int64
		want          string // error substring; "" means accepted
	}{
		{3, 3, 60, ""},
		{0, 0, 0, ""},
		{math.MaxUint16, math.MaxUint16, math.MaxInt32, ""},
		{-1, 0, 60, "has 0/-1 successes, outside 0-65535"},
		{math.MaxUint16 + 1, 0, 60, "outside 0-65535"},
		{3, -1, 60, "outside 0-65535"},
		{3, math.MaxUint16 + 1, 60, "outside 0-65535"},
		{3, 4, 60, "has 4/3 successes"},
		{3, 3, math.MaxInt32 + 1, "has LTS 2147483648 outside int32"},
		{3, 3, math.MinInt32 - 1, "outside int32"},
		{3, 3, -1, "negative LTS"},
		{3, 3, math.MinInt32, "negative LTS"},
	} {
		k, err := NewKRootRound(7, 100, tc.sent, tc.success, tc.lts)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("NewKRootRound(%d, %d, %d): %v", tc.sent, tc.success, tc.lts, err)
		case tc.want == "" && (int(k.Sent) != tc.sent || int(k.Success) != tc.success || int64(k.LTS) != tc.lts || k.Probe != 7 || k.Timestamp != 100):
			t.Errorf("NewKRootRound(%d, %d, %d) = %+v", tc.sent, tc.success, tc.lts, k)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("NewKRootRound(%d, %d, %d): error %v, want %q", tc.sent, tc.success, tc.lts, err, tc.want)
		}
	}
	for probe, ok := range map[ProbeID]bool{0: true, math.MaxUint32: true, -1: false, math.MaxUint32 + 1: false} {
		if _, err := NewKRootRound(probe, 100, 3, 3, 60); (err == nil) != ok {
			t.Errorf("NewKRootRound for probe %d: %v", probe, err)
		}
	}
	// A Dataset stores a round's timestamp in 32 bits, so the domain is
	// 0 to 2³²-1 Unix seconds.
	for ts, ok := range map[simclock.Time]bool{-1: false, 0: true, math.MaxUint32: true, math.MaxUint32 + 1: false} {
		k, err := NewKRootRound(7, ts, 3, 3, 60)
		switch {
		case ok && (err != nil || k.Timestamp != ts):
			t.Errorf("NewKRootRound at %d = %+v, %v", ts, k, err)
		case !ok && (err == nil || !strings.Contains(err.Error(), fmt.Sprintf("has timestamp %d outside 0-4294967295", ts))):
			t.Errorf("NewKRootRound at %d: error %v", ts, err)
		}
	}
}

// TestNewConnLogEntry: a detector keeps a session's times in 32 bits,
// so the domain of both is 0 to 2³²-1 Unix seconds; the constructor
// also checks the probe ID and validates the entry.
func TestNewConnLogEntry(t *testing.T) {
	for _, tc := range []struct {
		start, end simclock.Time
		want       string // error substring; "" means accepted
	}{
		{0, 0, ""},
		{0, math.MaxUint32, ""},
		{math.MaxUint32, math.MaxUint32, ""},
		{-1, 5, "has time -1 outside 0-4294967295"},
		{5, math.MaxUint32 + 1, "has time 4294967296 outside 0-4294967295"},
		{math.MaxUint32 + 1, math.MaxUint32 + 1, "outside 0-4294967295"},
		{10, 5, "ends"},
	} {
		e, err := NewConnLogEntry(7, tc.start, tc.end, 9, "")
		switch {
		case tc.want == "" && (err != nil || e != ConnLogEntry{Probe: 7, Start: tc.start, End: tc.end, Family: V4, Addr: 9}):
			t.Errorf("NewConnLogEntry(%d, %d) = %+v, %v", tc.start, tc.end, e, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("NewConnLogEntry(%d, %d): error %v, want %q", tc.start, tc.end, err, tc.want)
		}
	}
	if e, err := NewConnLogEntry(7, 1, 2, 0, "2001:db8::1"); err != nil || e != (ConnLogEntry{Probe: 7, Start: 1, End: 2, Family: V6, V6Addr: "2001:db8::1"}) {
		t.Errorf("IPv6 session = %+v, %v", e, err)
	}
	for _, bad := range []struct {
		addr ip4.Addr
		v6   string
	}{{0, ""}, {9, "db8"}, {0, "2001:db8::1 2"}, {0, "2001:db8::1\u00852"}} { // a space splits a text field
		if e, err := NewConnLogEntry(7, 1, 2, bad.addr, bad.v6); err == nil {
			t.Errorf("session at %v %q accepted as %+v", bad.addr, bad.v6, e)
		}
	}
	for probe, ok := range map[ProbeID]bool{0: true, math.MaxUint32: true, -1: false, math.MaxUint32 + 1: false} {
		if _, err := NewConnLogEntry(probe, 1, 2, 9, ""); (err == nil) != ok {
			t.Errorf("NewConnLogEntry for probe %d: %v", probe, err)
		}
	}
}

func TestUptimeRoundTrip(t *testing.T) {
	in := []UptimeRecord{
		{Probe: 206, Timestamp: 1420082118, Uptime: 262531},
		{Probe: 206, Timestamp: 1420134626, Uptime: 315038},
		{Probe: 206, Timestamp: 1420134655, Uptime: 19},
	}
	var buf bytes.Buffer
	if err := WriteUptime(&buf, in); err != nil {
		t.Fatal(err)
	}
	got, err := ParseUptime(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, in) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, in)
	}
}

func TestProbeArchiveRoundTrip(t *testing.T) {
	in := []ProbeMeta{
		{ID: 206, Country: "DE", Version: V3, ConnectedDays: 360},
		{ID: 101, Country: "FR", Version: V1, Tags: []string{TagMultihomed, "home"}, ConnectedDays: 45.5},
	}
	var buf bytes.Buffer
	if err := WriteProbeArchive(&buf, in); err != nil {
		t.Fatal(err)
	}
	got, err := ParseProbeArchive(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// WriteProbeArchive sorts by ID.
	if len(got) != 2 || got[0].ID != 101 || got[1].ID != 206 {
		t.Fatalf("got %+v", got)
	}
	if !got[0].HasTag(TagMultihomed) || got[0].HasTag(TagCore) {
		t.Error("HasTag wrong")
	}
	if got[1].Country != "DE" || got[1].Version != V3 {
		t.Errorf("probe 206 = %+v", got[1])
	}
}

func TestProbeMetaValidate(t *testing.T) {
	bad := []ProbeMeta{
		{ID: 0, Version: V3},
		{ID: 1, Version: 7},
		{ID: 1, Version: V3, ConnectedDays: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

func TestProbeArchiveParseRejectsInvalid(t *testing.T) {
	src := `[{"id": 0, "version": 3}]`
	if _, err := ParseProbeArchive(strings.NewReader(src)); err == nil {
		t.Error("archive with probe ID 0 should fail")
	}
	if _, err := ParseProbeArchive(strings.NewReader("not json")); err == nil {
		t.Error("malformed JSON should fail")
	}
}

func TestConnLogTable1Shape(t *testing.T) {
	// Reconstruct the paper's Table 1 rows for probe 206 and verify the
	// codec carries them faithfully (timestamps from Table 1, Jan 2015).
	mk := func(startDay, sh, sm, ss, endDay, eh, em, es int, addr string) ConnLogEntry {
		return ConnLogEntry{
			Probe:  206,
			Start:  simclock.Date(2015, 1, startDay, sh, sm, ss),
			End:    simclock.Date(2015, 1, endDay, eh, em, es),
			Family: V4,
			Addr:   ip4.MustParseAddr(addr),
		}
	}
	rows := []ConnLogEntry{
		mk(1, 3, 22, 16, 1, 17, 34, 11, "91.55.169.37"),
		mk(1, 18, 0, 54, 1, 18, 42, 31, "91.55.132.252"),
		mk(1, 19, 6, 46, 2, 2, 19, 16, "91.55.155.115"),
		mk(2, 2, 41, 55, 3, 2, 18, 0, "91.55.141.95"),
	}
	var buf bytes.Buffer
	if err := WriteConnLogs(&buf, rows); err != nil {
		t.Fatal(err)
	}
	got, err := ParseConnLogs(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rows) {
		t.Error("Table 1 rows did not survive the codec")
	}
	// The third row's duration is ~7.2 hours per the paper.
	d := rows[2].End.Sub(rows[2].Start).Hours()
	if d < 7.1 || d > 7.3 {
		t.Errorf("row 3 duration = %.2fh, want ~7.2h", d)
	}
}
