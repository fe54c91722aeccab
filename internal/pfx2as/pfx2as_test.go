package pfx2as

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"dynaddr/internal/asdb"
	"dynaddr/internal/ip4"
	"dynaddr/internal/rng"
	"dynaddr/internal/simclock"
)

func mkEntries(specs ...string) []Entry {
	// "10.0.0.0/8=701"
	var out []Entry
	for _, s := range specs {
		eq := strings.IndexByte(s, '=')
		p := ip4.MustParsePrefix(s[:eq])
		var asn uint32
		for _, c := range s[eq+1:] {
			asn = asn*10 + uint32(c-'0')
		}
		out = append(out, Entry{Prefix: p, ASN: asdb.ASN(asn)})
	}
	return out
}

func TestTextRoundTrip(t *testing.T) {
	in := mkEntries("9.0.0.0/8=701", "91.55.0.0/16=3320", "193.0.0.0/21=3333")
	var buf bytes.Buffer
	if err := WriteText(&buf, in); err != nil {
		t.Fatal(err)
	}
	got, err := ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, in) {
		t.Errorf("round trip mismatch:\n got %v\nwant %v", got, in)
	}
}

func TestWriteTextFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteText(&buf, mkEntries("91.55.0.0/16=3320")); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), "91.55.0.0\t16\t3320\n"; got != want {
		t.Errorf("WriteText = %q, want %q", got, want)
	}
}

func TestParseTextTolerance(t *testing.T) {
	src := `
# comment line

9.0.0.0	8	701
91.55.0.0	16	3320_3321
193.0.0.0	21	3333,3334
`
	got, err := ParseText(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("parsed %d entries, want 3", len(got))
	}
	// Multi-origin and AS-set rows take the first origin.
	if got[1].ASN != 3320 || got[2].ASN != 3333 {
		t.Errorf("multi-origin handling wrong: %v", got)
	}
}

func TestParseTextErrors(t *testing.T) {
	bad := []string{
		"9.0.0.0\t8",             // too few fields
		"9.0.0.0\t8\t701\textra", // too many fields
		"9.0.0.300\t8\t701",      // bad address
		"9.0.0.0\t40\t701",       // bad length
		"9.0.0.0\t8\tnotanumber", // bad ASN
	}
	for _, src := range bad {
		if _, err := ParseText(strings.NewReader(src)); err == nil {
			t.Errorf("ParseText(%q) should fail", src)
		}
	}
}

func TestLookupLongestMatch(t *testing.T) {
	tbl, err := NewTable(mkEntries(
		"91.0.0.0/8=100",
		"91.55.0.0/16=3320",
		"91.55.174.0/24=3321",
	))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		addr string
		asn  asdb.ASN
		pfx  string
	}{
		{"91.55.174.103", 3321, "91.55.174.0/24"},
		{"91.55.1.1", 3320, "91.55.0.0/16"},
		{"91.200.0.1", 100, "91.0.0.0/8"},
	}
	for _, c := range cases {
		asn, pfx, ok := tbl.Lookup(ip4.MustParseAddr(c.addr))
		if !ok || asn != c.asn || pfx.String() != c.pfx {
			t.Errorf("Lookup(%s) = %v %v %v, want %v %v", c.addr, asn, pfx, ok, c.asn, c.pfx)
		}
	}
	if _, _, ok := tbl.Lookup(ip4.MustParseAddr("8.8.8.8")); ok {
		t.Error("unrouted address should miss")
	}
}

func TestLookupDefaultRoute(t *testing.T) {
	tbl, err := NewTable(mkEntries("0.0.0.0/0=1", "10.0.0.0/8=2"))
	if err != nil {
		t.Fatal(err)
	}
	if asn, _, ok := tbl.Lookup(ip4.MustParseAddr("200.1.2.3")); !ok || asn != 1 {
		t.Errorf("default route lookup = %v %v", asn, ok)
	}
	if asn, _, ok := tbl.Lookup(ip4.MustParseAddr("10.9.9.9")); !ok || asn != 2 {
		t.Errorf("more-specific under default = %v %v", asn, ok)
	}
}

func TestNewTableRejectsConflicts(t *testing.T) {
	_, err := NewTable(mkEntries("10.0.0.0/8=1", "10.0.0.0/8=2"))
	if err == nil {
		t.Error("conflicting origins for same prefix should fail")
	}
	// Identical duplicates collapse silently.
	tbl, err := NewTable(mkEntries("10.0.0.0/8=1", "10.0.0.0/8=1"))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 1 {
		t.Errorf("duplicate rows should collapse; Len = %d", tbl.Len())
	}
}

func TestNilAndEmptyTable(t *testing.T) {
	var nilTable *Table
	if _, _, ok := nilTable.Lookup(ip4.MustParseAddr("1.2.3.4")); ok {
		t.Error("nil table must miss")
	}
	empty, err := NewTable(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := empty.Lookup(ip4.MustParseAddr("1.2.3.4")); ok {
		t.Error("empty table must miss")
	}
}

func TestTrieMatchesLinear(t *testing.T) {
	// Property: the trie agrees with the brute-force scan on random
	// tables and random addresses.
	r := rng.New(99)
	var entries []Entry
	seen := map[ip4.Prefix]bool{}
	for i := 0; i < 300; i++ {
		bits := 8 + r.Intn(17)
		p := ip4.PrefixFrom(ip4.Addr(r.Uint64()), bits)
		if seen[p] {
			continue
		}
		seen[p] = true
		entries = append(entries, Entry{Prefix: p, ASN: asdb.ASN(r.Intn(65000) + 1)})
	}
	tbl, err := NewTable(entries)
	if err != nil {
		t.Fatal(err)
	}
	f := func(u uint32) bool {
		a := ip4.Addr(u)
		asn1, pfx1, ok1 := tbl.Lookup(a)
		asn2, pfx2, ok2 := tbl.LookupLinear(a)
		return ok1 == ok2 && asn1 == asn2 && pfx1 == pfx2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestMonthOf(t *testing.T) {
	cases := []struct {
		at   simclock.Time
		want Month
	}{
		{simclock.Date(2015, time.January, 1, 0, 0, 0), 201501},
		{simclock.Date(2015, time.January, 31, 23, 59, 59), 201501},
		{simclock.Date(2015, time.February, 1, 0, 0, 0), 201502},
		{simclock.Date(2015, time.December, 31, 23, 59, 59), 201512},
	}
	for _, c := range cases {
		if got := MonthOf(c.at); got != c.want {
			t.Errorf("MonthOf(%v) = %v, want %v", c.at, got, c.want)
		}
	}
	if got := Month(201503).String(); got != "2015-03" {
		t.Errorf("Month.String = %q", got)
	}
}

// stdMonthOf is MonthOf through the standard library's calendar.
func stdMonthOf(t simclock.Time) Month {
	std := t.Std()
	return Month(std.Year()*100 + int(std.Month()))
}

// TestMonthOfMatchesStd holds MonthOf's integer calendar to time.Time
// one second either side of every month boundary from 1970 to 2100
// (leap years, 2000's leap day and 2100's missing one included), and
// at random instants from year 1 to year 9999.
func TestMonthOfMatchesStd(t *testing.T) {
	for y := 1970; y <= 2100; y++ {
		for m := time.January; m <= time.December; m++ {
			b := simclock.Date(y, m, 1, 0, 0, 0)
			for _, at := range []simclock.Time{b - 1, b, b + 1} {
				if got, want := MonthOf(at), stdMonthOf(at); got != want {
					t.Fatalf("MonthOf(%d) = %v, time.Time says %v", int64(at), got, want)
				}
			}
		}
	}
	lo, hi := int64(simclock.Date(1, time.January, 1, 0, 0, 0)), int64(simclock.Date(9999, time.December, 31, 23, 59, 59))
	r := rng.New(11)
	for range 100000 {
		at := simclock.Time(lo + r.Int63n(hi-lo+1))
		if got, want := MonthOf(at), stdMonthOf(at); got != want {
			t.Fatalf("MonthOf(%d) = %v, time.Time says %v", int64(at), got, want)
		}
	}
}

var monthSink Month

func BenchmarkMonthOf(b *testing.B) {
	for i := 0; i < b.N; i++ {
		monthSink += MonthOf(simclock.StudyStart + simclock.Time(i*997))
	}
}

func TestParseMonth(t *testing.T) {
	cases := []struct {
		in   string
		want Month
		ok   bool
	}{
		{"201501", 201501, true},
		{"201512", 201512, true},
		{"000101", 101, true},
		{"201513", 0, false}, // month 13
		{"201500", 0, false}, // month 00
		{"2015", 0, false},
		{"+201501", 0, false},
		{"-20151", 0, false},
		{"201501.txt", 0, false},
		{"20a501", 0, false},
		{"2015011", 0, false},
		{"", 0, false},
	}
	for _, c := range cases {
		if got, ok := ParseMonth(c.in); got != c.want || ok != c.ok {
			t.Errorf("ParseMonth(%q) = %v, %v; want %v, %v", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestSnapshotStorePerMonthLookup(t *testing.T) {
	// The same address can move origin between months; the store must
	// answer with the snapshot matching the observation time.
	jan, err := NewTable(mkEntries("91.55.0.0/16=3320"))
	if err != nil {
		t.Fatal(err)
	}
	feb, err := NewTable(mkEntries("91.55.0.0/16=6805"))
	if err != nil {
		t.Fatal(err)
	}
	s := NewSnapshotStore()
	s.Put(201501, jan)
	s.Put(201502, feb)

	a := ip4.MustParseAddr("91.55.1.2")
	asn, _, ok := s.Lookup(a, simclock.Date(2015, time.January, 15, 0, 0, 0))
	if !ok || asn != 3320 {
		t.Errorf("January lookup = %v %v, want 3320", asn, ok)
	}
	asn, _, ok = s.Lookup(a, simclock.Date(2015, time.February, 15, 0, 0, 0))
	if !ok || asn != 6805 {
		t.Errorf("February lookup = %v %v, want 6805", asn, ok)
	}
	if _, _, ok := s.Lookup(a, simclock.Date(2015, time.March, 15, 0, 0, 0)); ok {
		t.Error("month without snapshot must miss")
	}
}

func TestSnapshotStoreMonthsSorted(t *testing.T) {
	s := NewSnapshotStore()
	empty, _ := NewTable(nil)
	s.Put(201512, empty)
	s.Put(201501, empty)
	s.Put(201506, empty)
	got := s.Months()
	want := []Month{201501, 201506, 201512}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Months = %v, want %v", got, want)
	}
}

func TestSnapshotStoreZeroValue(t *testing.T) {
	var s SnapshotStore
	if _, _, ok := s.Lookup(ip4.MustParseAddr("1.2.3.4"), simclock.StudyStart); ok {
		t.Error("zero-value store must miss")
	}
	empty, _ := NewTable(nil)
	s.Put(201501, empty) // must not panic
}

func buildBigTable(b *testing.B, n int) *Table {
	r := rng.New(7)
	seen := map[ip4.Prefix]bool{}
	var entries []Entry
	for len(entries) < n {
		bits := 8 + r.Intn(17)
		p := ip4.PrefixFrom(ip4.Addr(r.Uint64()), bits)
		if seen[p] {
			continue
		}
		seen[p] = true
		entries = append(entries, Entry{Prefix: p, ASN: asdb.ASN(r.Intn(65000) + 1)})
	}
	tbl, err := NewTable(entries)
	if err != nil {
		b.Fatal(err)
	}
	return tbl
}

func BenchmarkTrieLookup(b *testing.B) {
	tbl := buildBigTable(b, 10000)
	r := rng.New(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Lookup(ip4.Addr(r.Uint64()))
	}
}

func BenchmarkLinearLookup(b *testing.B) {
	tbl := buildBigTable(b, 10000)
	r := rng.New(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.LookupLinear(ip4.Addr(r.Uint64()))
	}
}
