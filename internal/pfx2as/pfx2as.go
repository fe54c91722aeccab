// Package pfx2as implements the CAIDA Routeviews prefix-to-AS dataset:
// the text interchange format, a longest-prefix-match table, and a
// month-keyed snapshot store.
//
// The paper (§3.3, §6) maps every observed address to its origin AS and
// BGP prefix using the CAIDA pfx2as snapshot for the month in which the
// address was observed, because routing tables drift over a year. The
// snapshot store reproduces that discipline: lookups are keyed by
// (address, month).
package pfx2as

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"dynaddr/internal/asdb"
	"dynaddr/internal/ip4"
	"dynaddr/internal/simclock"
)

// Entry is one row of a pfx2as snapshot: a routed prefix and its origin AS.
type Entry struct {
	Prefix ip4.Prefix
	ASN    asdb.ASN
}

// WriteText serialises entries in the CAIDA pfx2as text format:
// network <TAB> prefix-length <TAB> origin-ASN, one row per line.
func WriteText(w io.Writer, entries []Entry) error {
	bw := bufio.NewWriter(w)
	for _, e := range entries {
		if !e.Prefix.IsValid() {
			return fmt.Errorf("pfx2as: invalid prefix in entry %+v", e)
		}
		if _, err := fmt.Fprintf(bw, "%s\t%d\t%d\n", e.Prefix.Addr(), e.Prefix.Bits(), e.ASN); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ParseText parses the CAIDA pfx2as text format. Blank lines and lines
// beginning with '#' are ignored. CAIDA encodes multi-origin prefixes as
// "asn1_asn2" and AS-sets as "asn1,asn2"; like the paper we take the
// first origin.
func ParseText(r io.Reader) ([]Entry, error) {
	var out []Entry
	sc := bufio.NewScanner(r)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, fmt.Errorf("pfx2as: line %d: want 3 fields, got %d", lineno, len(fields))
		}
		addr, err := ip4.ParseAddr(fields[0])
		if err != nil {
			return nil, fmt.Errorf("pfx2as: line %d: %v", lineno, err)
		}
		bits, err := strconv.Atoi(fields[1])
		if err != nil || bits < 0 || bits > 32 {
			return nil, fmt.Errorf("pfx2as: line %d: bad prefix length %q", lineno, fields[1])
		}
		asnField := fields[2]
		if i := strings.IndexAny(asnField, "_,"); i >= 0 {
			asnField = asnField[:i]
		}
		asn, err := strconv.ParseUint(asnField, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("pfx2as: line %d: bad ASN %q", lineno, fields[2])
		}
		out = append(out, Entry{Prefix: ip4.PrefixFrom(addr, bits), ASN: asdb.ASN(asn)})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Table answers longest-prefix-match queries over one snapshot. Build it
// with NewTable; the zero value matches nothing.
type Table struct {
	root    *node
	entries []Entry
}

type node struct {
	child [2]*node
	entry *Entry // set if a prefix terminates here
}

// NewTable builds a lookup table from entries. Duplicate (prefix) rows
// with conflicting origins are rejected; identical rows are collapsed.
func NewTable(entries []Entry) (*Table, error) {
	t := &Table{root: &node{}}
	t.entries = make([]Entry, 0, len(entries))
	for _, e := range entries {
		if !e.Prefix.IsValid() {
			return nil, fmt.Errorf("pfx2as: invalid prefix in entry %+v", e)
		}
		n := t.root
		addr := uint32(e.Prefix.Addr())
		for b := 0; b < e.Prefix.Bits(); b++ {
			bit := (addr >> (31 - uint(b))) & 1
			if n.child[bit] == nil {
				n.child[bit] = &node{}
			}
			n = n.child[bit]
		}
		if n.entry != nil {
			if n.entry.ASN != e.ASN {
				return nil, fmt.Errorf("pfx2as: conflicting origins for %v: %v and %v",
					e.Prefix, n.entry.ASN, e.ASN)
			}
			continue // identical duplicate
		}
		cp := e
		n.entry = &cp
		t.entries = append(t.entries, e)
	}
	sort.Slice(t.entries, func(i, j int) bool {
		return t.entries[i].Prefix.Compare(t.entries[j].Prefix) < 0
	})
	return t, nil
}

// Lookup returns the origin AS and matched prefix for a, using longest-
// prefix match. ok is false if no routed prefix covers a.
func (t *Table) Lookup(a ip4.Addr) (asn asdb.ASN, pfx ip4.Prefix, ok bool) {
	if t == nil || t.root == nil {
		return 0, ip4.Prefix{}, false
	}
	n := t.root
	var best *Entry
	if n.entry != nil {
		best = n.entry
	}
	addr := uint32(a)
	for b := 0; b < 32 && n != nil; b++ {
		bit := (addr >> (31 - uint(b))) & 1
		n = n.child[bit]
		if n != nil && n.entry != nil {
			best = n.entry
		}
	}
	if best == nil {
		return 0, ip4.Prefix{}, false
	}
	return best.ASN, best.Prefix, true
}

// LookupLinear is a reference implementation that scans all entries; it
// exists to cross-check the trie and for the trie-vs-linear ablation
// bench.
func (t *Table) LookupLinear(a ip4.Addr) (asn asdb.ASN, pfx ip4.Prefix, ok bool) {
	var best *Entry
	for i := range t.entries {
		e := &t.entries[i]
		if e.Prefix.Contains(a) && (best == nil || e.Prefix.Bits() > best.Prefix.Bits()) {
			best = e
		}
	}
	if best == nil {
		return 0, ip4.Prefix{}, false
	}
	return best.ASN, best.Prefix, true
}

// Entries returns the table's rows sorted by prefix.
func (t *Table) Entries() []Entry { return t.entries }

// Len returns the number of distinct prefixes in the table.
func (t *Table) Len() int { return len(t.entries) }

// Month identifies a pfx2as snapshot month, encoded as year*100+month,
// e.g. 201503 for March 2015.
type Month int

// MonthOf returns the snapshot month containing t. Every address
// lookup asks for one, so it works on the seconds directly: the civil
// date of t's day by Hinnant's days-to-civil arithmetic over 400-year
// eras (days counted from 0000-03-01, so a leap day ends its year),
// with no time.Time in between.
func MonthOf(t simclock.Time) Month {
	days := floorDiv(int64(t), 86400) + 719468 // 1970-01-01 is day 719468
	era := floorDiv(days, 146097)
	doe := days - era*146097                               // day of era, [0, 146096]
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365 // year of era, [0, 399]
	doy := doe - (365*yoe + yoe/4 - yoe/100)               // day of March-based year, [0, 365]
	mp := (5*doy + 2) / 153                                // month from March, [0, 11]
	year, month := era*400+yoe, mp+3
	if month > 12 {
		year, month = year+1, month-12
	}
	return Month(year*100 + month)
}

// floorDiv is a/b rounded toward negative infinity, for b > 0.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b < 0 {
		q--
	}
	return q
}

// ParseMonth parses a month written as CAIDA names its snapshot files:
// exactly six digits YYYYMM with MM from 01 to 12.
func ParseMonth(s string) (Month, bool) {
	if len(s) != 6 {
		return 0, false
	}
	m := 0
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, false
		}
		m = m*10 + int(s[i]-'0')
	}
	if mm := m % 100; mm < 1 || mm > 12 {
		return 0, false
	}
	return Month(m), true
}

// String formats the month as "2015-03".
func (m Month) String() string { return fmt.Sprintf("%04d-%02d", int(m)/100, int(m)%100) }

// SnapshotStore holds one Table per month, mirroring CAIDA's monthly
// publication cadence.
type SnapshotStore struct {
	tables map[Month]*Table
}

// NewSnapshotStore returns an empty store.
func NewSnapshotStore() *SnapshotStore {
	return &SnapshotStore{tables: make(map[Month]*Table)}
}

// Put registers the snapshot for a month, replacing any previous one.
func (s *SnapshotStore) Put(m Month, t *Table) {
	if s.tables == nil {
		s.tables = make(map[Month]*Table)
	}
	s.tables[m] = t
}

// Table returns the snapshot for a month, if present.
func (s *SnapshotStore) Table(m Month) (*Table, bool) {
	t, ok := s.tables[m]
	return t, ok
}

// Months returns the registered months in ascending order.
func (s *SnapshotStore) Months() []Month {
	out := make([]Month, 0, len(s.tables))
	for m := range s.tables {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Lookup maps an address observed at time at to its origin AS and BGP
// prefix, using that month's snapshot — the paper's per-month mapping
// discipline. ok is false if the month has no snapshot or the address is
// unrouted in it.
func (s *SnapshotStore) Lookup(a ip4.Addr, at simclock.Time) (asn asdb.ASN, pfx ip4.Prefix, ok bool) {
	t, have := s.tables[MonthOf(at)]
	if !have {
		return 0, ip4.Prefix{}, false
	}
	return t.Lookup(a)
}
