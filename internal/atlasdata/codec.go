package atlasdata

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"unicode"
	"unicode/utf8"

	"dynaddr/internal/ip4"
	"dynaddr/internal/simclock"
)

// Text formats, one record per line, tab-separated:
//
//	connection logs: probe <TAB> start-unix <TAB> end-unix <TAB> address
//	k-root rounds:   probe <TAB> unix-time <TAB> sent <TAB> success <TAB> lts
//	uptime records:  probe <TAB> unix-time <TAB> uptime-seconds
//
// IPv6 addresses are recognised by containing ':'.

// parseConnLog assembles and validates an entry from the four
// text-format fields.
func parseConnLog(f fields) (ConnLogEntry, error) {
	probe, err1 := parseProbeID(f[0])
	start, err2 := parseInt(f[1], "start time")
	end, err3 := parseInt(f[2], "end time")
	if err := cmp.Or(err1, err2, err3); err != nil {
		return ConnLogEntry{}, err
	}
	e := ConnLogEntry{Probe: probe, Start: simclock.Time(start), End: simclock.Time(end), Family: V4}
	var err error
	if bytes.IndexByte(f[3], ':') >= 0 {
		e.Family, e.V6Addr = V6, string(f[3])
	} else if e.Addr, err = ip4.ParseAddr(string(f[3])); err != nil {
		return ConnLogEntry{}, err
	}
	return e, e.Validate()
}

// MarshalConnLog serialises one entry as a text-format line, without
// its newline.
func MarshalConnLog(e ConnLogEntry) ([]byte, error) {
	if err := e.Validate(); err != nil {
		return nil, err
	}
	addr := e.V6Addr
	if e.Family == V4 {
		addr = e.Addr.String()
	}
	return fmt.Appendf(nil, "%d\t%d\t%d\t%s", e.Probe, int64(e.Start), int64(e.End), addr), nil
}

// WriteConnLogs serialises connection-log entries.
func WriteConnLogs(w io.Writer, entries []ConnLogEntry) error {
	return writeText(w, entries, MarshalConnLog)
}

// ParseConnLogs parses connection-log entries in the text format.
func ParseConnLogs(r io.Reader) ([]ConnLogEntry, error) {
	return parseText(r, 4, parseConnLog, nil)
}

// parseKRoot assembles and validates a round from the five text-format
// fields.
func parseKRoot(f fields) (KRootRound, error) {
	probe, err1 := parseProbeID(f[0])
	ts, err2 := parseInt(f[1], "timestamp")
	if err := cmp.Or(err1, err2); err != nil {
		return KRootRound{}, err
	}
	sent, ok3 := atoi(f[2])
	success, ok4 := atoi(f[3])
	lts, ok5 := parseDecimal(f[4])
	if !ok3 || !ok4 || !ok5 {
		return KRootRound{}, fmt.Errorf("bad numeric field in [%s %s %s %s %s]", f[0], f[1], f[2], f[3], f[4])
	}
	k := KRootRound{Probe: probe, Timestamp: simclock.Time(ts), Sent: sent, Success: success, LTS: lts}
	return k, k.Validate()
}

// MarshalKRoot serialises one round as a text-format line, without its
// newline.
func MarshalKRoot(k KRootRound) ([]byte, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	return fmt.Appendf(nil, "%d\t%d\t%d\t%d\t%d", k.Probe, int64(k.Timestamp), k.Sent, k.Success, k.LTS), nil
}

// WriteKRoot serialises k-root rounds.
func WriteKRoot(w io.Writer, rounds []KRootRound) error {
	return writeText(w, rounds, MarshalKRoot)
}

// ParseKRoot parses k-root rounds in the text format.
func ParseKRoot(r io.Reader) ([]KRootRound, error) {
	return parseText(r, 5, parseKRoot, nil)
}

// parseUptime assembles and validates a record from the three
// text-format fields.
func parseUptime(f fields) (UptimeRecord, error) {
	probe, err1 := parseProbeID(f[0])
	ts, err2 := parseInt(f[1], "timestamp")
	up, err3 := parseInt(f[2], "uptime")
	if err := cmp.Or(err1, err2, err3); err != nil {
		return UptimeRecord{}, err
	}
	u := UptimeRecord{Probe: probe, Timestamp: simclock.Time(ts), Uptime: up}
	return u, u.Validate()
}

// MarshalUptime serialises one record as a text-format line, without
// its newline.
func MarshalUptime(u UptimeRecord) ([]byte, error) {
	if err := u.Validate(); err != nil {
		return nil, err
	}
	return fmt.Appendf(nil, "%d\t%d\t%d", u.Probe, int64(u.Timestamp), u.Uptime), nil
}

// WriteUptime serialises uptime records.
func WriteUptime(w io.Writer, recs []UptimeRecord) error {
	return writeText(w, recs, MarshalUptime)
}

// ParseUptime parses uptime records in the text format.
func ParseUptime(r io.Reader) ([]UptimeRecord, error) {
	return parseText(r, 3, parseUptime, nil)
}

// WriteProbeArchive serialises probe metadata as a JSON array, sorted by
// probe ID, mirroring the RIPE probe-archive API shape the paper scraped.
func WriteProbeArchive(w io.Writer, probes []ProbeMeta) error {
	sorted := make([]ProbeMeta, len(probes))
	copy(sorted, probes)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	for _, p := range sorted {
		if err := p.Validate(); err != nil {
			return err
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(sorted)
}

// ParseProbeArchive parses probe metadata written by WriteProbeArchive.
func ParseProbeArchive(r io.Reader) ([]ProbeMeta, error) {
	var probes []ProbeMeta
	if err := json.NewDecoder(r).Decode(&probes); err != nil {
		return nil, fmt.Errorf("atlasdata: probe archive: %v", err)
	}
	for _, p := range probes {
		if err := p.Validate(); err != nil {
			return nil, err
		}
	}
	return probes, nil
}

func parseProbeID(b []byte) (ProbeID, error) {
	id, ok := atoi(b)
	if !ok || id <= 0 {
		return 0, fmt.Errorf("bad probe ID %q", b)
	}
	return ProbeID(id), nil
}

func parseInt(b []byte, what string) (int64, error) {
	v, ok := parseDecimal(b)
	if !ok {
		return 0, fmt.Errorf("bad %s %q", what, b)
	}
	return v, nil
}

// atoi is strconv.Atoi on bytes, without allocating.
func atoi(b []byte) (int, bool) {
	v, ok := parseDecimal(b)
	return int(v), ok && int64(int(v)) == v
}

// parseDecimal is strconv.ParseInt(string(b), 10, 64) without the
// allocation: an optional sign, then one or more ASCII digits. Values
// of 19 digits and more, which may overflow, go to strconv itself.
func parseDecimal(b []byte) (int64, bool) {
	digits := b
	if len(digits) > 0 && (digits[0] == '+' || digits[0] == '-') {
		digits = digits[1:]
	}
	if len(digits) == 0 {
		return 0, false
	}
	if len(digits) > 18 {
		v, err := strconv.ParseInt(string(b), 10, 64)
		return v, err == nil
	}
	var v int64
	for _, c := range digits {
		if c -= '0'; c > 9 {
			return 0, false
		}
		v = v*10 + int64(c)
	}
	if b[0] == '-' {
		v = -v
	}
	return v, true
}

// maxFields is the widest record line: a k-root round's five fields.
const maxFields = 5

// fields holds a line's first fields; taken by value, it stays off the heap.
type fields [maxFields][]byte

// Byte classes for splitFields: a byte that can only be part of a field,
// an ASCII space (as unicode.IsSpace has it), and the first byte of a
// multi-byte rune, which may be a Unicode space.
const (
	fieldByte = iota
	asciiSpace
	runeStart
)

var byteClass = func() (c [256]uint8) {
	for _, b := range []byte{'\t', '\n', '\v', '\f', '\r', ' '} {
		c[b] = asciiSpace
	}
	for b := utf8.RuneSelf; b < 256; b++ {
		c[b] = runeStart
	}
	return c
}()

// splitFields splits b around runs of unicode.IsSpace, exactly as
// strings.Fields does, without allocating: the first maxFields fields
// land in f, and the result counts every field.
func splitFields(b []byte, f *fields) int {
	n, i := 0, 0
	for {
		for i < len(b) && byteClass[b[i]] != fieldByte {
			if size, space := spaceAt(b, i); space {
				i += size
			} else {
				break
			}
		}
		if i == len(b) {
			return n
		}
		start := i
		for i < len(b) {
			if c := byteClass[b[i]]; c == fieldByte {
				i++
			} else if size, space := spaceAt(b, i); !space {
				i += size
			} else {
				break
			}
		}
		if n < maxFields {
			f[n] = b[start:i]
		}
		n++
	}
}

// spaceAt decodes the rune at b[i], which is not a field byte, and
// reports its length and whether it is a space.
func spaceAt(b []byte, i int) (int, bool) {
	if byteClass[b[i]] == asciiSpace {
		return 1, true
	}
	r, size := utf8.DecodeRune(b[i:])
	return size, unicode.IsSpace(r)
}

// parseText appends to out one record per line of r. Blank lines and
// lines whose first field starts with '#' are skipped; every other line
// must hold exactly nFields fields. Errors name the 1-based line. Each
// block of lines (in parallel, when r is a file) is parsed straight into
// out's spare capacity, so out sized for r's lines up front is never
// grown.
func parseText[T any](r io.Reader, nFields int, parse func(fields) (T, error), out []T) ([]T, error) {
	t := &textScan[T]{nFields: nFields, parse: parse, recs: out, all: out[:cap(out)], next: len(out)}
	err := scanBlocks(r, t)
	if len(t.recs) == len(out) {
		return out, err // as append leaves it: nil stays nil
	}
	return t.recs, err
}

// textScan is parseText's pass over its blocks. Each block's records go
// to all[b.at:], at the block's place if every line before it were a
// record, and move down to the end of recs when the block finishes.
type textScan[T any] struct {
	nFields int
	parse   func(fields) (T, error)
	recs    []T // the records of the finished blocks
	all     []T // recs to its capacity; replaced only while no block is in flight
	next    int // where in all the next block's records go
}

func (t *textScan[T]) slots(int) {}

func (t *textScan[T]) start(b *block, idle bool) bool {
	if cap(t.all)-t.next < b.lines {
		if !idle {
			return false
		}
		if t.next = len(t.recs); cap(t.recs)-t.next < b.lines {
			t.recs = slices.Grow(t.recs, max(b.lines, len(t.recs)))
			t.all = t.recs[:cap(t.recs)]
		}
	}
	b.at = t.next
	t.next += b.lines
	return true
}

func (t *textScan[T]) scan(b *block) {
	out := t.all[b.at : b.at+b.lines]
	sc := newRecordScanner(b.buf, b.line, t.nFields, t.parse)
	b.n = 0
	for sc.Scan() {
		out[b.n] = sc.rec
		b.n++
	}
	b.err = sc.err
}

func (t *textScan[T]) finish(b *block) error {
	if b.err != nil {
		return b.err
	}
	n := len(t.recs)
	if b.at != n { // skipped lines came before the block
		copy(t.all[n:], t.all[b.at:b.at+b.n])
	}
	t.recs = t.all[:n+b.n]
	return nil
}

// recordScanner reads one record per line of an in-memory run of lines,
// as parseText describes, and reports where each record's line sits.
type recordScanner[T any] struct {
	buf     []byte
	pos     int // where the next line starts
	nFields int
	parse   func(fields) (T, error)
	lineno  int // lines read, plus the number the scanner started from
	err     error

	rec T   // the record the last Scan parsed
	off int // where its line starts in buf
	end int // just past its line, newline included
}

// newRecordScanner scans the lines of buf, numbering the first of them
// line+1 in its errors.
func newRecordScanner[T any](buf []byte, line, nFields int, parse func(fields) (T, error)) recordScanner[T] {
	return recordScanner[T]{buf: buf, lineno: line, nFields: nFields, parse: parse}
}

// Scan advances to the next record, skipping blank and comment lines.
// It returns false at the end of the lines or at the first error.
func (s *recordScanner[T]) Scan() bool {
	var f fields
	for s.err == nil && s.pos < len(s.buf) {
		off, line := s.pos, s.buf[s.pos:]
		if i := bytes.IndexByte(line, '\n'); i >= 0 {
			line, s.pos = line[:i], off+i+1
		} else {
			s.pos = len(s.buf)
		}
		s.lineno++
		n := splitFields(line, &f) // a '\r' before the newline is a space to it
		if n == 0 || f[0][0] == '#' {
			continue
		}
		if n != s.nFields {
			s.err = fmt.Errorf("atlasdata: line %d: want %d fields, got %d", s.lineno, s.nFields, n)
			return false
		}
		rec, err := s.parse(f)
		if err != nil {
			s.err = fmt.Errorf("atlasdata: line %d: %v", s.lineno, err)
			return false
		}
		s.rec, s.off, s.end = rec, off, s.pos
		return true
	}
	return false
}

// writeText writes one marshalled record per line.
func writeText[T any](w io.Writer, recs []T, marshal func(T) ([]byte, error)) error {
	bw := bufio.NewWriter(w)
	for _, r := range recs {
		b, err := marshal(r)
		if err != nil {
			return err
		}
		if _, err := bw.Write(append(b, '\n')); err != nil {
			return err
		}
	}
	return bw.Flush()
}
