package atlasdata

import (
	"bufio"
	"bytes"
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
	probe, err := f.probeID(0)
	if err != nil {
		return ConnLogEntry{}, err
	}
	start, err := f.int(1, "start time")
	if err != nil {
		return ConnLogEntry{}, err
	}
	end, err := f.int(2, "end time")
	if err != nil {
		return ConnLogEntry{}, err
	}
	var v4 ip4.Addr
	var v6 string
	if addr := f.b[3]; bytes.IndexByte(addr, ':') >= 0 {
		v6 = string(addr)
	} else if v4, err = ip4.ParseAddr(string(addr)); err != nil {
		return ConnLogEntry{}, err
	}
	return NewConnLogEntry(probe, simclock.Time(start), simclock.Time(end), v4, v6)
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
	probe, err := f.probeID(0)
	if err != nil {
		return KRootRound{}, err
	}
	ts, err := f.int(1, "timestamp")
	if err != nil {
		return KRootRound{}, err
	}
	sent, ok3 := f.atoi(2)
	success, ok4 := f.atoi(3)
	lts, ok5 := f.decimal(4)
	if !ok3 || !ok4 || !ok5 {
		return KRootRound{}, fmt.Errorf("bad numeric field in [%s %s %s %s %s]", f.b[0], f.b[1], f.b[2], f.b[3], f.b[4])
	}
	return NewKRootRound(probe, simclock.Time(ts), sent, success, lts)
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
	probe, err := f.probeID(0)
	if err != nil {
		return UptimeRecord{}, err
	}
	ts, err := f.int(1, "timestamp")
	if err != nil {
		return UptimeRecord{}, err
	}
	up, err := f.int(2, "uptime")
	if err != nil {
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
// Like ParseProbeArchive, it refuses a probe ID listed twice.
func WriteProbeArchive(w io.Writer, probes []ProbeMeta) error {
	sorted := make([]ProbeMeta, len(probes))
	copy(sorted, probes)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	for i, p := range sorted {
		if err := p.Validate(); err != nil {
			return err
		}
		if i > 0 && p.ID == sorted[i-1].ID {
			return duplicateProbe(p.ID)
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(sorted)
}

// ParseProbeArchive parses probe metadata written by WriteProbeArchive.
// It refuses a probe ID listed twice: no entry of an archive overrides
// another.
func ParseProbeArchive(r io.Reader) ([]ProbeMeta, error) {
	var probes []ProbeMeta
	if err := json.NewDecoder(r).Decode(&probes); err != nil {
		return nil, fmt.Errorf("atlasdata: probe archive: %v", err)
	}
	seen := make(map[ProbeID]struct{}, len(probes))
	for _, p := range probes {
		if err := p.Validate(); err != nil {
			return nil, err
		}
		if _, dup := seen[p.ID]; dup {
			return nil, duplicateProbe(p.ID)
		}
		seen[p.ID] = struct{}{}
	}
	return probes, nil
}

func duplicateProbe(id ProbeID) error {
	return fmt.Errorf("atlasdata: probe archive lists probe %d twice", id)
}

// probeID reads field i as a probe ID: positive, and within
// CheckProbeID's range.
func (f *fields) probeID(i int) (ProbeID, error) {
	id, ok := f.atoi(i)
	if !ok || id <= 0 {
		return 0, fmt.Errorf("bad probe ID %q", f.b[i])
	}
	if err := CheckProbeID(ProbeID(id)); err != nil {
		return 0, err
	}
	return ProbeID(id), nil
}

// int reads field i as a decimal; what names it in the error.
func (f *fields) int(i int, what string) (int64, error) {
	v, ok := f.decimal(i)
	if !ok {
		return 0, fmt.Errorf("bad %s %q", what, f.b[i])
	}
	return v, nil
}

// atoi reads field i as strconv.Atoi would, without allocating.
func (f *fields) atoi(i int) (int, bool) {
	v, ok := f.decimal(i)
	return int(v), ok && int64(int(v)) == v
}

// decimal reads field i as parseDecimal does.
func (f *fields) decimal(i int) (int64, bool) {
	return f.v[i], f.ok&(1<<i) != 0
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
	if len(digits) > maxDigits {
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

// maxDigits is the longest run of digits whose value fits an int64
// whatever the digits: parseDecimal defers longer ones to strconv.
const maxDigits = 18

// fields holds a line's first fields and what parseDecimal makes of
// each; taken by value, it stays off the heap.
type fields struct {
	b  [maxFields][]byte
	v  [maxFields]int64
	ok uint8 // bit i set: b[i] is a decimal, of value v[i]
}

// Byte classes for the tokenizers: a byte that can only be part of a
// field, an ASCII space (as unicode.IsSpace has it), the newline that
// ends a line, and the first byte of a multi-byte rune, which may be a
// Unicode space.
const (
	fieldByte = iota
	asciiSpace
	newline
	runeStart
)

var byteClass = func() (c [256]uint8) {
	for _, b := range []byte{'\t', '\v', '\f', '\r', ' '} {
		c[b] = asciiSpace
	}
	c['\n'] = newline
	for b := utf8.RuneSelf; b < 256; b++ {
		c[b] = runeStart
	}
	return c
}()

// splitLine splits the line of buf that starts at pos into f, as
// splitFields does, and reads each field as a decimal. It returns the
// number of fields and where the line ends: at its newline, or at the
// end of buf. A field of 1 to maxDigits ASCII digits gets its value on
// the way, and any other field from parseDecimal. A line with a byte of
// a multi-byte rune goes to splitFields whole.
func splitLine(buf []byte, pos int, f *fields) (n, end int) {
	f.ok = 0
	i := pos
	for {
		for i < len(buf) && byteClass[buf[i]] == asciiSpace {
			i++
		}
		if i == len(buf) || buf[i] == '\n' {
			return n, i
		}
		start, v, digits := i, int64(0), true
	field:
		for ; i < len(buf); i++ {
			c := buf[i]
			if d := c - '0'; d <= 9 {
				v = v*10 + int64(d)
				continue
			}
			switch byteClass[c] {
			case fieldByte:
				digits = false
			case runeStart:
				return unicodeLine(buf, pos, i, f)
			default:
				break field
			}
		}
		if n < maxFields {
			f.b[n] = buf[start:i]
			ok := digits && i-start <= maxDigits
			if !ok {
				v, ok = parseDecimal(f.b[n])
			}
			if ok {
				f.v[n] = v
				f.ok |= 1 << n
			}
		}
		n++
	}
}

// unicodeLine is splitLine for a line starting at pos whose byte at i
// starts a multi-byte rune.
func unicodeLine(buf []byte, pos, i int, f *fields) (n, end int) {
	end = len(buf)
	if j := bytes.IndexByte(buf[i:], '\n'); j >= 0 {
		end = i + j
	}
	n = splitFields(buf[pos:end], &f.b)
	f.ok = 0
	for i := range min(n, maxFields) {
		if v, ok := parseDecimal(f.b[i]); ok {
			f.v[i] = v
			f.ok |= 1 << i
		}
	}
	return n, end
}

// splitFields splits b around runs of unicode.IsSpace, exactly as
// strings.Fields does, without allocating: the first maxFields fields
// land in f, and the result counts every field.
func splitFields(b []byte, f *[maxFields][]byte) int {
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
	if c := byteClass[b[i]]; c == asciiSpace || c == newline {
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
		off := s.pos
		n, end := splitLine(s.buf, off, &f) // a '\r' before the newline is a space to it
		s.pos = min(end+1, len(s.buf))
		s.lineno++
		if n == 0 || f.b[0][0] == '#' {
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
		if err := writeLine(bw, r, marshal); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// writeLine writes one marshalled record and its newline.
func writeLine[T any](bw *bufio.Writer, r T, marshal func(T) ([]byte, error)) error {
	b, err := marshal(r)
	if err != nil {
		return err
	}
	_, err = bw.Write(append(b, '\n'))
	return err
}
