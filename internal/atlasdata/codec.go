package atlasdata

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
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

// MarshalConnLog serialises one entry as a self-contained text record —
// the single-record codec the ingest WAL frames its payloads with.
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

// UnmarshalConnLog parses a record written by MarshalConnLog.
func UnmarshalConnLog(b []byte) (ConnLogEntry, error) {
	return unmarshalRecord(b, "connlog", 4, parseConnLog)
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
	sent, err3 := strconv.Atoi(string(f[2]))
	success, err4 := strconv.Atoi(string(f[3]))
	lts, err5 := strconv.ParseInt(string(f[4]), 10, 64)
	if err3 != nil || err4 != nil || err5 != nil {
		return KRootRound{}, fmt.Errorf("bad numeric field in [%s %s %s %s %s]", f[0], f[1], f[2], f[3], f[4])
	}
	k := KRootRound{Probe: probe, Timestamp: simclock.Time(ts), Sent: sent, Success: success, LTS: lts}
	return k, k.Validate()
}

// MarshalKRoot serialises one round as a self-contained text record.
func MarshalKRoot(k KRootRound) ([]byte, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	return fmt.Appendf(nil, "%d\t%d\t%d\t%d\t%d", k.Probe, int64(k.Timestamp), k.Sent, k.Success, k.LTS), nil
}

// UnmarshalKRoot parses a record written by MarshalKRoot.
func UnmarshalKRoot(b []byte) (KRootRound, error) {
	return unmarshalRecord(b, "kroot", 5, parseKRoot)
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

// MarshalUptime serialises one record as a self-contained text record.
func MarshalUptime(u UptimeRecord) ([]byte, error) {
	if err := u.Validate(); err != nil {
		return nil, err
	}
	return fmt.Appendf(nil, "%d\t%d\t%d", u.Probe, int64(u.Timestamp), u.Uptime), nil
}

// UnmarshalUptime parses a record written by MarshalUptime.
func UnmarshalUptime(b []byte) (UptimeRecord, error) {
	return unmarshalRecord(b, "uptime", 3, parseUptime)
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

// MarshalProbeMeta serialises one probe's metadata as a self-contained
// JSON record.
func MarshalProbeMeta(p ProbeMeta) ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(p)
}

// UnmarshalProbeMeta parses a record written by MarshalProbeMeta.
func UnmarshalProbeMeta(b []byte) (ProbeMeta, error) {
	var p ProbeMeta
	if err := json.Unmarshal(b, &p); err != nil {
		return ProbeMeta{}, fmt.Errorf("atlasdata: probe meta record: %v", err)
	}
	return p, p.Validate()
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
	id, err := strconv.Atoi(string(b))
	if err != nil || id <= 0 {
		return 0, fmt.Errorf("bad probe ID %q", b)
	}
	return ProbeID(id), nil
}

func parseInt(b []byte, what string) (int64, error) {
	v, err := strconv.ParseInt(string(b), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q", what, b)
	}
	return v, nil
}

// maxFields is the widest record line: a k-root round's five fields.
const maxFields = 5

// fields holds a line's first fields; taken by value, it stays off the heap.
type fields [maxFields][]byte

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// splitFields splits b around runs of unicode.IsSpace, exactly as
// strings.Fields does, without allocating: the first maxFields fields
// land in f, and the result counts every field.
func splitFields(b []byte, f *fields) int {
	n, start := 0, -1
	for i := 0; i < len(b); {
		c, size := b[i], 1
		space := asciiSpace[c]
		if c >= utf8.RuneSelf {
			var r rune
			r, size = utf8.DecodeRune(b[i:])
			space = unicode.IsSpace(r)
		}
		if space && start >= 0 {
			if n < maxFields {
				f[n] = b[start:i]
			}
			n++
			start = -1
		} else if !space && start < 0 {
			start = i
		}
		i += size
	}
	if start >= 0 {
		if n < maxFields {
			f[n] = b[start:]
		}
		n++
	}
	return n
}

// parseText appends to out one record per line of r. Blank lines and
// lines whose first field starts with '#' are skipped; every other line
// must hold exactly nFields fields. Errors name the 1-based line.
func parseText[T any](r io.Reader, nFields int, parse func(fields) (T, error), out []T) ([]T, error) {
	sc := newRecordScanner(r, nil, nFields, parse)
	for sc.Scan() {
		out = append(out, sc.rec)
	}
	return out, sc.Err()
}

// recordScanner reads one record per line, as parseText describes, and
// reports where each record's line sits in the input.
type recordScanner[T any] struct {
	sc      *bufio.Scanner
	nFields int
	parse   func(fields) (T, error)
	lineno  int
	err     error

	rec T      // the record the last Scan parsed
	raw []byte // its line's bytes, terminator included; valid until the next Scan
	off int64  // the line's offset in the input
	end int64  // the offset just past the line
}

// newRecordScanner scans r. buf, whose capacity is the scanner's first
// line buffer, may be nil for a 64 KiB one; longer lines grow it.
func newRecordScanner[T any](r io.Reader, buf []byte, nFields int, parse func(fields) (T, error)) *recordScanner[T] {
	s := &recordScanner[T]{sc: bufio.NewScanner(r), nFields: nFields, parse: parse}
	if buf == nil {
		buf = make([]byte, 0, 64*1024)
	}
	s.sc.Buffer(buf, 1<<20)
	s.sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		advance, token, err := bufio.ScanLines(data, atEOF)
		if token != nil {
			s.raw, s.off, s.end = data[:advance], s.end, s.end+int64(advance)
		}
		return advance, token, err
	})
	return s
}

// Scan advances to the next record, skipping blank and comment lines.
// It returns false at the end of the input or at the first error.
func (s *recordScanner[T]) Scan() bool {
	var f fields
	for s.err == nil && s.sc.Scan() {
		s.lineno++
		n := splitFields(s.sc.Bytes(), &f)
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
		s.rec = rec
		return true
	}
	return false
}

// Err returns the first parse or read error.
func (s *recordScanner[T]) Err() error {
	if s.err != nil {
		return s.err
	}
	return s.sc.Err()
}

// unmarshalRecord parses one self-contained record of nFields fields.
func unmarshalRecord[T any](b []byte, kind string, nFields int, parse func(fields) (T, error)) (T, error) {
	var f fields
	if n := splitFields(b, &f); n != nFields {
		return *new(T), fmt.Errorf("atlasdata: %s record: want %d fields, got %d", kind, nFields, n)
	}
	return parse(f)
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
