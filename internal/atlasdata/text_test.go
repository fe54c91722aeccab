package atlasdata

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"dynaddr/internal/ip4"
	"dynaddr/internal/simclock"
)

// The reference text parsers: the strings.Fields-based implementation
// the byte-level scanner replaced, kept verbatim so FuzzTextRecords can
// hold the two to the same records and the same error text. Like the
// parsers, they share the value range checks (CheckProbeID,
// NewConnLogEntry and NewKRootRound).

func refScanLines(r io.Reader, nFields int, fn func(lineno int, fields []string) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != nFields {
			return fmt.Errorf("atlasdata: line %d: want %d fields, got %d", lineno, nFields, len(fields))
		}
		if err := fn(lineno, fields); err != nil {
			return fmt.Errorf("atlasdata: line %d: %v", lineno, err)
		}
	}
	return sc.Err()
}

func refParseProbeID(s string) (ProbeID, error) {
	id, err := strconv.Atoi(s)
	if err != nil || id <= 0 {
		return 0, fmt.Errorf("bad probe ID %q", s)
	}
	if err := CheckProbeID(ProbeID(id)); err != nil {
		return 0, err
	}
	return ProbeID(id), nil
}

func refParseConnLogFields(f []string) (ConnLogEntry, error) {
	probe, err := refParseProbeID(f[0])
	if err != nil {
		return ConnLogEntry{}, err
	}
	start, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return ConnLogEntry{}, fmt.Errorf("bad start time %q", f[1])
	}
	end, err := strconv.ParseInt(f[2], 10, 64)
	if err != nil {
		return ConnLogEntry{}, fmt.Errorf("bad end time %q", f[2])
	}
	var addr ip4.Addr
	var v6 string
	if strings.Contains(f[3], ":") {
		v6 = f[3]
	} else if addr, err = ip4.ParseAddr(f[3]); err != nil {
		return ConnLogEntry{}, err
	}
	return NewConnLogEntry(probe, simclock.Time(start), simclock.Time(end), addr, v6)
}

func refParseKRootFields(f []string) (KRootRound, error) {
	probe, err := refParseProbeID(f[0])
	if err != nil {
		return KRootRound{}, err
	}
	ts, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return KRootRound{}, fmt.Errorf("bad timestamp %q", f[1])
	}
	sent, err1 := strconv.Atoi(f[2])
	success, err2 := strconv.Atoi(f[3])
	lts, err3 := strconv.ParseInt(f[4], 10, 64)
	if err1 != nil || err2 != nil || err3 != nil {
		return KRootRound{}, fmt.Errorf("bad numeric field in %v", f)
	}
	return NewKRootRound(probe, simclock.Time(ts), sent, success, lts)
}

func refParseUptimeFields(f []string) (UptimeRecord, error) {
	probe, err := refParseProbeID(f[0])
	if err != nil {
		return UptimeRecord{}, err
	}
	ts, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return UptimeRecord{}, fmt.Errorf("bad timestamp %q", f[1])
	}
	up, err := strconv.ParseInt(f[2], 10, 64)
	if err != nil {
		return UptimeRecord{}, fmt.Errorf("bad uptime %q", f[2])
	}
	u := UptimeRecord{Probe: probe, Timestamp: simclock.Time(ts), Uptime: up}
	return u, u.Validate()
}

func refParse[T any](r io.Reader, nFields int, parse func([]string) (T, error)) ([]T, error) {
	var out []T
	err := refScanLines(r, nFields, func(lineno int, f []string) error {
		rec, err := parse(f)
		if err != nil {
			return err
		}
		out = append(out, rec)
		return nil
	})
	return out, err
}

// sameAsReference fails unless got and want both succeed with equal
// values or both fail with the same message.
func sameAsReference[T any](t *testing.T, name string, data []byte, got T, err error, want T, wantErr error) {
	t.Helper()
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("%s(%q): error %v, reference error %v", name, data, err, wantErr)
	case err != nil && err.Error() != wantErr.Error():
		t.Fatalf("%s(%q): error %q, reference error %q", name, data, err, wantErr)
	case err == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("%s(%q) = %+v, reference %+v", name, data, got, want)
	}
}

// FuzzTextRecords holds the batch text parsers to the reference
// implementation on arbitrary bytes: blank and comment lines, CRLF,
// Unicode spaces, invalid UTF-8, wrong field counts and malformed
// numbers alike.
func FuzzTextRecords(f *testing.F) {
	for _, seed := range textRecordSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(checkTextRecords)
}

// textRecordSeeds is FuzzTextRecords' seed corpus.
var textRecordSeeds = []string{
	"206\t1420082494\t1420167457\t91.55.174.103\n",
	"207 100 200 2001:db8::1\r\n# header\n\n208\t1\t2\t10.0.0.1",
	"16893\t1422349302\t3\t3\t86\n16893\t1422349548\t3\t0\t151\n",
	"206\t100\t5000\n  # indented comment\n206\t300\t20",
	"206\u00a0100\u0085 5000\u2003",
	"\xff206\t100\t5000\n206\t1\t2\t\xc2",
	"206\t1\t2\t3\t4\t5\t6\t7",
	"0\t1\t2\n+5\t-1\t+2\n-3\t0\t0",
	"1\t2\t3\t4\tx",
	"1\t2\t3\t4\t5\n1\t2\t9\t4\t5",
	"206\t200\t100\t1.2.3.4",
	"206\t100\t200\t1.2.3.999",
	"206\t100\t200\t1..3.4",
	"99999999999999999999\t1\t2",
	// Decimal fields at and past int64's bounds, at the 19 digits
	// from which parseDecimal defers to strconv, and in the shapes
	// strconv's other bases and syntaxes accept but base 10 does not.
	"206\t9223372036854775807\t-9223372036854775808\n206\t-9223372036854775807\t9223372036854775807",
	"206\t9223372036854775808\t1\n206\t-9223372036854775809\t1",
	"9223372036854775807\t1\t2\t3\t4\n9223372036854775808\t1\t2\t3\t4",
	"1\t-9223372036854775808\t9223372036854775807\t0\t9223372036854775807",
	"206\t1000000000000000000\t999999999999999999\t-1000000000000000000",
	"206\t10000000000000000000\t1\n206\t-10000000000000000000\t1",
	"206\t00000000000000000000042\t+0000000000000000000007",
	"+5\t+5\t-0\t-0\t+0\n+5\t-0\t+5",
	"206\t0x10\t1\n206\t0b1\t1\n206\t0o7\t1",
	"206\t1_000\t1\n206\t1e3\t1\n206\t1.0\t1",
	"",
	"+\t-\t1\n206\t+\t1\n206\t1\t-\n206\t+-1\t1",
	"206\t\u0661\u0662\u0663\t1\n206\t\uff11\uff12\t1\n\u0663\t1\t2",
	// The one-pass tokenizer's edges: a Unicode space or an invalid
	// byte after ASCII fields sends the line to splitFields, digit runs
	// of 18 digits get a value and of 19 go to parseDecimal, and signs,
	// letters and spaces end or spoil a digit field.
	"206\t100\u00a05000\n206\t100\t200\u00a01.2.3.4\n206\t1\t3\t3\u00a060",
	"206\t100\u20035000\n206\t100\t5000\u2003\n206\t1\t3\u20033\t60",
	"206\t100\xff\t5000\n206\t100\t5000\xfe\n206 1\xc3 3 3 60",
	"206\t999999999999999999\t100000000000000000\n206\t1\t999999999999999999\t3\t100000000000000000",
	"206\t1000000000000000000\t9999999999999999999\n206\t1\t3\t3\t1000000000000000000",
	"0000206\t007\t000000000000000000001\n00206\t0\t00\t00.0.0.1",
	"-0\t+7\t1\n206\t-0\t+7\n206\t+7\t-0\t+7\t-0",
	"0\t1\t2\n0\t1\t2\t3\t4\n0\t1\t2\t1.2.3.4",
	"206\t12ab\t1\n206\t1\t12ab\t1.2.3.4\n12ab\t1\t2\n206\t1\t3\t3\t60ms",
	"206\t100\t5000\r\n\t\t\t\n206\t300\t20\r\n\t",
	// K-root values at and past the wire format's ranges, one bad value
	// per input so that each reaches its check: u32 probe IDs, u16
	// counts, an int32 LTS, u32 timestamps (which uptime records, stored
	// in 64 bits, take).
	"4294967295\t1\t65535\t65535\t2147483647\n206\t2\t0\t0\t0",
	"206\t4294967295\t3\t3\t60\n206\t0\t3\t3\t60",
	"206\t4294967296\t3\t3\t60",
	"206\t-1\t3\t3\t60",
	"206\t4294967296\t5000\n206\t-1\t5000",
	"4294967296\t1\t3\t3\t60",
	"206\t1\t65539\t1\t60",
	"206\t1\t3\t-1\t60",
	"206\t1\t3\t3\t4294967356",
	"206\t1\t3\t3\t-2147483649",
	// Probe IDs at and past u32 in the other two formats.
	"4294967295\t1\t2\t10.0.0.1\n4294967296\t3\t4\t10.0.0.2",
	"4294967295\t1\t5000\n4294967296\t2\t5000",
	// Session times at and past u32, the range a detector keeps gaps in.
	"206\t0\t0\t10.0.0.1\n206\t4294967295\t4294967295\t2001:db8::1",
	"206\t-1\t5\t10.0.0.1",
	"206\t5\t4294967296\t10.0.0.1",
	"206\t4294967296\t4294967296\t2001:db8::1",
	// IPv6 literals repeated within a probe and shared across probes,
	// in probe order and out of it: a Dataset holds each once.
	"206\t10\t20\t2001:db8::1\n206\t30\t40\t2001:db8::1\n206\t50\t60\t2001:db8::2\n207\t10\t20\t2001:db8::1\n207\t50\t60\t2001:db8::2\n",
	"207\t50\t60\t2001:db8::2\n206\t30\t40\t2001:db8::1\n207\t10\t20\t2001:db8::1\n206\t10\t20\t2001:db8::1\n206\t45\t46\t10.0.0.1\n",
}

// checkTextRecords is FuzzTextRecords' check of one input.
func checkTextRecords(t *testing.T, data []byte) {
	cs, err := ParseConnLogs(bytes.NewReader(data))
	rcs, rerr := refParse(bytes.NewReader(data), 4, refParseConnLogFields)
	sameAsReference(t, "ParseConnLogs", data, cs, err, rcs, rerr)
	for _, c := range cs {
		if err := ConnLogWireRoundTrip(c); err != nil {
			t.Fatalf("ParseConnLogs(%q) accepted %+v: %v", data, c, err)
		}
	}
	checkStoredConnLogs(t, data, cs)
	ks, err := ParseKRoot(bytes.NewReader(data))
	rks, rerr := refParse(bytes.NewReader(data), 5, refParseKRootFields)
	sameAsReference(t, "ParseKRoot", data, ks, err, rks, rerr)
	for _, k := range ks {
		if err := KRootWireRoundTrip(k); err != nil {
			t.Fatalf("ParseKRoot(%q) accepted %+v: %v", data, k, err)
		}
	}
	us, err := ParseUptime(bytes.NewReader(data))
	rus, rerr := refParse(bytes.NewReader(data), 3, refParseUptimeFields)
	sameAsReference(t, "ParseUptime", data, us, err, rus, rerr)
	if err := checkSplitLines(data); err != nil {
		t.Fatal(err)
	}
}

// checkStoredConnLogs files the sessions cs parsed from data in a
// Dataset, as a Dataset stores them. If they make a valid one, Save,
// Load and Save again must write the same connection-log bytes, and
// the loaded Dataset must hold each IPv6 literal once, at the index of
// every session using it.
func checkStoredConnLogs(t *testing.T, data []byte, cs []ConnLogEntry) {
	if len(cs) == 0 {
		return
	}
	d := NewDataset()
	byProbe := map[ProbeID][]ConnLogEntry{}
	for _, c := range cs {
		d.Probes[c.Probe] = ProbeMeta{ID: c.Probe, Version: V3}
		byProbe[c.Probe] = append(byProbe[c.Probe], c)
	}
	lits := NewV6Interner(&d.V6)
	for _, id := range sortedIDs(byProbe) {
		s, err := ConnLogSeries(id, byProbe[id], lits)
		if err != nil {
			t.Fatalf("ConnLogSeries refused sessions ParseConnLogs(%q) accepted: %v", data, err)
		}
		d.ConnLogs[id] = s
	}
	d.SortRecords()
	if d.Validate() != nil {
		return // overlapping sessions
	}
	dir := t.TempDir()
	first, second := filepath.Join(dir, "a"), filepath.Join(dir, "b")
	if err := d.Save(first); err != nil {
		t.Fatalf("saving ParseConnLogs(%q): %v", data, err)
	}
	loaded, err := Load(first)
	if err != nil {
		t.Fatalf("loading ParseConnLogs(%q) as saved: %v", data, err)
	}
	if err := loaded.Save(second); err != nil {
		t.Fatal(err)
	}
	a, errA := os.ReadFile(filepath.Join(first, connLogsFile))
	b, errB := os.ReadFile(filepath.Join(second, connLogsFile))
	if errA != nil || errB != nil || !bytes.Equal(a, b) {
		t.Fatalf("ParseConnLogs(%q): Save, Load, Save wrote\n%q\nthen\n%q (%v, %v)", data, a, b, errA, errB)
	}
	index := map[string]uint32{}
	for _, s := range loaded.ConnLogs {
		for _, e := range s {
			if e.Family != V6 {
				continue
			}
			lit := loaded.V6.Literal(e.Addr)
			if i, ok := index[lit]; ok && i != e.Addr {
				t.Fatalf("ParseConnLogs(%q): literal %q loaded at indexes %d and %d", data, lit, i, e.Addr)
			}
			index[lit] = e.Addr
		}
	}
	if len(index) != loaded.V6.Len() {
		t.Fatalf("ParseConnLogs(%q): %d literals in use, %d in the table", data, len(index), loaded.V6.Len())
	}
}

// checkSplitLines runs every line of buf through splitLine and through
// splitFields. It reports the first line on which the two disagree on
// where the line ends, how many fields it holds or what bytes they are,
// or on which splitLine's reading of a field as a decimal differs from
// parseDecimal's.
func checkSplitLines(buf []byte) error {
	for pos, lineno := 0, 1; pos < len(buf); lineno++ {
		var f fields
		n, end := splitLine(buf, pos, &f)
		wantEnd := len(buf)
		if i := bytes.IndexByte(buf[pos:], '\n'); i >= 0 {
			wantEnd = pos + i
		}
		line := buf[pos:wantEnd]
		if end != wantEnd {
			return fmt.Errorf("line %d %q: splitLine ends it at %d, want %d", lineno, line, end, wantEnd)
		}
		var want [maxFields][]byte
		if wn := splitFields(line, &want); n != wn {
			return fmt.Errorf("line %d %q: splitLine finds %d fields, splitFields %d", lineno, line, n, wn)
		}
		for i := range min(n, maxFields) {
			if !bytes.Equal(f.b[i], want[i]) {
				return fmt.Errorf("line %d %q: splitLine's field %d is %q, splitFields' %q", lineno, line, i, f.b[i], want[i])
			}
			got, gotOK := f.decimal(i)
			if v, ok := parseDecimal(f.b[i]); gotOK != ok || ok && got != v {
				return fmt.Errorf("line %d %q: field %d %q reads as %d (ok %v), parseDecimal %d (ok %v)", lineno, line, i, f.b[i], got, gotOK, v, ok)
			}
		}
		pos = end + 1
	}
	return nil
}

// appendGrowths counts the allocations append makes growing a nil []T
// to n elements.
func appendGrowths[T any](n int) int {
	var s []T
	growths := 0
	for i := 0; i < n; i++ {
		if len(s) == cap(s) {
			growths++
		}
		s = append(s, *new(T))
	}
	return growths
}

// parseAllocs reports the allocations of one parse call over lines
// generated by line.
func parseAllocs[T any](t *testing.T, lines int, line func(i int) string, parse func(io.Reader, int) ([]T, error)) float64 {
	t.Helper()
	var b strings.Builder
	for i := 0; i < lines; i++ {
		b.WriteString(line(i))
	}
	src := b.String()
	return testing.AllocsPerRun(5, func() {
		if got, err := parse(strings.NewReader(src), lines); err != nil || len(got) != lines {
			t.Fatalf("parsed %d of %d lines: %v", len(got), lines, err)
		}
	})
}

// checkParseAllocs fails if parsing allocates per line: ParseX may grow
// its result as append does and nothing more, and parsing into a slice
// sized up front, as Load does, allocates the same at any line count.
func checkParseAllocs[T any](t *testing.T, name string, line func(i int) string, public func(io.Reader) ([]T, error), nFields int, parse func(fields) (T, error)) {
	t.Helper()
	const small, big = 16, 16384
	viaPublic := func(r io.Reader, _ int) ([]T, error) { return public(r) }
	if d, growth := parseAllocs(t, big, line, viaPublic)-parseAllocs(t, small, line, viaPublic),
		appendGrowths[T](big)-appendGrowths[T](small); d > float64(growth) {
		t.Errorf("%s: %d lines cost %.0f more allocations than %d lines; result growth accounts for %d",
			name, big, d, small, growth)
	}
	presized := func(r io.Reader, n int) ([]T, error) { return parseText(r, nFields, parse, make([]T, 0, n)) }
	if a, b := parseAllocs(t, small, line, presized), parseAllocs(t, big, line, presized); a != b {
		t.Errorf("%s into a pre-sized slice: %.0f allocations at %d lines, %.0f at %d", name, a, small, b, big)
	}
}

func TestTextParseAllocs(t *testing.T) {
	checkParseAllocs(t, "ParseKRoot", func(i int) string {
		return fmt.Sprintf("%d\t%d\t3\t2\t%d\n", 1+i%50, 1420070400+240*i, i%300)
	}, ParseKRoot, 5, parseKRoot)
	checkParseAllocs(t, "ParseUptime", func(i int) string {
		return fmt.Sprintf("%d\t%d\t%d\n", 1+i%50, 1420070400+3600*i, 3600*i)
	}, ParseUptime, 3, parseUptime)
	checkParseAllocs(t, "ParseConnLogs (v4)", func(i int) string {
		return fmt.Sprintf("%d\t%d\t%d\t10.%d.%d.1\n", 1+i, 1420070400, 1420070400+3600, i%250, i/250%250)
	}, ParseConnLogs, 4, parseConnLog)
}
