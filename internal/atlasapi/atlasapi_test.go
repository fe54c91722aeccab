package atlasapi

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/ip4"
	"dynaddr/internal/simclock"
)

func sampleEntries() []atlasdata.ConnLogEntry {
	return []atlasdata.ConnLogEntry{
		{
			Probe:  206,
			Start:  simclock.Date(2015, 1, 1, 3, 22, 16),
			End:    simclock.Date(2015, 1, 1, 17, 34, 11),
			Family: atlasdata.V4, Addr: ip4.MustParseAddr("91.55.169.37"),
		},
		{
			Probe:  206,
			Start:  simclock.Date(2015, 1, 1, 18, 0, 54),
			End:    simclock.Date(2015, 1, 2, 2, 19, 16),
			Family: atlasdata.V6, V6Addr: "2001:db8:ce::2",
		},
	}
}

func TestConnectionHistoryRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteConnectionHistory(&buf, 206, sampleEntries()); err != nil {
		t.Fatal(err)
	}
	page := buf.String()
	if !strings.HasPrefix(page, "# RIPE Atlas connection history for probe 206") {
		t.Errorf("page header missing: %q", page)
	}
	if !strings.Contains(page, "Jan  1 03:22:16 2015\tJan  1 17:34:11 2015\t91.55.169.37") {
		t.Errorf("Table 1-style row missing:\n%s", page)
	}
	got, err := ParseConnectionHistory(strings.NewReader(page), 206)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sampleEntries()) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, sampleEntries())
	}
}

func TestConnectionHistoryRejectsWrongProbe(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteConnectionHistory(&buf, 999, sampleEntries()); err == nil {
		t.Error("entries for probe 206 on page 999 should fail")
	}
}

func TestConnectionHistoryParseErrors(t *testing.T) {
	bad := []string{
		"only\ttwo",
		"not a time\tJan  1 17:34:11 2015\t1.2.3.4",
		"Jan  1 03:22:16 2015\tbad\t1.2.3.4",
		"Jan  1 03:22:16 2015\tJan  1 17:34:11 2015\t1.2.3.999",
		"Jan  2 03:22:16 2015\tJan  1 17:34:11 2015\t1.2.3.4", // ends before start
	}
	for _, line := range bad {
		if _, err := ParseConnectionHistory(strings.NewReader(line), 1); err == nil {
			t.Errorf("ParseConnectionHistory(%q) should fail", line)
		}
	}
}

func TestProbeArchiveRoundTrip(t *testing.T) {
	in := []atlasdata.ProbeMeta{
		{ID: 206, Country: "DE", Version: atlasdata.V3, ConnectedDays: 300},
		{ID: 207, Country: "FR", Version: atlasdata.V1,
			Tags: []string{atlasdata.TagMultihomed, "home"}, ConnectedDays: 45.5},
	}
	var buf bytes.Buffer
	if err := WriteProbeArchive(&buf, in); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"slug": "multihomed"`) {
		t.Errorf("tags not in archive-object shape:\n%s", buf.String())
	}
	got, err := ParseProbeArchive(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != 206 || got[1].Tags[0] != atlasdata.TagMultihomed {
		t.Errorf("parsed archive = %+v", got)
	}
	if got[1].ConnectedDays < 45.4 || got[1].ConnectedDays > 45.6 {
		t.Errorf("ConnectedDays = %v", got[1].ConnectedDays)
	}
}

func TestKRootResultsRoundTrip(t *testing.T) {
	in := []atlasdata.KRootRound{
		{Probe: 16893, Timestamp: 1422349302, Sent: 3, Success: 3, LTS: 86},
		{Probe: 16893, Timestamp: 1422349548, Sent: 3, Success: 0, LTS: 151},
	}
	var buf bytes.Buffer
	if err := WriteKRootResults(&buf, in); err != nil {
		t.Fatal(err)
	}
	// Loss shows as "*" items, like real Atlas results.
	if !strings.Contains(buf.String(), `"x":"*"`) {
		t.Errorf("loss markers missing:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), `"msm_id":1001`) {
		t.Error("k-root measurement id missing")
	}
	got, err := ParseKRootResults(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, in) {
		t.Errorf("round trip mismatch: %+v", got)
	}
}

// TestKRootResultsRange: ping results go through NewKRootRound, so a
// count beyond u16, an LTS outside int32 or a timestamp outside u32 fails
// the parse, as a text archive line does.
func TestKRootResultsRange(t *testing.T) {
	for line, want := range map[string]string{
		`{"prb_id":7,"timestamp":100,"sent":70000,"rcvd":1,"lts":30}`:     "outside 0-65535",
		`{"prb_id":7,"timestamp":100,"sent":3,"rcvd":-1,"lts":30}`:        "outside 0-65535",
		`{"prb_id":7,"timestamp":100,"sent":3,"rcvd":3,"lts":2147483648}`: "outside int32",
		`{"prb_id":7,"timestamp":100,"sent":3,"rcvd":3,"lts":-1}`:         "negative LTS",
		`{"prb_id":7,"timestamp":-1,"sent":3,"rcvd":3,"lts":30}`:          "timestamp -1 outside 0-4294967295",
		`{"prb_id":7,"timestamp":4294967296,"sent":3,"rcvd":3,"lts":30}`:  "timestamp 4294967296 outside 0-4294967295",
	} {
		if _, err := ParseKRootResults(strings.NewReader(line)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ParseKRootResults(%s): %v, want %q", line, err, want)
		}
	}
	got, err := ParseKRootResults(strings.NewReader(`{"prb_id":7,"timestamp":0,"sent":65535,"rcvd":65535,"lts":2147483647}` + "\n" +
		`{"prb_id":7,"timestamp":4294967295,"sent":3,"rcvd":3,"lts":30}`))
	want := []atlasdata.KRootRound{
		{Probe: 7, Timestamp: 0, Sent: 65535, Success: 65535, LTS: 2147483647},
		{Probe: 7, Timestamp: 4294967295, Sent: 3, Success: 3, LTS: 30},
	}
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("edge round: %+v, %v", got, err)
	}
}

// TestConnectionHistoryRange: history pages go through
// atlasdata.NewConnLogEntry, so a session time outside u32 fails the
// parse, as a text archive line does, and the edges parse.
func TestConnectionHistoryRange(t *testing.T) {
	for page, want := range map[string]string{
		"Dec 31 23:59:59 1969\tJan  1 00:00:05 1970\t10.0.0.1\n": "time -1 outside 0-4294967295",
		"Feb  7 06:28:15 2106\tFeb  7 06:28:16 2106\t10.0.0.1\n": "time 4294967296 outside 0-4294967295",
	} {
		if _, err := ParseConnectionHistory(strings.NewReader(page), 7); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ParseConnectionHistory(%q): %v, want %q", page, err, want)
		}
	}
	got, err := ParseConnectionHistory(strings.NewReader("Jan  1 00:00:00 1970\tFeb  7 06:28:15 2106\t10.0.0.1\n"), 7)
	if err != nil || len(got) != 1 || got[0].Start != 0 || got[0].End != math.MaxUint32 {
		t.Errorf("edge session: %+v, %v", got, err)
	}
}

// TestProbeIDRangeAtDecoders checks that uptime results and connection
// history refuse probe IDs the wire format cannot carry, as k-root
// results do, and take the largest it can.
func TestProbeIDRangeAtDecoders(t *testing.T) {
	const page = "Jan  1 00:00:00 2015\tJan  1 01:00:00 2015\t10.0.0.1\n"
	for _, id := range []int64{-5, 1 << 32} {
		line := fmt.Sprintf(`{"prb_id":%d,"timestamp":100,"uptime":5}`, id)
		if got, err := ParseUptimeResults(strings.NewReader(line)); err == nil || !strings.Contains(err.Error(), "outside 0-4294967295") {
			t.Errorf("ParseUptimeResults(%s) = %+v, %v", line, got, err)
		}
		krLine := fmt.Sprintf(`{"prb_id":%d,"timestamp":100,"sent":3,"rcvd":3,"lts":30}`, id)
		if got, err := ParseKRootResults(strings.NewReader(krLine)); err == nil || !strings.Contains(err.Error(), "outside 0-4294967295") {
			t.Errorf("ParseKRootResults(%s) = %+v, %v", krLine, got, err)
		}
		if got, err := ParseConnectionHistory(strings.NewReader(page), atlasdata.ProbeID(id)); err == nil || !strings.Contains(err.Error(), "outside 0-4294967295") {
			t.Errorf("ParseConnectionHistory for probe %d = %+v, %v", id, got, err)
		}
	}
	if _, err := ParseUptimeResults(strings.NewReader(`{"prb_id":4294967295,"timestamp":100,"uptime":5}`)); err != nil {
		t.Errorf("uptime of probe 4294967295: %v", err)
	}
	if _, err := ParseConnectionHistory(strings.NewReader(page), 4294967295); err != nil {
		t.Errorf("connection history of probe 4294967295: %v", err)
	}
}

func TestUptimeResultsRoundTrip(t *testing.T) {
	in := []atlasdata.UptimeRecord{
		{Probe: 206, Timestamp: 1420082118, Uptime: 262531},
		{Probe: 206, Timestamp: 1420134655, Uptime: 19},
	}
	var buf bytes.Buffer
	if err := WriteUptimeResults(&buf, in); err != nil {
		t.Fatal(err)
	}
	got, err := ParseUptimeResults(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, in) {
		t.Errorf("round trip mismatch: %+v", got)
	}
}

func TestServerEndpoints(t *testing.T) {
	ds := atlasdata.NewDataset()
	ds.Probes[206] = atlasdata.ProbeMeta{ID: 206, Country: "DE", Version: atlasdata.V3, ConnectedDays: 300}
	conns, err := atlasdata.ConnLogSeries(206, sampleEntries(), atlasdata.NewV6Interner(&ds.V6))
	if err != nil {
		t.Fatal(err)
	}
	ds.ConnLogs[206] = conns
	ds.KRoot[206] = []atlasdata.KRootSample{{Timestamp: 1420082118, Sent: 3, Success: 3, LTS: 60}}
	ds.Uptime[206] = []atlasdata.UptimeSample{{Timestamp: 1420082118, Uptime: 5}}

	srv := httptest.NewServer(NewServer(ds))
	defer srv.Close()

	fetch := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := fetch("/api/v1/probe-archive/"); code != 200 || !strings.Contains(body, `"id": 206`) {
		t.Errorf("archive endpoint: %d %q", code, body)
	}
	if code, body := fetch("/probes/206/connection-history/"); code != 200 || !strings.Contains(body, "91.55.169.37") {
		t.Errorf("history endpoint: %d %q", code, body)
	}
	if code, _ := fetch("/probes/999/connection-history/"); code != 404 {
		t.Errorf("missing probe should 404, got %d", code)
	}
	if code, _ := fetch("/probes/abc/connection-history/"); code != 400 {
		t.Errorf("bad probe id should 400, got %d", code)
	}
	if code, body := fetch("/api/v1/measurements/kroot/206/"); code != 200 || !strings.Contains(body, `"msm_id":1001`) {
		t.Errorf("kroot endpoint: %d %q", code, body)
	}
	if code, _ := fetch("/api/v1/measurements/uptime/206/"); code != 200 {
		t.Errorf("uptime endpoint: %d", code)
	}
	if code, _ := fetch("/caida/pfx2as/209912.txt"); code != 404 {
		t.Errorf("missing snapshot should 404, got %d", code)
	}
	if code, _ := fetch("/caida/pfx2as/bogus"); code != 400 {
		t.Errorf("bad snapshot name should 400, got %d", code)
	}
}

// TestPfx2ASNameValidation locks in the strict YYYYMM.txt snapshot-name
// check: exactly six digits, month 01-12, nothing before or after —
// the garbage fmt.Sscanf-style parsing used to accept must 400.
func TestPfx2ASNameValidation(t *testing.T) {
	malformed := []string{
		"bogus",
		"201501",       // missing extension
		"201501.txtZZ", // trailing garbage
		"x201501.txt",  // leading garbage
		"20150.txt",    // five digits
		"2015011.txt",  // seven digits
		"-20151.txt",   // sign sneaking into six characters
		"201500.txt",   // month 00
		"201513.txt",   // month 13
		"209999.txt",   // month 99
		"20a501.txt",   // non-digit
		"201501.TXT",   // wrong-case extension
		".txt",         // empty base
		"  2015 1.txt", // embedded spaces
	}
	for _, name := range malformed {
		if m, ok := parseSnapshotName(name); ok {
			t.Errorf("parseSnapshotName(%q) accepted as %d", name, m)
		}
	}
	wellFormed := map[string]int{
		"201501.txt": 201501,
		"201512.txt": 201512,
		"209912.txt": 209912,
		"000101.txt": 101,
	}
	for name, want := range wellFormed {
		m, ok := parseSnapshotName(name)
		if !ok || m != want {
			t.Errorf("parseSnapshotName(%q) = %d, %v; want %d, true", name, m, ok, want)
		}
	}

	// Over HTTP: malformed names 400 before the store is consulted,
	// well-formed missing months 404.
	ds := atlasdata.NewDataset()
	srv := httptest.NewServer(NewServer(ds))
	defer srv.Close()
	for _, name := range malformed {
		if strings.ContainsAny(name, " ") {
			continue // not expressible in a raw request path
		}
		resp, err := http.Get(srv.URL + "/caida/pfx2as/" + name)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %q = %d, want 400", name, resp.StatusCode)
		}
	}
	resp, err := http.Get(srv.URL + "/caida/pfx2as/201506.txt")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("well-formed missing month = %d, want 404", resp.StatusCode)
	}
}

func BenchmarkConnectionHistoryRoundTrip(b *testing.B) {
	var buf bytes.Buffer
	if err := WriteConnectionHistory(&buf, 206, sampleEntries()); err != nil {
		b.Fatal(err)
	}
	page := buf.String()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseConnectionHistory(strings.NewReader(page), 206); err != nil {
			b.Fatal(err)
		}
	}
}
