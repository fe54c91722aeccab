package atlasdata

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Failure injection: a dataset directory that has been truncated,
// corrupted or shuffled must fail to load with an error — never load
// silently wrong. Load and Open must each fail as the reference loader
// does on every such directory.

func savedSample(t *testing.T) string {
	t.Helper()
	d := sampleDataset(t)
	dir := filepath.Join(t.TempDir(), "ds")
	if err := d.Save(dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

func corrupt(t *testing.T, dir, file string, mutate func([]byte) []byte) {
	t.Helper()
	path := filepath.Join(dir, file)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, mutate(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

// openDataset reads dir through an Archive.
func openDataset(dir string) (*Dataset, error) {
	a, err := Open(dir)
	if err != nil {
		return nil, err
	}
	defer a.Close()
	return a.Dataset(context.Background())
}

// rejects checks that the reference loader refuses dir, and that Load
// and Open both refuse it with the reference's error.
func rejects(t *testing.T, dir, what string) {
	t.Helper()
	_, rerr := refLoad(dir)
	_, lerr := Load(dir)
	_, oerr := openDataset(dir)
	switch {
	case rerr == nil:
		t.Errorf("the reference loader accepted %s", what)
	case lerr == nil:
		t.Errorf("Load accepted %s", what)
	case oerr == nil:
		t.Errorf("Open accepted %s", what)
	case lerr.Error() != rerr.Error() || oerr.Error() != rerr.Error():
		t.Errorf("%s: Load or Open disagrees with the reference:\n Load: %v\n Open: %v\n reference: %v", what, lerr, oerr, rerr)
	}
}

func TestLoadRejectsTruncatedConnLogs(t *testing.T) {
	dir := savedSample(t)
	corrupt(t, dir, "connlogs.tsv", func(b []byte) []byte {
		// Chop mid-line: the tail line has too few fields.
		return b[:len(b)-10]
	})
	rejects(t, dir, "truncated connlogs")
}

func TestLoadRejectsGarbageProbeArchive(t *testing.T) {
	dir := savedSample(t)
	corrupt(t, dir, "probes.json", func([]byte) []byte {
		return []byte("{not json")
	})
	rejects(t, dir, "a garbage probe archive")
}

func TestLoadRejectsNegativeUptime(t *testing.T) {
	dir := savedSample(t)
	corrupt(t, dir, "uptime.tsv", func(b []byte) []byte {
		return append(b, []byte("206\t1000\t-5\n")...)
	})
	rejects(t, dir, "a negative uptime")
}

// TestLoadRejectsConnLogOutOfRange: a detector keeps a session's times
// in 32 bits, so a text line with a start or end outside 0 to 2³²-1
// fails Load and Open with NewConnLogEntry's error; the edges still
// load.
func TestLoadRejectsConnLogOutOfRange(t *testing.T) {
	for _, tc := range []struct{ line, want string }{
		{"206\t-1\t5\t10.0.0.1\n", "has time -1 outside 0-4294967295"},
		{"206\t5\t4294967296\t10.0.0.1\n", "has time 4294967296 outside 0-4294967295"},
	} {
		dir := savedSample(t)
		corrupt(t, dir, "connlogs.tsv", func(b []byte) []byte { return append(b, tc.line...) })
		rejects(t, dir, "connection-log line "+tc.line)
		if _, err := Load(dir); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Load of connection-log line %q: %v, want %q", tc.line, err, tc.want)
		}
	}
	dir := savedSample(t)
	corrupt(t, dir, "connlogs.tsv", func(b []byte) []byte {
		return append(b, "207\t0\t0\t10.0.0.1\n207\t4294967295\t4294967295\t10.0.0.2\n"...)
	})
	d, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cs := d.ConnLogs[207]; len(cs) < 2 || cs[0].Start != 0 || cs[len(cs)-1].End != math.MaxUint32 {
		t.Errorf("edge sessions loaded as %+v", cs)
	}
}

// TestLoadRejectsDuplicateProbe: an archive listing one probe twice
// fails Load and Open, naming the probe, rather than keep either entry.
func TestLoadRejectsDuplicateProbe(t *testing.T) {
	dir := savedSample(t)
	corrupt(t, dir, "probes.json", func([]byte) []byte {
		return []byte(`[{"id":206,"version":3,"connected_days":5},{"id":206,"version":1,"connected_days":9}]`)
	})
	rejects(t, dir, "a probe listed twice")
	if _, err := Load(dir); err == nil || !strings.Contains(err.Error(), "probe 206 twice") {
		t.Errorf("Load: %v, want probe 206 named", err)
	}
}

// TestLoadRejectsKRootOutOfRange: a k-root round's counts are u16, its
// LTS an int32 and its timestamp a u32, as a Dataset stores them, so a
// text line past any of these ranges fails Load and Open with
// NewKRootRound's error; the edges still load.
func TestLoadRejectsKRootOutOfRange(t *testing.T) {
	for _, tc := range []struct{ line, want string }{
		{"206\t-1\t3\t3\t60\n", "has timestamp -1 outside 0-4294967295"},
		{"206\t4294967296\t3\t3\t60\n", "has timestamp 4294967296 outside 0-4294967295"},
		{"206\t1000\t-1\t0\t60\n", "has 0/-1 successes, outside 0-65535"},
		{"206\t1000\t70000\t1\t60\n", "has 1/70000 successes, outside 0-65535"},
		{"206\t1000\t3\t70000\t60\n", "has 70000/3 successes, outside 0-65535"},
		{"206\t1000\t3\t3\t2147483648\n", "has LTS 2147483648 outside int32"},
		{"206\t1000\t3\t3\t-1\n", "has negative LTS"},
	} {
		dir := savedSample(t)
		corrupt(t, dir, "kroot.tsv", func(b []byte) []byte { return append(b, tc.line...) })
		rejects(t, dir, "k-root line "+tc.line)
		if _, err := Load(dir); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Load of k-root line %q: %v, want %q", tc.line, err, tc.want)
		}
	}
	dir := savedSample(t)
	corrupt(t, dir, "kroot.tsv", func(b []byte) []byte {
		return append(b, "206\t1000\t65535\t65535\t2147483647\n206\t0\t3\t3\t60\n206\t4294967295\t3\t3\t60\n"...)
	})
	d, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	ks := d.KRoot[206]
	for i, want := range map[int]KRootRound{
		0:           {Probe: 206, Timestamp: 0, Sent: 3, Success: 3, LTS: 60},
		len(ks) - 2: {Probe: 206, Timestamp: 1000, Sent: 65535, Success: 65535, LTS: 2147483647},
		len(ks) - 1: {Probe: 206, Timestamp: 4294967295, Sent: 3, Success: 3, LTS: 60},
	} {
		if got := ks[i].Round(206); got != want {
			t.Errorf("edge round %d loaded as %+v, want %+v", i, got, want)
		}
	}
	if _, err := openDataset(dir); err != nil {
		t.Errorf("Open of the edge round: %v", err)
	}
}

func TestLoadRejectsOverlappingConnections(t *testing.T) {
	dir := savedSample(t)
	corrupt(t, dir, "connlogs.tsv", func(b []byte) []byte {
		// Probe 206 already has sessions at [100,200] and [300,400];
		// inject one overlapping the second.
		return append(b, []byte("206\t350\t500\t91.55.9.9\n")...)
	})
	rejects(t, dir, "overlapping connections")
}

func TestLoadRejectsOrphanRecords(t *testing.T) {
	dir := savedSample(t)
	corrupt(t, dir, "kroot.tsv", func(b []byte) []byte {
		return append(b, []byte("99999\t1000\t3\t3\t60\n")...)
	})
	rejects(t, dir, "records for an unknown probe")
}

func TestLoadRejectsBadPfx2asFile(t *testing.T) {
	dir := savedSample(t)
	corrupt(t, dir, "pfx2as-201501.txt", func([]byte) []byte {
		return []byte("91.55.0.0\tnotalength\t3320\n")
	})
	rejects(t, dir, "a corrupt pfx2as snapshot")
}

func TestLoadRejectsMisnamedPfx2asFile(t *testing.T) {
	dir := savedSample(t)
	if err := os.WriteFile(filepath.Join(dir, "pfx2as-janvier.txt"), []byte(""), 0o644); err != nil {
		t.Fatal(err)
	}
	rejects(t, dir, "an unparseable pfx2as filename")
}

// TestLoadRejectsMalformedPfx2asNames: a snapshot file name must carry
// exactly six digits YYYYMM with a real month, or the month it claims is
// one the HTTP API refuses, or it silently replaces a real month's table.
func TestLoadRejectsMalformedPfx2asNames(t *testing.T) {
	for _, name := range []string{
		"pfx2as-201513.txt",
		"pfx2as-2015.txt",
		"pfx2as-+201501.txt",
		"pfx2as-201501.txt.txt",
	} {
		dir := savedSample(t)
		if err := os.WriteFile(filepath.Join(dir, name), []byte("10.0.0.0\t8\t701\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		rejects(t, dir, "a dataset holding "+name)
	}
}

func TestLoadToleratesUnsortedRecords(t *testing.T) {
	// Out-of-order lines are legitimate (the paper's scrapes arrived in
	// page order); Load must sort, then validate.
	dir := savedSample(t)
	corrupt(t, dir, "uptime.tsv", func(b []byte) []byte {
		// Prepend the latest record so the file is unsorted.
		return append([]byte("206\t300\t20\n"), b...)
	})
	// This duplicates a record timestamp; rewrite the file cleanly
	// instead: swap the order of the two existing lines.
	path := filepath.Join(dir, "uptime.tsv")
	if err := os.WriteFile(path, []byte("206\t300\t20\n206\t100\t5000\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, load := range map[string]func(string) (*Dataset, error){"Load": Load, "Open": openDataset} {
		ds, err := load(dir)
		if err != nil {
			t.Fatalf("%s: unsorted records should load: %v", name, err)
		}
		recs := ds.Uptime[206]
		if len(recs) != 2 || recs[0].Timestamp != 100 {
			t.Errorf("%s: records not sorted on load: %+v", name, recs)
		}
	}
}
