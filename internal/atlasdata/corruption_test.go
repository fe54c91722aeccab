package atlasdata

import (
	"os"
	"path/filepath"
	"testing"
)

// Failure injection: a dataset directory that has been truncated,
// corrupted or shuffled must fail to load with an error — never load
// silently wrong.

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

func TestLoadRejectsTruncatedConnLogs(t *testing.T) {
	dir := savedSample(t)
	corrupt(t, dir, "connlogs.tsv", func(b []byte) []byte {
		// Chop mid-line: the tail line has too few fields.
		return b[:len(b)-10]
	})
	if _, err := Load(dir); err == nil {
		t.Error("truncated connlogs should fail to load")
	}
}

func TestLoadRejectsGarbageProbeArchive(t *testing.T) {
	dir := savedSample(t)
	corrupt(t, dir, "probes.json", func([]byte) []byte {
		return []byte("{not json")
	})
	if _, err := Load(dir); err == nil {
		t.Error("garbage probe archive should fail to load")
	}
}

func TestLoadRejectsNegativeUptime(t *testing.T) {
	dir := savedSample(t)
	corrupt(t, dir, "uptime.tsv", func(b []byte) []byte {
		return append(b, []byte("206\t1000\t-5\n")...)
	})
	if _, err := Load(dir); err == nil {
		t.Error("negative uptime should fail to load")
	}
}

func TestLoadRejectsOverlappingConnections(t *testing.T) {
	dir := savedSample(t)
	corrupt(t, dir, "connlogs.tsv", func(b []byte) []byte {
		// Probe 206 already has sessions at [100,200] and [300,400];
		// inject one overlapping the second.
		return append(b, []byte("206\t350\t500\t91.55.9.9\n")...)
	})
	if _, err := Load(dir); err == nil {
		t.Error("overlapping connections should fail validation on load")
	}
}

func TestLoadRejectsOrphanRecords(t *testing.T) {
	dir := savedSample(t)
	corrupt(t, dir, "kroot.tsv", func(b []byte) []byte {
		return append(b, []byte("99999\t1000\t3\t3\t60\n")...)
	})
	if _, err := Load(dir); err == nil {
		t.Error("records for unknown probes should fail validation")
	}
}

func TestLoadRejectsBadPfx2asFile(t *testing.T) {
	dir := savedSample(t)
	corrupt(t, dir, "pfx2as-201501.txt", func([]byte) []byte {
		return []byte("91.55.0.0\tnotalength\t3320\n")
	})
	if _, err := Load(dir); err == nil {
		t.Error("corrupt pfx2as snapshot should fail to load")
	}
}

func TestLoadRejectsMisnamedPfx2asFile(t *testing.T) {
	dir := savedSample(t)
	if err := os.WriteFile(filepath.Join(dir, "pfx2as-janvier.txt"), []byte(""), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Error("unparseable pfx2as filename should fail to load")
	}
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
		if _, err := Load(dir); err == nil {
			t.Errorf("Load accepted a dataset holding %s", name)
		}
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
	ds, err := Load(dir)
	if err != nil {
		t.Fatalf("unsorted records should load: %v", err)
	}
	recs := ds.Uptime[206]
	if len(recs) != 2 || recs[0].Timestamp != 100 {
		t.Errorf("records not sorted on load: %+v", recs)
	}
}
