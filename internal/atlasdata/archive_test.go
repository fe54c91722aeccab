package atlasdata

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzArchiveOpen writes arbitrary bytes as one record file of an
// otherwise valid dataset directory: Load and Open must each accept
// exactly what the reference loader accepts, fail with its error
// otherwise, and read back what it returns.
func FuzzArchiveOpen(f *testing.F) {
	for _, seed := range archiveOpenSeeds {
		f.Add(seed.file, []byte(seed.data))
	}
	f.Fuzz(checkArchiveOpen)
}

// archiveOpenSeeds is FuzzArchiveOpen's seed corpus: a record file to
// replace, by index into archiveFiles, and its new bytes.
var archiveOpenSeeds = []struct {
	file uint8
	data string
}{
	{0, "206\t100\t200\t91.55.1.1\n206\t300\t400\t91.55.2.2\n207\t150\t250\t2001:db8::2\n"},
	{0, "206\t100\t200\t91.55.1.1\n206\t300\t400\t91.55.2.2\n207\t150\t250\t2001"},
	{0, "206\t100\t200\t91.55.1.1\n206\t300\t400\t91.55.2.2\n206\t350\t500\t91.55.9.9\n"},
	{0, "206\t100\t200\t91.55.1.1\r\n207\t150\t250\t2001:db8::2\r\n206\t300\t400\t91.55.2.2\r\n"},
	{0, "206\t300\t400\t91.55.2.2\n# comment\n\n206\t100\t200\t91.55.1.1"},
	{0, "206\t300\t400\t91.55.2.2\n206\t100\t350\t91.55.1.1\n207\t150\t250\t2001:db8::2\n"},
	{1, "206\t120\t3\t3\t60\n206\t360\t3\t0\t300\n99999\t1000\t3\t3\t60\n"},
	{1, "206\t360\t3\t0\t300\n206\t120\t3\t3\t60"},
	{2, "206\t100\t5000\n206\t300\t20\n206\t1000\t-5\n"},
	{2, "206\t300\t20\n206\t100\t5000\n"},
	{2, "207\t5\t1\n206\t100\t5000\n207\t5\t2\n206\t300\t20\n207\t1\t3\n"},
	{1, "206\t120\t3\t3\t60\n206\t360\t3\t0\t300"},
	{2, "206\t100\t5000\r\n# note\r\n\r\n206\t300\t20\r\n207\t5\t1"},
}

var archiveFiles = []string{connLogsFile, kRootFile, uptimeFile}

// checkArchiveOpen is FuzzArchiveOpen's check of one input.
func checkArchiveOpen(t *testing.T, file uint8, data []byte) {
	dir := savedSample(t)
	if err := os.WriteFile(filepath.Join(dir, archiveFiles[int(file)%len(archiveFiles)]), data, 0o644); err != nil {
		t.Fatal(err)
	}
	want, rerr := refLoad(dir)
	loaded, lerr := Load(dir)
	a, oerr := Open(dir)
	if oerr == nil {
		defer a.Close()
	}
	if rerr != nil || lerr != nil || oerr != nil {
		if !sameError(lerr, rerr) || !sameError(oerr, rerr) {
			t.Fatalf("reference: %v\nLoad: %v\nOpen: %v", rerr, lerr, oerr)
		}
		return
	}
	if !reflect.DeepEqual(loaded, want) {
		t.Fatal("Load differs from the reference")
	}
	for _, id := range want.ProbeIDs() {
		conns, err1 := a.ReadConnLogs(id)
		kroot, err2 := a.ReadKRoot(id)
		uptime, err3 := a.ReadUptime(id)
		if err := errors.Join(err1, err2, err3); err != nil {
			t.Fatalf("probe %d: %v", id, err)
		}
		if !reflect.DeepEqual(conns, wantConns(want, id)) || !reflect.DeepEqual(kroot, wantRounds(want, id)) ||
			!reflect.DeepEqual(uptime, wantUptime(want, id)) {
			t.Fatalf("probe %d: archive reads differ from the reference", id)
		}
	}
	got, err := a.Dataset(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Archive.Dataset() differs from the reference")
	}
}

// sameError reports whether err and want are both nil or carry the same
// text.
func sameError(err, want error) bool {
	if err == nil || want == nil {
		return err == want
	}
	return err.Error() == want.Error()
}

// refLoad is the reference Load and Open are held to, sharing none of
// their pass over the record files: each file parsed whole by
// ParseProbeArchive or Parse*, all three record files before anything is
// checked, each probe's records filed in file order, then the pfx2as
// snapshots, then SortRecords and Dataset.Validate.
func refLoad(dir string) (*Dataset, error) {
	d := NewDataset()
	probes, err := loadWith(filepath.Join(dir, probesFile), ParseProbeArchive)
	if err != nil {
		return nil, err
	}
	for _, p := range probes {
		d.Probes[p.ID] = p
	}
	conns, err := loadWith(filepath.Join(dir, connLogsFile), ParseConnLogs)
	if err != nil {
		return nil, err
	}
	kroot, err := loadWith(filepath.Join(dir, kRootFile), ParseKRoot)
	if err != nil {
		return nil, err
	}
	uptime, err := loadWith(filepath.Join(dir, uptimeFile), ParseUptime)
	if err != nil {
		return nil, err
	}
	lits := NewV6Interner(&d.V6)
	for _, e := range conns {
		d.ConnLogs[e.Probe] = append(d.ConnLogs[e.Probe], e.Sample(lits))
	}
	for _, k := range kroot {
		d.KRoot[k.Probe] = append(d.KRoot[k.Probe], k.Sample())
	}
	for _, u := range uptime {
		d.Uptime[u.Probe] = append(d.Uptime[u.Probe], u.Sample())
	}
	if err := loadPfx2AS(dir, d.Pfx2AS); err != nil {
		return nil, err
	}
	d.SortRecords()
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// TestArchiveDatasetStopsOnCancel: Dataset reads nothing for a request
// whose context is already done.
func TestArchiveDatasetStopsOnCancel(t *testing.T) {
	a, err := Open(savedSample(t))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if d, err := a.Dataset(ctx); !errors.Is(err, context.Canceled) || d != nil {
		t.Fatalf("Dataset after cancel: %v, %v; want nil, context.Canceled", d, err)
	}
}

// wantRounds is the k-root rounds of probe id in d, as an Archive reads
// them.
func wantRounds(d *Dataset, id ProbeID) []KRootRound {
	rounds, _ := d.ReadKRoot(id) // a Dataset's reads never fail
	return rounds
}

// wantConns is d's connection logs for id, as an Archive reads them.
func wantConns(d *Dataset, id ProbeID) []ConnLogEntry {
	conns, _ := d.ReadConnLogs(id) // a Dataset's reads never fail
	return conns
}

// wantUptime is d's uptime records for id, as an Archive reads them.
func wantUptime(d *Dataset, id ProbeID) []UptimeRecord {
	ups, _ := d.ReadUptime(id) // a Dataset's reads never fail
	return ups
}
