package atlasdata_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/sim"
)

// sameRecords reports whether a and b hold the same probes, records and
// snapshots. Load interns IPv6 literals in file order, so two orders of
// the same lines may number them differently: connection logs compare
// as the sessions they rebuild.
func sameRecords(a, b *atlasdata.Dataset) bool {
	if !reflect.DeepEqual(a.Probes, b.Probes) || !reflect.DeepEqual(a.KRoot, b.KRoot) ||
		!reflect.DeepEqual(a.Uptime, b.Uptime) || !reflect.DeepEqual(a.Pfx2AS, b.Pfx2AS) ||
		len(a.ConnLogs) != len(b.ConnLogs) || a.V6.Len() != b.V6.Len() {
		return false
	}
	for id := range b.ConnLogs {
		ae, _ := a.ReadConnLogs(id)
		be, _ := b.ReadConnLogs(id)
		if !reflect.DeepEqual(ae, be) {
			return false
		}
	}
	return true
}

// TestLoadEquivalence checks Load against a generated world: it reads
// back exactly what Save wrote, reads files in any line order into the
// same dataset, and hands out per-probe slices that an append cannot
// overflow into the next probe's records.
func TestLoadEquivalence(t *testing.T) {
	ds, dir := savedWorld(t)
	loaded, err := atlasdata.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded, ds) {
		t.Fatal("Load(Save(ds)) differs from ds")
	}

	shuffleLines(t, dir)
	shuffled, err := atlasdata.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !sameRecords(shuffled, ds) {
		t.Fatal("Load of line-shuffled files differs from ds")
	}

	// Probes with k-root rounds, in ID order, sit next to each other in
	// the loaded backing array.
	var ids []atlasdata.ProbeID
	for id := range loaded.KRoot {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	if len(ids) < 2 {
		t.Fatalf("world has %d probes with k-root rounds, want at least 2", len(ids))
	}
	a, b := ids[0], ids[1]
	before := slices.Clone(loaded.KRoot[b])
	loaded.KRoot[a] = append(loaded.KRoot[a], atlasdata.KRootSample{Timestamp: 1, Sent: 3})
	if !reflect.DeepEqual(loaded.KRoot[b], before) {
		t.Errorf("appending to probe %d's rounds overwrote probe %d's", a, b)
	}
}

// savedWorld generates a small world and saves it.
func savedWorld(t *testing.T) (*atlasdata.Dataset, string) {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Seed = 11
	cfg.Scale = 0.02
	w, err := sim.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "ds")
	if err := w.Dataset.Save(dir); err != nil {
		t.Fatal(err)
	}
	return w.Dataset, dir
}

// shuffleLines rewrites each record file of dir with its lines in a
// random order.
func shuffleLines(t *testing.T, dir string) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	for _, name := range []string{"connlogs.tsv", "kroot.tsv", "uptime.tsv"} {
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitAfter(string(data), "\n")
		rng.Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
		if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestArchiveEquivalence: every read from an Archive equals Load's slice
// for that probe, and the materialised archive equals Load's dataset,
// for files as Save wrote them and with their lines shuffled.
func TestArchiveEquivalence(t *testing.T) {
	_, dir := savedWorld(t)
	archiveMatchesLoad(t, dir)
	shuffleLines(t, dir)
	archiveMatchesLoad(t, dir)
}

func archiveMatchesLoad(t *testing.T, dir string) {
	t.Helper()
	want, err := atlasdata.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	a, err := atlasdata.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if got := a.ProbeIDs(); !reflect.DeepEqual(got, want.ProbeIDs()) {
		t.Fatalf("ProbeIDs = %v, want %v", got, want.ProbeIDs())
	}
	for _, id := range want.ProbeIDs() {
		if m, ok := a.Meta(id); !ok || !reflect.DeepEqual(m, want.Probes[id]) {
			t.Errorf("probe %d: Meta = %+v, %v", id, m, ok)
		}
		conns, err1 := a.ReadConnLogs(id)
		kroot, err2 := a.ReadKRoot(id)
		uptime, err3 := a.ReadUptime(id)
		if err := errors.Join(err1, err2, err3); err != nil {
			t.Fatalf("probe %d: %v", id, err)
		}
		if !reflect.DeepEqual(conns, wantConns(want, id)) || !reflect.DeepEqual(kroot, wantRounds(want, id)) ||
			!reflect.DeepEqual(uptime, wantUptime(want, id)) {
			t.Fatalf("probe %d: archive reads differ from Load", id)
		}
	}
	got, err := a.Dataset(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Archive.Dataset() differs from Load")
	}
}

// TestArchiveDetectsRewrite: a record file rewritten in place after Open
// fails the reads of the probes whose lines changed, and only theirs.
func TestArchiveDetectsRewrite(t *testing.T) {
	_, dir := savedWorld(t)
	a, err := atlasdata.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	path := filepath.Join(dir, "kroot.tsv")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Change the last digit of the first line's LTS field.
	line := data[:bytes.IndexByte(data, '\n')]
	victim, err := strconv.Atoi(string(line[:bytes.IndexByte(line, '\t')]))
	if err != nil {
		t.Fatal(err)
	}
	at := int64(len(line) - 1)
	digit := []byte{'0' + (line[at]-'0'+1)%10}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(digit, at); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	if recs, err := a.ReadKRoot(atlasdata.ProbeID(victim)); err == nil || !strings.Contains(err.Error(), "changed on disk") {
		t.Errorf("probe %d: read after rewrite = %d records, %v; want a changed-on-disk error", victim, len(recs), err)
	}
	if _, err := a.Dataset(context.Background()); err == nil {
		t.Error("Dataset() served a rewritten file")
	}
	for _, id := range a.ProbeIDs() {
		if _, err := a.ReadKRoot(id); err != nil && id != atlasdata.ProbeID(victim) {
			t.Errorf("probe %d: %v", id, err)
		}
	}
}

// TestOpenRetainsNoRecords: on the world size the benchmark serves, the
// heap an Archive keeps is under a tenth of what a loaded Dataset keeps.
func TestOpenRetainsNoRecords(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Seed = 77
	cfg.Scale = 0.5
	w, err := sim.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "ds")
	if err := w.Dataset.Save(dir); err != nil {
		t.Fatal(err)
	}
	w = nil

	loaded, loadHeap := retainedHeap(t, func() (any, error) { return atlasdata.Load(dir) })
	opened, openHeap := retainedHeap(t, func() (any, error) { return atlasdata.Open(dir) })
	defer opened.(*atlasdata.Archive).Close()
	t.Logf("retained heap: Load %d KiB, Open %d KiB", loadHeap>>10, openHeap>>10)
	if loaded == nil || openHeap*10 >= loadHeap {
		t.Errorf("Open retains %d bytes, Load %d: want under a tenth", openHeap, loadHeap)
	}
}

// retainedHeap reports how much live heap the value open returns holds
// once garbage is collected.
func retainedHeap(t *testing.T, open func() (any, error)) (any, int64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	v, err := open()
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(v)
	return v, int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// TestArchiveConcurrentReads: an Archive serves reads from several
// goroutines at once, as atlasd's handlers make them.
func TestArchiveConcurrentReads(t *testing.T) {
	want, dir := savedWorld(t)
	a, err := atlasdata.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, id := range a.ProbeIDs() {
				kroot, err := a.ReadKRoot(id)
				if err != nil || !reflect.DeepEqual(kroot, wantRounds(want, id)) {
					t.Errorf("probe %d: k-root read differs from the saved world: %v", id, err)
					return
				}
			}
			if _, err := a.Dataset(context.Background()); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

// TestArchiveEquivalenceInSmallBlocks is TestArchiveEquivalence with the
// scanner cutting blocks of a few dozen bytes: most probes' runs of
// lines, and many single lines, straddle a block boundary.
func TestArchiveEquivalenceInSmallBlocks(t *testing.T) {
	defer atlasdata.SetBlockSize(40)()
	TestArchiveEquivalence(t)
}

// TestDeepBadRecords: a bad record far into a record file fails Load and
// Open with the line number or record index a sequential pass over the
// file names, whatever the blocks the file is cut into.
func TestDeepBadRecords(t *testing.T) {
	ds, dir := savedWorld(t)
	connlogs, kroot := readFile(t, dir, "connlogs.tsv"), readFile(t, dir, "kroot.tsv")

	// A k-root line two thirds of the way in that does not parse.
	lines := bytes.SplitAfter(kroot, []byte("\n"))
	at := 2 * len(lines) / 3
	lines[at] = []byte("1\t2\t3\tbogus\t5\n")
	badKRoot := fmt.Sprintf("atlasdata: line %d: bad numeric field in [1 2 3 bogus 5]", at+1)

	// A connection overlapping its predecessor, halfway through the
	// connection logs of the probe with the most: it keeps its place in
	// time order, so its index is its place in the file's run.
	var id atlasdata.ProbeID
	for p, es := range ds.ConnLogs {
		if len(es) > len(ds.ConnLogs[id]) || len(es) == len(ds.ConnLogs[id]) && p < id {
			id = p
		}
	}
	es, _ := ds.ReadConnLogs(id)
	j := len(es) / 2
	for es[j-1].End-es[j-1].Start < 2 {
		j++
	}
	old, err := atlasdata.MarshalConnLog(es[j])
	if err != nil {
		t.Fatal(err)
	}
	e := es[j]
	e.Start = es[j-1].End - 1
	bad, err := atlasdata.MarshalConnLog(e)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Count(connlogs, append(old, '\n')) != 1 {
		t.Fatalf("probe %d's connection %d is not on exactly one line", id, j)
	}
	badConnLogs := fmt.Sprintf("atlasdata: probe %d has overlapping connections at %d (%v < %v)", id, j, e.Start, es[j-1].End)

	for _, tc := range []struct {
		file string
		data []byte
		want string
	}{
		{"kroot.tsv", bytes.Join(lines, nil), badKRoot},
		{"connlogs.tsv", bytes.Replace(connlogs, old, bad, 1), badConnLogs},
	} {
		_, dir := savedWorld(t)
		writeFile(t, dir, tc.file, tc.data)
		for _, n := range []int{0, 40, 4096} {
			restore := func() {}
			if n > 0 {
				restore = atlasdata.SetBlockSize(n)
			}
			_, lerr := atlasdata.Load(dir)
			a, oerr := atlasdata.Open(dir)
			if oerr == nil {
				a.Close()
			}
			restore()
			if lerr == nil || lerr.Error() != tc.want || oerr == nil || oerr.Error() != tc.want {
				t.Errorf("%s, block size %d:\n Load: %v\n Open: %v\n want: %s", tc.file, n, lerr, oerr, tc.want)
			}
		}
	}
}

func readFile(t *testing.T, dir, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func writeFile(t *testing.T, dir, name string, data []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentScans: passes that run at once share the scanner's
// workers and its idle buffers, and each still reads its own file.
func TestConcurrentScans(t *testing.T) {
	defer atlasdata.SetBlockSize(4096)()
	want, dir := savedWorld(t)
	kroot := readFile(t, dir, "kroot.tsv")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				loaded, err := atlasdata.Load(dir)
				if err != nil || !reflect.DeepEqual(loaded, want) {
					t.Errorf("Load: %v, or its dataset differs from the saved world", err)
					return
				}
				a, err := atlasdata.Open(dir)
				if err != nil {
					t.Error(err)
					return
				}
				opened, err := a.Dataset(context.Background())
				a.Close()
				if err != nil || !reflect.DeepEqual(opened.KRoot, want.KRoot) {
					t.Errorf("Open: %v, or its k-root rounds differ from the saved world", err)
					return
				}
				if rounds, err := atlasdata.ParseKRoot(bytes.NewReader(kroot)); err != nil || len(rounds) != bytes.Count(kroot, []byte("\n")) {
					t.Errorf("ParseKRoot: %d rounds, %v", len(rounds), err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// wantRounds is the k-root rounds of probe id in d, as an Archive reads
// them.
func wantRounds(d *atlasdata.Dataset, id atlasdata.ProbeID) []atlasdata.KRootRound {
	rounds, _ := d.ReadKRoot(id) // a Dataset's reads never fail
	return rounds
}

// wantConns is d's connection logs for id, as an Archive reads them.
func wantConns(d *atlasdata.Dataset, id atlasdata.ProbeID) []atlasdata.ConnLogEntry {
	conns, _ := d.ReadConnLogs(id) // a Dataset's reads never fail
	return conns
}

// wantUptime is d's uptime records for id, as an Archive reads them.
func wantUptime(d *atlasdata.Dataset, id atlasdata.ProbeID) []atlasdata.UptimeRecord {
	ups, _ := d.ReadUptime(id) // a Dataset's reads never fail
	return ups
}

// TestValidateAllocs: Dataset.Validate checks every record of a
// generated world without allocating per record or per probe: its
// allocations are, per record kind, the sorted probe IDs and one pair
// of records to rebuild them in.
func TestValidateAllocs(t *testing.T) {
	ds, _ := savedWorld(t)
	records := 0
	for id := range ds.Probes {
		records += len(ds.ConnLogs[id]) + len(ds.KRoot[id]) + len(ds.Uptime[id])
	}
	allocs := testing.AllocsPerRun(5, func() {
		if err := ds.Validate(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 6 {
		t.Errorf("Validate made %v allocations over %d probes and %d records, want at most 6", allocs, len(ds.Probes), records)
	}
}
