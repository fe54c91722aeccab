package atlasdata

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"dynaddr/internal/pfx2as"
)

// Dataset bundles everything the analysis pipeline consumes: the three
// per-probe record streams, the probe archive, and the monthly pfx2as
// snapshots. Record slices are kept sorted by timestamp per probe.
type Dataset struct {
	Probes   map[ProbeID]ProbeMeta
	ConnLogs map[ProbeID][]ConnLogEntry
	KRoot    map[ProbeID][]KRootRound
	Uptime   map[ProbeID][]UptimeRecord
	Pfx2AS   *pfx2as.SnapshotStore
}

// NewDataset returns an empty dataset ready for population.
func NewDataset() *Dataset {
	return &Dataset{
		Probes:   make(map[ProbeID]ProbeMeta),
		ConnLogs: make(map[ProbeID][]ConnLogEntry),
		KRoot:    make(map[ProbeID][]KRootRound),
		Uptime:   make(map[ProbeID][]UptimeRecord),
		Pfx2AS:   pfx2as.NewSnapshotStore(),
	}
}

// ProbeIDs returns all probe IDs with metadata, sorted.
func (d *Dataset) ProbeIDs() []ProbeID {
	out := make([]ProbeID, 0, len(d.Probes))
	for id := range d.Probes {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SortRecords sorts every per-probe record slice by time. Generators
// emit in order, but datasets loaded from disk or assembled by hand may
// not be.
func (d *Dataset) SortRecords() {
	for id := range d.ConnLogs {
		s := d.ConnLogs[id]
		sort.Slice(s, func(i, j int) bool { return s[i].Start < s[j].Start })
	}
	for id := range d.KRoot {
		s := d.KRoot[id]
		sort.Slice(s, func(i, j int) bool { return s[i].Timestamp < s[j].Timestamp })
	}
	for id := range d.Uptime {
		s := d.Uptime[id]
		sort.Slice(s, func(i, j int) bool { return s[i].Timestamp < s[j].Timestamp })
	}
}

// Validate checks cross-record invariants: metadata exists for every
// probe with records, records are sorted, and connections per probe do
// not overlap in time.
func (d *Dataset) Validate() error {
	for id, entries := range d.ConnLogs {
		if _, ok := d.Probes[id]; !ok {
			return fmt.Errorf("atlasdata: connection logs for probe %d without metadata", id)
		}
		for i, e := range entries {
			if err := e.Validate(); err != nil {
				return err
			}
			if e.Probe != id {
				return fmt.Errorf("atlasdata: probe %d log contains entry for probe %d", id, e.Probe)
			}
			if i > 0 {
				prev := entries[i-1]
				if e.Start < prev.Start {
					return fmt.Errorf("atlasdata: probe %d connection logs unsorted at %d", id, i)
				}
				if e.Start < prev.End {
					return fmt.Errorf("atlasdata: probe %d has overlapping connections at %d (%v < %v)", id, i, e.Start, prev.End)
				}
			}
		}
	}
	for id, rounds := range d.KRoot {
		if _, ok := d.Probes[id]; !ok {
			return fmt.Errorf("atlasdata: k-root rounds for probe %d without metadata", id)
		}
		for i, k := range rounds {
			if err := k.Validate(); err != nil {
				return err
			}
			if i > 0 && k.Timestamp < rounds[i-1].Timestamp {
				return fmt.Errorf("atlasdata: probe %d k-root rounds unsorted at %d", id, i)
			}
		}
	}
	for id, recs := range d.Uptime {
		if _, ok := d.Probes[id]; !ok {
			return fmt.Errorf("atlasdata: uptime records for probe %d without metadata", id)
		}
		for i, u := range recs {
			if err := u.Validate(); err != nil {
				return err
			}
			if i > 0 && u.Timestamp < recs[i-1].Timestamp {
				return fmt.Errorf("atlasdata: probe %d uptime records unsorted at %d", id, i)
			}
		}
	}
	return nil
}

// File names inside a dataset directory.
const (
	connLogsFile = "connlogs.tsv"
	kRootFile    = "kroot.tsv"
	uptimeFile   = "uptime.tsv"
	probesFile   = "probes.json"
)

func pfx2asFile(m pfx2as.Month) string { return fmt.Sprintf("pfx2as-%06d.txt", int(m)) }

// Save writes the dataset to a directory, creating it if needed. Records
// are flattened in probe-ID order so output is deterministic.
func (d *Dataset) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	ids := d.ProbeIDs()

	var conns []ConnLogEntry
	var kroot []KRootRound
	var uptime []UptimeRecord
	var probes []ProbeMeta
	for _, id := range ids {
		probes = append(probes, d.Probes[id])
		conns = append(conns, d.ConnLogs[id]...)
		kroot = append(kroot, d.KRoot[id]...)
		uptime = append(uptime, d.Uptime[id]...)
	}

	if err := writeFileWith(filepath.Join(dir, probesFile), func(f *os.File) error {
		return WriteProbeArchive(f, probes)
	}); err != nil {
		return err
	}
	if err := writeFileWith(filepath.Join(dir, connLogsFile), func(f *os.File) error {
		return WriteConnLogs(f, conns)
	}); err != nil {
		return err
	}
	if err := writeFileWith(filepath.Join(dir, kRootFile), func(f *os.File) error {
		return WriteKRoot(f, kroot)
	}); err != nil {
		return err
	}
	if err := writeFileWith(filepath.Join(dir, uptimeFile), func(f *os.File) error {
		return WriteUptime(f, uptime)
	}); err != nil {
		return err
	}
	if d.Pfx2AS != nil {
		for _, m := range d.Pfx2AS.Months() {
			tbl, _ := d.Pfx2AS.Table(m)
			if err := writeFileWith(filepath.Join(dir, pfx2asFile(m)), func(f *os.File) error {
				return pfx2as.WriteText(f, tbl.Entries())
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// Load reads a dataset previously written by Save.
func Load(dir string) (*Dataset, error) {
	d := NewDataset()

	probes, err := loadWith(filepath.Join(dir, probesFile), ParseProbeArchive)
	if err != nil {
		return nil, err
	}
	for _, p := range probes {
		d.Probes[p.ID] = p
	}

	if err := loadRecords(filepath.Join(dir, connLogsFile), 4, parseConnLog,
		func(e ConnLogEntry) ProbeID { return e.Probe }, d.ConnLogs); err != nil {
		return nil, err
	}
	if err := loadRecords(filepath.Join(dir, kRootFile), 5, parseKRoot,
		func(k KRootRound) ProbeID { return k.Probe }, d.KRoot); err != nil {
		return nil, err
	}
	if err := loadRecords(filepath.Join(dir, uptimeFile), 3, parseUptime,
		func(u UptimeRecord) ProbeID { return u.Probe }, d.Uptime); err != nil {
		return nil, err
	}

	matches, err := filepath.Glob(filepath.Join(dir, "pfx2as-*.txt"))
	if err != nil {
		return nil, err
	}
	sort.Strings(matches)
	for _, path := range matches {
		base := filepath.Base(path)
		m, ok := pfx2as.ParseMonth(strings.TrimSuffix(strings.TrimPrefix(base, "pfx2as-"), ".txt"))
		if !ok {
			return nil, fmt.Errorf("atlasdata: unrecognised pfx2as file %q", base)
		}
		entries, err := loadWith(path, pfx2as.ParseText)
		if err != nil {
			return nil, err
		}
		tbl, err := pfx2as.NewTable(entries)
		if err != nil {
			return nil, fmt.Errorf("atlasdata: %s: %v", base, err)
		}
		d.Pfx2AS.Put(m, tbl)
	}

	d.SortRecords()
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// writeFileWith writes atomically: content goes to a .tmp sibling that
// is renamed over the target only after a successful write and close,
// so an interrupted Save never leaves a half-written file for Load to
// choke on.
func writeFileWith(path string, fn func(*os.File) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// loadRecords reads one record file into a single slice sized by the
// file's line count and files each probe's records under its ID as the
// cap-limited window flat[lo:hi:hi], so appending to one probe's records
// copies them instead of overwriting the next probe's.
func loadRecords[T any](path string, nFields int, parse func(fields) (T, error),
	probeOf func(T) ProbeID, into map[ProbeID][]T) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	lines := 0 // each record sits on a line of its own
	for sc := bufio.NewScanner(f); sc.Scan(); lines++ {
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	flat, err := parseText(f, nFields, parse, make([]T, 0, lines))
	if err != nil {
		return err
	}
	// Save writes probe-ID order. Any other order is grouped by a stable
	// sort, which keeps each probe's records in file order.
	byProbe := func(a, b T) int { return cmp.Compare(probeOf(a), probeOf(b)) }
	if !slices.IsSortedFunc(flat, byProbe) {
		slices.SortStableFunc(flat, byProbe)
	}
	for lo := 0; lo < len(flat); {
		id, hi := probeOf(flat[lo]), lo+1
		for hi < len(flat) && probeOf(flat[hi]) == id {
			hi++
		}
		into[id] = flat[lo:hi:hi]
		lo = hi
	}
	return nil
}

func loadWith[T any](path string, parse func(io.Reader) (T, error)) (T, error) {
	var zero T
	f, err := os.Open(path)
	if err != nil {
		return zero, err
	}
	defer f.Close()
	return parse(f)
}
