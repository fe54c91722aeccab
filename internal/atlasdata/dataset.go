package atlasdata

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"dynaddr/internal/pfx2as"
	"dynaddr/internal/simclock"
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
func (d *Dataset) ProbeIDs() []ProbeID { return sortedIDs(d.Probes) }

// SortRecords sorts every per-probe record slice by time. Generators
// emit in order, but datasets loaded from disk or assembled by hand may
// not be.
func (d *Dataset) SortRecords() {
	for _, s := range d.ConnLogs {
		connLogKind.sort(s)
	}
	for _, s := range d.KRoot {
		kRootKind.sort(s)
	}
	for _, s := range d.Uptime {
		uptimeKind.sort(s)
	}
}

// Validate checks cross-record invariants: metadata exists for every
// probe with records, records are sorted, and connections per probe do
// not overlap in time. Probes are checked in ID order, connection logs
// first, so the error names the same record every time.
func (d *Dataset) Validate() error {
	if err := validateEach(d.Probes, connLogKind, d.ConnLogs); err != nil {
		return err
	}
	if err := validateEach(d.Probes, kRootKind, d.KRoot); err != nil {
		return err
	}
	return validateEach(d.Probes, uptimeKind, d.Uptime)
}

// validateEach runs Validate's checks over one record kind.
func validateEach[T validator](probes map[ProbeID]ProbeMeta, k *recordKind[T], byProbe map[ProbeID][]T) error {
	return k.validateProbes(probes, sortedIDs(byProbe), func(id ProbeID) error {
		return k.validate(id, byProbe[id])
	})
}

// Meta returns a probe's metadata.
func (d *Dataset) Meta(id ProbeID) (ProbeMeta, bool) {
	p, ok := d.Probes[id]
	return p, ok
}

// ReadConnLogs returns a probe's connection logs.
func (d *Dataset) ReadConnLogs(id ProbeID) ([]ConnLogEntry, error) { return d.ConnLogs[id], nil }

// ReadKRoot returns a probe's k-root rounds.
func (d *Dataset) ReadKRoot(id ProbeID) ([]KRootRound, error) { return d.KRoot[id], nil }

// ReadUptime returns a probe's uptime records.
func (d *Dataset) ReadUptime(id ProbeID) ([]UptimeRecord, error) { return d.Uptime[id], nil }

// Snapshots returns the monthly pfx2as snapshots.
func (d *Dataset) Snapshots() *pfx2as.SnapshotStore { return d.Pfx2AS }

// Dataset returns d itself, so that a Dataset and an Archive answer the
// same calls.
func (d *Dataset) Dataset(context.Context) (*Dataset, error) { return d, nil }

// validator is what the per-probe checks ask of every record kind.
type validator interface{ Validate() error }

// recordKind describes one record file: its line format, how its records
// key and order, and the words its errors use.
type recordKind[T validator] struct {
	file    string
	what    string // "connection logs"
	nFields int
	parse   func(fields) (T, error)
	probe   func(*T) ProbeID
	time    func(*T) simclock.Time
	// sort orders one probe's records by time, the one sort Load, Open
	// and SortRecords apply. It compares the time field directly: a
	// call through time per comparison made Load measurably slower.
	sort func([]T)
	// overlap, when set, checks a record against its time-ordered
	// predecessor beyond their order.
	overlap func(id ProbeID, i int, prev, cur *T) error
}

var (
	connLogKind = &recordKind[ConnLogEntry]{
		file: connLogsFile, what: "connection logs", nFields: 4, parse: parseConnLog,
		probe: func(e *ConnLogEntry) ProbeID { return e.Probe },
		time:  func(e *ConnLogEntry) simclock.Time { return e.Start },
		sort: func(s []ConnLogEntry) {
			sort.Slice(s, func(i, j int) bool { return s[i].Start < s[j].Start })
		},
		overlap: func(id ProbeID, i int, prev, e *ConnLogEntry) error {
			if e.Start < prev.End {
				return fmt.Errorf("atlasdata: probe %d has overlapping connections at %d (%v < %v)", id, i, e.Start, prev.End)
			}
			return nil
		},
	}
	kRootKind = &recordKind[KRootRound]{
		file: kRootFile, what: "k-root rounds", nFields: 5, parse: parseKRoot,
		probe: func(k *KRootRound) ProbeID { return k.Probe },
		time:  func(k *KRootRound) simclock.Time { return k.Timestamp },
		sort: func(s []KRootRound) {
			sort.Slice(s, func(i, j int) bool { return s[i].Timestamp < s[j].Timestamp })
		},
	}
	uptimeKind = &recordKind[UptimeRecord]{
		file: uptimeFile, what: "uptime records", nFields: 3, parse: parseUptime,
		probe: func(u *UptimeRecord) ProbeID { return u.Probe },
		time:  func(u *UptimeRecord) simclock.Time { return u.Timestamp },
		sort: func(s []UptimeRecord) {
			sort.Slice(s, func(i, j int) bool { return s[i].Timestamp < s[j].Timestamp })
		},
	}
)

// validateProbes checks the probes in ids, in that order: each must have
// metadata, and then pass check.
func (k *recordKind[T]) validateProbes(probes map[ProbeID]ProbeMeta, ids []ProbeID, check func(ProbeID) error) error {
	for _, id := range ids {
		if _, ok := probes[id]; !ok {
			return fmt.Errorf("atlasdata: %s for probe %d without metadata", k.what, id)
		}
		if err := check(id); err != nil {
			return err
		}
	}
	return nil
}

// validate checks one probe's sorted records: each is valid, belongs to
// the probe, and follows its predecessor.
func (k *recordKind[T]) validate(id ProbeID, recs []T) error {
	for i := range recs {
		r := &recs[i]
		if err := (*r).Validate(); err != nil {
			return err
		}
		if p := k.probe(r); p != id {
			return fmt.Errorf("atlasdata: probe %d %s contain a record for probe %d", id, k.what, p)
		}
		if i > 0 {
			if err := k.follows(id, i, &recs[i-1], r); err != nil {
				return err
			}
		}
	}
	return nil
}

// follows checks cur, the probe's ith record, against the record before
// it.
func (k *recordKind[T]) follows(id ProbeID, i int, prev, cur *T) error {
	if k.time(cur) < k.time(prev) {
		return fmt.Errorf("atlasdata: probe %d %s unsorted at %d", id, k.what, i)
	}
	if k.overlap != nil {
		return k.overlap(id, i, prev, cur)
	}
	return nil
}

// sortedIDs returns a map's probe IDs in ascending order.
func sortedIDs[V any](m map[ProbeID]V) []ProbeID {
	ids := make([]ProbeID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
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

// Load reads a dataset previously written by Save: Open's pass, records kept.
func Load(dir string) (*Dataset, error) {
	a, d, err := openArchive(dir, true)
	if err != nil {
		return nil, err
	}
	a.Close() // the files were only read
	return d, nil
}

// loadProbes reads a dataset directory's probe archive.
func loadProbes(dir string) (map[ProbeID]ProbeMeta, error) {
	probes, err := loadWith(filepath.Join(dir, probesFile), ParseProbeArchive)
	if err != nil {
		return nil, err
	}
	out := make(map[ProbeID]ProbeMeta, len(probes))
	for _, p := range probes {
		out[p.ID] = p
	}
	return out, nil
}

// loadPfx2AS reads a dataset directory's pfx2as snapshots into store.
func loadPfx2AS(dir string, store *pfx2as.SnapshotStore) error {
	matches, err := filepath.Glob(filepath.Join(dir, "pfx2as-*.txt"))
	if err != nil {
		return err
	}
	sort.Strings(matches)
	for _, path := range matches {
		base := filepath.Base(path)
		m, ok := pfx2as.ParseMonth(strings.TrimSuffix(strings.TrimPrefix(base, "pfx2as-"), ".txt"))
		if !ok {
			return fmt.Errorf("atlasdata: unrecognised pfx2as file %q", base)
		}
		entries, err := loadWith(path, pfx2as.ParseText)
		if err != nil {
			return err
		}
		tbl, err := pfx2as.NewTable(entries)
		if err != nil {
			return fmt.Errorf("atlasdata: %s: %v", base, err)
		}
		store.Put(m, tbl)
	}
	return nil
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

// countLines counts r's lines, a final line without a newline included.
func countLines(r io.Reader) (int, error) {
	buf := make([]byte, 64*1024)
	lines, last := 0, byte('\n')
	for {
		n, err := r.Read(buf)
		if n > 0 {
			lines += bytes.Count(buf[:n], []byte{'\n'})
			last = buf[n-1]
		}
		if err == io.EOF {
			break
		} else if err != nil {
			return 0, err
		}
	}
	if last != '\n' {
		lines++
	}
	return lines, nil
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
