package atlasdata

import (
	"bufio"
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
// Records are stored without the probe ID they are filed under, each
// kind as its stored sample: connection logs as ConnLogSample, whose
// IPv6 literals V6 holds once each; k-root rounds, most of every
// dataset, as KRootSample; uptime records as UptimeSample.
// ReadConnLogs, ReadKRoot, ReadUptime and EachRecord hand them out as
// ConnLogEntries, KRootRounds and UptimeRecords again.
type Dataset struct {
	Probes   map[ProbeID]ProbeMeta
	ConnLogs map[ProbeID][]ConnLogSample
	KRoot    map[ProbeID][]KRootSample
	Uptime   map[ProbeID][]UptimeSample
	Pfx2AS   *pfx2as.SnapshotStore
	// V6 holds the IPv6 literals ConnLogs' IPv6 samples index. File a
	// probe's sessions with ConnLogSeries, through NewV6Interner(&d.V6).
	V6 V6Table
}

// NewDataset returns an empty dataset ready for population.
func NewDataset() *Dataset {
	return &Dataset{
		Probes:   make(map[ProbeID]ProbeMeta),
		ConnLogs: make(map[ProbeID][]ConnLogSample),
		KRoot:    make(map[ProbeID][]KRootSample),
		Uptime:   make(map[ProbeID][]UptimeSample),
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
		connLogKind.sortStored(s)
	}
	for _, s := range d.KRoot {
		kRootKind.sortStored(s)
	}
	for _, s := range d.Uptime {
		uptimeKind.sortStored(s)
	}
}

// Validate checks cross-record invariants: metadata exists for every
// probe with records, every IPv6 sample indexes a literal of V6, records
// are sorted, and connections per probe do not overlap in time. Probes
// are checked in ID order, connection logs first, so the error names the
// same record every time.
func (d *Dataset) Validate() error {
	if err := validateEach(d.Probes, connLogKind, d.ConnLogs, &d.V6); err != nil {
		return err
	}
	if err := validateEach(d.Probes, kRootKind, d.KRoot, nil); err != nil {
		return err
	}
	return validateEach(d.Probes, uptimeKind, d.Uptime, nil)
}

// validateEach runs Validate's checks over one record kind.
func validateEach[T validator, S any](probes map[ProbeID]ProbeMeta, k *recordKind[T, S], byProbe map[ProbeID][]S, lits *V6Table) error {
	pair := new([2]T)
	return k.validateProbes(probes, sortedIDs(byProbe), func(id ProbeID) error {
		return k.validate(lits, id, byProbe[id], pair)
	})
}

// Meta returns a probe's metadata.
func (d *Dataset) Meta(id ProbeID) (ProbeMeta, bool) {
	p, ok := d.Probes[id]
	return p, ok
}

// ReadConnLogs returns a probe's connection logs, rebuilt from its
// samples.
func (d *Dataset) ReadConnLogs(id ProbeID) ([]ConnLogEntry, error) {
	return records(connLogKind, &d.V6, id, d.ConnLogs[id]), nil
}

// ReadKRoot returns a probe's k-root rounds, rebuilt from its samples.
func (d *Dataset) ReadKRoot(id ProbeID) ([]KRootRound, error) {
	return records(kRootKind, nil, id, d.KRoot[id]), nil
}

// ReadUptime returns a probe's uptime records, rebuilt from its samples.
func (d *Dataset) ReadUptime(id ProbeID) ([]UptimeRecord, error) {
	return records(uptimeKind, nil, id, d.Uptime[id]), nil
}

// records rebuilds probe id's records of kind k from their stored form,
// IPv6 literals read from lits; nil stays nil.
func records[T validator, S any](k *recordKind[T, S], lits *V6Table, id ProbeID, stored []S) []T {
	if stored == nil {
		return nil
	}
	out := make([]T, len(stored))
	for i := range stored {
		out[i] = k.record(lits, id, &stored[i])
	}
	return out
}

// Snapshots returns the monthly pfx2as snapshots.
func (d *Dataset) Snapshots() *pfx2as.SnapshotStore { return d.Pfx2AS }

// Dataset returns d itself, so that a Dataset and an Archive answer the
// same calls.
func (d *Dataset) Dataset(context.Context) (*Dataset, error) { return d, nil }

// validator is what the per-probe checks ask of every record kind.
type validator interface{ Validate() error }

// recordKind describes one record file: its line format, how its records
// key and order, how a Dataset stores them, and the words its errors use.
// T is the record a line holds, S the element a Dataset files under the
// record's probe: the probe-less ConnLogSample, KRootSample and
// UptimeSample.
type recordKind[T validator, S any] struct {
	file    string
	what    string // "connection logs"
	nFields int
	parse   func(fields) (T, error)
	marshal func(T) ([]byte, error)
	probe   func(*T) ProbeID
	time    func(*T) simclock.Time
	// stored and record convert between a record and the element stored
	// under its probe; stored interns an IPv6 literal by the interner it
	// is given, and record reads it from the table. Kinds without
	// literals ignore both, which may be nil.
	stored func(*V6Interner, *T) S
	record func(*V6Table, ProbeID, *S) T
	// lit, when set, returns the V6Table index a stored element holds,
	// if it holds one.
	lit func(*S) (*uint32, bool)
	// sort and sortStored order one probe's records, and its stored
	// elements, by time: the one sort Load, Open and SortRecords apply.
	// Both are sort.Slice by the same field, so they leave records of
	// equal time in the same order and an Archive read matches Load.
	// They compare the time field directly: a call through time per
	// comparison made Load measurably slower.
	sort       func([]T)
	sortStored func([]S)
	// overlap, when set, checks a record against its time-ordered
	// predecessor beyond their order.
	overlap func(id ProbeID, i int, prev, cur *T) error
}

var (
	connLogKind = &recordKind[ConnLogEntry, ConnLogSample]{
		file: connLogsFile, what: "connection logs", nFields: 4, parse: parseConnLog, marshal: MarshalConnLog,
		probe:  func(e *ConnLogEntry) ProbeID { return e.Probe },
		time:   func(e *ConnLogEntry) simclock.Time { return e.Start },
		stored: func(lits *V6Interner, e *ConnLogEntry) ConnLogSample { return e.Sample(lits) },
		record: func(lits *V6Table, id ProbeID, s *ConnLogSample) ConnLogEntry { return s.Entry(id, lits) },
		lit:    func(s *ConnLogSample) (*uint32, bool) { return &s.Addr, s.Family == V6 },
		sort: func(s []ConnLogEntry) {
			sort.Slice(s, func(i, j int) bool { return s[i].Start < s[j].Start })
		},
		sortStored: func(s []ConnLogSample) {
			sort.Slice(s, func(i, j int) bool { return s[i].Start < s[j].Start })
		},
		overlap: func(id ProbeID, i int, prev, e *ConnLogEntry) error {
			if e.Start < prev.End {
				return fmt.Errorf("atlasdata: probe %d has overlapping connections at %d (%v < %v)", id, i, e.Start, prev.End)
			}
			return nil
		},
	}
	kRootKind = &recordKind[KRootRound, KRootSample]{
		file: kRootFile, what: "k-root rounds", nFields: 5, parse: parseKRoot, marshal: MarshalKRoot,
		probe:  func(k *KRootRound) ProbeID { return k.Probe },
		time:   func(k *KRootRound) simclock.Time { return k.Timestamp },
		stored: func(_ *V6Interner, k *KRootRound) KRootSample { return k.Sample() },
		record: func(_ *V6Table, id ProbeID, s *KRootSample) KRootRound { return s.Round(id) },
		sort: func(s []KRootRound) {
			sort.Slice(s, func(i, j int) bool { return s[i].Timestamp < s[j].Timestamp })
		},
		sortStored: func(s []KRootSample) {
			sort.Slice(s, func(i, j int) bool { return s[i].Timestamp < s[j].Timestamp })
		},
	}
	uptimeKind = &recordKind[UptimeRecord, UptimeSample]{
		file: uptimeFile, what: "uptime records", nFields: 3, parse: parseUptime, marshal: MarshalUptime,
		probe:  func(u *UptimeRecord) ProbeID { return u.Probe },
		time:   func(u *UptimeRecord) simclock.Time { return u.Timestamp },
		stored: func(_ *V6Interner, u *UptimeRecord) UptimeSample { return u.Sample() },
		record: func(_ *V6Table, id ProbeID, s *UptimeSample) UptimeRecord { return s.Record(id) },
		sort: func(s []UptimeRecord) {
			sort.Slice(s, func(i, j int) bool { return s[i].Timestamp < s[j].Timestamp })
		},
		sortStored: func(s []UptimeSample) {
			sort.Slice(s, func(i, j int) bool { return s[i].Timestamp < s[j].Timestamp })
		},
	}
)

// validateProbes checks the probes in ids, in that order: each must have
// metadata, and then pass check.
func (k *recordKind[T, S]) validateProbes(probes map[ProbeID]ProbeMeta, ids []ProbeID, check func(ProbeID) error) error {
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

// validate checks one probe's sorted records, as stored, their IPv6
// literals in lits: each indexes a literal lits holds, is valid, belongs
// to the probe, and follows its predecessor. It rebuilds each record in
// pair, which the caller allocates once for many calls: a record on
// validate's own stack would escape through the kind's funcs, one
// allocation per record.
func (k *recordKind[T, S]) validate(lits *V6Table, id ProbeID, recs []S, pair *[2]T) error {
	prev, r := &pair[0], &pair[1]
	for i := range recs {
		if k.lit != nil {
			if x, ok := k.lit(&recs[i]); ok && uint64(*x) >= uint64(lits.Len()) {
				return fmt.Errorf("atlasdata: probe %d %s at %d name IPv6 literal %d of %d", id, k.what, i, *x, lits.Len())
			}
		}
		*r = k.record(lits, id, &recs[i])
		if err := (*r).Validate(); err != nil {
			return err
		}
		if p := k.probe(r); p != id {
			return fmt.Errorf("atlasdata: probe %d %s contain a record for probe %d", id, k.what, p)
		}
		if i > 0 {
			if err := k.follows(id, i, prev, r); err != nil {
				return err
			}
		}
		prev, r = r, prev
	}
	return nil
}

// follows checks cur, the probe's ith record, against the record before
// it.
func (k *recordKind[T, S]) follows(id ProbeID, i int, prev, cur *T) error {
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
// are written in probe-ID order so output is deterministic.
func (d *Dataset) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	ids := d.ProbeIDs()
	probes := make([]ProbeMeta, len(ids))
	for i, id := range ids {
		probes[i] = d.Probes[id]
	}
	if err := writeFileWith(filepath.Join(dir, probesFile), func(f *os.File) error {
		return WriteProbeArchive(f, probes)
	}); err != nil {
		return err
	}
	if err := saveRecords(dir, connLogKind, ids, d.ConnLogs, &d.V6); err != nil {
		return err
	}
	if err := saveRecords(dir, kRootKind, ids, d.KRoot, nil); err != nil {
		return err
	}
	if err := saveRecords(dir, uptimeKind, ids, d.Uptime, nil); err != nil {
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

// saveRecords writes the records of the probes ids to k's file in dir,
// probe by probe in that order, IPv6 literals read from lits.
func saveRecords[T validator, S any](dir string, k *recordKind[T, S], ids []ProbeID, byProbe map[ProbeID][]S, lits *V6Table) error {
	return writeFileWith(filepath.Join(dir, k.file), func(f *os.File) error {
		bw := bufio.NewWriter(f)
		for _, id := range ids {
			recs := byProbe[id]
			for i := range recs {
				if err := writeLine(bw, k.record(lits, id, &recs[i]), k.marshal); err != nil {
					return err
				}
			}
		}
		return bw.Flush()
	})
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

// loadProbes reads a dataset directory's probe archive, which lists
// each probe once.
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

// RecordSink consumes one probe's records.
type RecordSink interface {
	ConnLog(ConnLogEntry) error
	KRoot(KRootRound) error
	Uptime(UptimeRecord) error
}

// EachRecord feeds one probe's records to sink in the one order every
// replay of a probe uses: its three time-sorted record streams merged
// by timestamp, and on ties connection entries first (the session
// exists before the measurements that run inside it), then k-root
// rounds, then uptime records. It stops at the first error.
func (d *Dataset) EachRecord(id ProbeID, sink RecordSink) error {
	conns, rounds, ups := d.ConnLogs[id], d.KRoot[id], d.Uptime[id]
	var ci, ki, ui int
	for ci < len(conns) || ki < len(rounds) || ui < len(ups) {
		var err error
		switch {
		case ci < len(conns) &&
			(ki == len(rounds) || conns[ci].Start <= rounds[ki].Timestamp) &&
			(ui == len(ups) || conns[ci].StartTime() <= ups[ui].Timestamp):
			err = sink.ConnLog(conns[ci].Entry(id, &d.V6))
			ci++
		case ki < len(rounds) && (ui == len(ups) || rounds[ki].Time() <= ups[ui].Timestamp):
			err = sink.KRoot(rounds[ki].Round(id))
			ki++
		default:
			err = sink.Uptime(ups[ui].Record(id))
			ui++
		}
		if err != nil {
			return err
		}
	}
	return nil
}
