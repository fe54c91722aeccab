package atlasdata

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"dynaddr/internal/pfx2as"
)

// Archive is a dataset directory served from disk. Open validates the
// directory exactly as Load does, but keeps in memory only the probe
// archive, the pfx2as snapshots and, per probe and record file, where
// the probe's lines lie; each read parses them afresh. The record files
// stay open until Close, so a Save that renames new files into the
// directory does not disturb an open Archive, but a file rewritten in
// place does: a read whose bytes no longer match what Open saw fails.
//
// An Archive is safe for concurrent use.
type Archive struct {
	probes map[ProbeID]ProbeMeta
	ids    []ProbeID
	pfx2as *pfx2as.SnapshotStore
	conns  *recordFile[ConnLogEntry]
	kroot  *recordFile[KRootRound]
	uptime *recordFile[UptimeRecord]
}

// castagnoli is the CRC32C table record extents are checksummed with.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// extent is a stretch of whole lines of a record file: n bytes from off,
// whose CRC32C is crc.
type extent struct {
	off    int64
	n, crc uint32
}

// recordIndex locates one probe's records in one record file.
type recordIndex struct {
	extents []extent // in file order
	count   int      // records in the extents
}

// recordFile is one open record file and its per-probe index.
type recordFile[T validator] struct {
	kind  *recordKind[T]
	path  string
	f     *os.File
	index map[ProbeID]*recordIndex
}

// probeScan is what Open's pass over a record file learns about one
// probe's records beyond their index.
type probeScan[T any] struct {
	last     T     // the probe's latest record in file order
	unsorted bool  // a record came earlier in time than the one before it
	err      error // the first failed check against a predecessor
}

// Open validates the dataset directory dir as Load does and returns an
// Archive over it. Every archive Load rejects, Open rejects with the
// same error.
func Open(dir string) (_ *Archive, err error) {
	a := &Archive{pfx2as: pfx2as.NewSnapshotStore()}
	defer func() {
		if err != nil {
			a.Close()
		}
	}()
	if a.probes, err = loadProbes(dir); err != nil {
		return nil, err
	}
	a.ids = sortedIDs(a.probes)
	var (
		connScans   map[ProbeID]*probeScan[ConnLogEntry]
		krootScans  map[ProbeID]*probeScan[KRootRound]
		uptimeScans map[ProbeID]*probeScan[UptimeRecord]
	)
	if a.conns, connScans, err = scanRecords(dir, connLogKind); err != nil {
		return nil, err
	}
	if a.kroot, krootScans, err = scanRecords(dir, kRootKind); err != nil {
		return nil, err
	}
	if a.uptime, uptimeScans, err = scanRecords(dir, uptimeKind); err != nil {
		return nil, err
	}
	if err := loadPfx2AS(dir, a.pfx2as); err != nil {
		return nil, err
	}
	if err := a.conns.validate(a.probes, connScans); err != nil {
		return nil, err
	}
	if err := a.kroot.validate(a.probes, krootScans); err != nil {
		return nil, err
	}
	if err := a.uptime.validate(a.probes, uptimeScans); err != nil {
		return nil, err
	}
	return a, nil
}

// scanRecords opens one record file and indexes it in one pass with
// Load's scanner and parser, checking each probe's records against
// their predecessors as it goes.
func scanRecords[T validator](dir string, k *recordKind[T]) (*recordFile[T], map[ProbeID]*probeScan[T], error) {
	path := filepath.Join(dir, k.file)
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	s := &archiveScan[T]{
		kind:  k,
		rf:    &recordFile[T]{kind: k, path: path, f: f, index: make(map[ProbeID]*recordIndex)},
		scans: make(map[ProbeID]*probeScan[T]),
	}
	if err := scanBlocks(f, s); err != nil {
		f.Close()
		return nil, nil, err
	}
	return s.rf, s.scans, nil
}

// run is a block's consecutive records of one probe, with no other line
// between them: one extent of the probe's index.
type run[T any] struct {
	id          ProbeID
	off, end    int64 // the run's bytes in the file
	crc         uint32
	count       int
	first, last T
	unsorted    bool // a record came earlier in time than the one before it
	// bad is the run-local index of the first record, before any out of
	// time order, that failed follows against badPrev; 0 if none did.
	bad             int
	badPrev, badCur T
}

// archiveScan is Open's pass over one record file. Workers cut each
// block's records into runs, checking them against each other; finish
// files the runs in the index, in file order, and makes the same checks
// across runs.
type archiveScan[T validator] struct {
	kind  *recordKind[T]
	rf    *recordFile[T]
	scans map[ProbeID]*probeScan[T]
	runs  [][]run[T] // by block slot

	// The probe of the last run finish filed.
	id  ProbeID
	idx *recordIndex
	st  *probeScan[T]
}

func (s *archiveScan[T]) slots(n int) { s.runs = make([][]run[T], n) }

func (s *archiveScan[T]) start(*block, bool) bool { return true }

func (s *archiveScan[T]) scan(b *block) {
	k := s.kind
	runs := s.runs[b.slot][:0]
	var cur *run[T]
	sc := newRecordScanner(b.buf, b.line, k.nFields, k.parse)
	for sc.Scan() {
		r, off := &sc.rec, b.off+int64(sc.off)
		if id := k.probe(r); cur == nil || id != cur.id || off != cur.end {
			runs = append(runs, run[T]{id: id, off: off, first: *r})
			cur = &runs[len(runs)-1]
		} else if !cur.unsorted {
			if k.time(r) < k.time(&cur.last) {
				cur.unsorted = true
			} else if cur.bad == 0 && k.follows(id, cur.count, &cur.last, r) != nil {
				cur.bad, cur.badPrev, cur.badCur = cur.count, cur.last, *r
			}
		}
		cur.last = *r
		cur.count++
		cur.end = b.off + int64(sc.end)
	}
	for i := range runs {
		r := &runs[i]
		r.crc = crc32.Checksum(b.buf[r.off-b.off:r.end-b.off], castagnoli)
	}
	s.runs[b.slot], b.err = runs, sc.err
}

func (s *archiveScan[T]) finish(b *block) error {
	if b.err != nil {
		return b.err
	}
	k := s.kind
	for i := range s.runs[b.slot] {
		r := &s.runs[b.slot][i]
		// Probes' lines come in runs; only a new probe is looked up.
		if s.idx == nil || r.id != s.id {
			s.id, s.idx, s.st = r.id, s.rf.index[r.id], s.scans[r.id]
			if s.idx == nil {
				s.idx, s.st = &recordIndex{}, new(probeScan[T])
				s.rf.index[r.id], s.scans[r.id] = s.idx, s.st
			}
		}
		idx, st := s.idx, s.st
		idx.extents = append(idx.extents, extent{r.off, uint32(r.end - r.off), r.crc})
		// Until a probe's records fall out of time order, file order is
		// the order Load validates them in.
		if idx.count > 0 && !st.unsorted {
			if k.time(&r.first) < k.time(&st.last) {
				st.unsorted = true
			} else if st.err == nil {
				st.err = k.follows(r.id, idx.count, &st.last, &r.first)
			}
		}
		if !st.unsorted {
			if st.err == nil && r.bad > 0 {
				st.err = k.follows(r.id, idx.count+r.bad, &r.badPrev, &r.badCur)
			}
			st.unsorted = r.unsorted
		}
		st.last = r.last
		idx.count += r.count
	}
	return nil
}

// validate finishes Open's checks of one record file, in the order
// Dataset.Validate makes them. A probe whose records were out of time
// order is read back and sorted first, as Load would have.
func (rf *recordFile[T]) validate(probes map[ProbeID]ProbeMeta, scans map[ProbeID]*probeScan[T]) error {
	return rf.kind.validateProbes(probes, sortedIDs(rf.index), func(id ProbeID) error {
		if !scans[id].unsorted {
			return scans[id].err
		}
		recs, err := rf.read(id)
		if err != nil {
			return err
		}
		return rf.kind.validate(id, recs)
	})
}

// read returns a probe's records as Load would: parsed from its lines in
// file order, then sorted by time. It fails if those lines changed since
// Open indexed them.
func (rf *recordFile[T]) read(id ProbeID) ([]T, error) {
	idx := rf.index[id]
	if idx == nil {
		return nil, nil
	}
	buf := readBufs.Get().(*[]byte)
	defer readBufs.Put(buf)
	return rf.readInto(id, idx, make([]T, 0, idx.count), buf)
}

// readBufs recycles read's scratch buffers across reads.
var readBufs = sync.Pool{New: func() any { return new([]byte) }}

// readInto appends the records of probe id, indexed by idx, to out as
// read returns them. *buf is scratch space for their bytes, grown as
// needed and kept for the caller's next read.
func (rf *recordFile[T]) readInto(id ProbeID, idx *recordIndex, out []T, buf *[]byte) ([]T, error) {
	var n int64
	for _, e := range idx.extents {
		n += int64(e.n)
	}
	if int64(cap(*buf)) < n {
		*buf = make([]byte, n)
	}
	b := (*buf)[:n]
	pos := int64(0)
	for _, e := range idx.extents {
		ext := b[pos : pos+int64(e.n)]
		if _, err := rf.f.ReadAt(ext, e.off); errors.Is(err, io.EOF) {
			return nil, rf.changed(id) // the file shrank
		} else if err != nil {
			return nil, fmt.Errorf("atlasdata: reading probe %d's %s: %w", id, rf.kind.what, err)
		}
		if crc32.Checksum(ext, castagnoli) != e.crc {
			return nil, rf.changed(id)
		}
		pos += int64(e.n)
	}
	lo := len(out)
	sc := newRecordScanner(b, 0, rf.kind.nFields, rf.kind.parse)
	for sc.Scan() {
		out = append(out, sc.rec)
	}
	if sc.err != nil || len(out)-lo != idx.count {
		return nil, rf.changed(id)
	}
	rf.kind.sort(out[lo:])
	return out, nil
}

func (rf *recordFile[T]) changed(id ProbeID) error {
	return fmt.Errorf("atlasdata: %s changed on disk since it was opened: probe %d's %s no longer match", rf.path, id, rf.kind.what)
}

// all reads every probe's records into a map, as Load files them: one
// slice for the whole file, of which each probe holds the cap-limited
// window flat[lo:hi:hi]. It stops early once ctx is done.
func (rf *recordFile[T]) all(ctx context.Context) (map[ProbeID][]T, error) {
	total := 0
	for _, idx := range rf.index {
		total += idx.count
	}
	out := make(map[ProbeID][]T, len(rf.index))
	flat := make([]T, 0, total)
	var buf []byte
	for id, idx := range rf.index {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		lo := len(flat)
		var err error
		if flat, err = rf.readInto(id, idx, flat, &buf); err != nil {
			return nil, err
		}
		out[id] = flat[lo:len(flat):len(flat)]
	}
	return out, nil
}

func (rf *recordFile[T]) close() error {
	if rf == nil {
		return nil
	}
	return rf.f.Close()
}

// ProbeIDs returns all probe IDs with metadata, sorted.
func (a *Archive) ProbeIDs() []ProbeID { return slices.Clone(a.ids) }

// Meta returns a probe's metadata.
func (a *Archive) Meta(id ProbeID) (ProbeMeta, bool) {
	p, ok := a.probes[id]
	return p, ok
}

// ReadConnLogs reads a probe's connection logs from disk.
func (a *Archive) ReadConnLogs(id ProbeID) ([]ConnLogEntry, error) { return a.conns.read(id) }

// ReadKRoot reads a probe's k-root rounds from disk.
func (a *Archive) ReadKRoot(id ProbeID) ([]KRootRound, error) { return a.kroot.read(id) }

// ReadUptime reads a probe's uptime records from disk.
func (a *Archive) ReadUptime(id ProbeID) ([]UptimeRecord, error) { return a.uptime.read(id) }

// Snapshots returns the monthly pfx2as snapshots, which an Archive holds
// in memory.
func (a *Archive) Snapshots() *pfx2as.SnapshotStore { return a.pfx2as }

// Dataset reads the whole archive into memory: a Dataset equal to what
// Load returns for the directory. The Dataset shares the Archive's
// pfx2as snapshots. Once ctx is done it stops reading and returns
// ctx's error.
func (a *Archive) Dataset(ctx context.Context) (*Dataset, error) {
	d := &Dataset{Probes: maps.Clone(a.probes), Pfx2AS: a.pfx2as}
	var err error
	if d.ConnLogs, err = a.conns.all(ctx); err != nil {
		return nil, err
	}
	if d.KRoot, err = a.kroot.all(ctx); err != nil {
		return nil, err
	}
	if d.Uptime, err = a.uptime.all(ctx); err != nil {
		return nil, err
	}
	return d, nil
}

// Close closes the record files.
func (a *Archive) Close() error {
	return errors.Join(a.conns.close(), a.kroot.close(), a.uptime.close())
}
