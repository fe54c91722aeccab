package atlasdata

import (
	"bytes"
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

// extent is the byte range [off, end) of a record file.
type extent struct{ off, end int64 }

// recordIndex locates one probe's records in one record file.
type recordIndex struct {
	extents []extent // in file order; a file written by Save gives one
	count   int      // records in the extents
	crc     uint32   // CRC32C of the extents' bytes, in order
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
	rf := &recordFile[T]{kind: k, path: path, f: f, index: make(map[ProbeID]*recordIndex)}
	scans := make(map[ProbeID]*probeScan[T])
	var (
		curID ProbeID
		idx   *recordIndex
		st    *probeScan[T]
	)
	sc := newRecordScanner(f, nil, k.nFields, k.parse)
	for sc.Scan() {
		r := &sc.rec
		// Probes' lines come in runs; only a new run looks up its probe.
		if id := k.probe(r); idx == nil || id != curID {
			curID, idx, st = id, rf.index[id], scans[id]
			if idx == nil {
				idx, st = &recordIndex{}, new(probeScan[T])
				rf.index[id], scans[id] = idx, st
			}
		}
		if n := len(idx.extents); n > 0 && idx.extents[n-1].end == sc.off {
			idx.extents[n-1].end = sc.end
		} else {
			idx.extents = append(idx.extents, extent{sc.off, sc.end})
		}
		idx.crc = crc32.Update(idx.crc, castagnoli, sc.raw)
		// Until a probe's records fall out of time order, file order is
		// the order Load validates them in.
		if idx.count > 0 && !st.unsorted {
			if k.time(r) < k.time(&st.last) {
				st.unsorted = true
			} else if st.err == nil {
				st.err = k.follows(curID, idx.count, &st.last, r)
			}
		}
		st.last = *r
		idx.count++
	}
	if err := sc.Err(); err != nil {
		f.Close()
		return nil, nil, err
	}
	return rf, scans, nil
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
// read returns them. *buf is scratch space for their bytes and the
// scanner's line buffer, grown as needed and kept for the caller's next
// read.
func (rf *recordFile[T]) readInto(id ProbeID, idx *recordIndex, out []T, buf *[]byte) ([]T, error) {
	var n int64
	for _, e := range idx.extents {
		n += e.end - e.off
	}
	// The scanner's buffer holds all n bytes and one more, so it never
	// grows.
	if int64(cap(*buf)) < 2*n+1 {
		*buf = make([]byte, 2*n+1)
	}
	b, lines := (*buf)[:n], (*buf)[n:n:2*n+1]
	pos := int64(0)
	for _, e := range idx.extents {
		if _, err := rf.f.ReadAt(b[pos:pos+e.end-e.off], e.off); errors.Is(err, io.EOF) {
			return nil, rf.changed(id) // the file shrank
		} else if err != nil {
			return nil, fmt.Errorf("atlasdata: reading probe %d's %s: %w", id, rf.kind.what, err)
		}
		pos += e.end - e.off
	}
	if crc32.Checksum(b, castagnoli) != idx.crc {
		return nil, rf.changed(id)
	}
	lo := len(out)
	sc := newRecordScanner(bytes.NewReader(b), lines, rf.kind.nFields, rf.kind.parse)
	for sc.Scan() {
		out = append(out, sc.rec)
	}
	if sc.Err() != nil || len(out)-lo != idx.count {
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
