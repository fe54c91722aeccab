package atlasdata

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"math"
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
	conns  *recordFile[ConnLogEntry, ConnLogSample]
	kroot  *recordFile[KRootRound, KRootSample]
	uptime *recordFile[UptimeRecord, UptimeSample]
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
type recordFile[T validator, S any] struct {
	kind  *recordKind[T, S]
	path  string
	f     *os.File
	index map[ProbeID]*recordIndex
}

// probeScan is what the archive pass over a record file learns about
// one probe's records beyond their index.
type probeScan[T any] struct {
	last     T     // the probe's latest record in file order
	unsorted bool  // a record came earlier in time than the one before it
	err      error // the first failed check against a predecessor
}

// Open validates the dataset directory dir as Load does, with the same
// errors, and returns an Archive over it.
func Open(dir string) (*Archive, error) {
	a, _, err := openArchive(dir, false)
	return a, err
}

// openArchive is the one pass Load and Open make over the dataset
// directory dir: the probe archive, the archive pass over each record
// file, the pfx2as snapshots, then the rest of each file's checks. With
// keep the Dataset it returns holds the records.
func openArchive(dir string, keep bool) (_ *Archive, _ *Dataset, err error) {
	a := &Archive{pfx2as: pfx2as.NewSnapshotStore()}
	defer func() {
		if err != nil {
			a.Close()
		}
	}()
	if a.probes, err = loadProbes(dir); err != nil {
		return nil, nil, err
	}
	a.ids = sortedIDs(a.probes)
	var (
		conns  *archiveScan[ConnLogEntry, ConnLogSample]
		kroot  *archiveScan[KRootRound, KRootSample]
		uptime *archiveScan[UptimeRecord, UptimeSample]
	)
	if a.conns, conns, err = openRecords(dir, connLogKind, keep); err != nil {
		return nil, nil, err
	}
	if a.kroot, kroot, err = openRecords(dir, kRootKind, keep); err != nil {
		return nil, nil, err
	}
	if a.uptime, uptime, err = openRecords(dir, uptimeKind, keep); err != nil {
		return nil, nil, err
	}
	if err = loadPfx2AS(dir, a.pfx2as); err != nil {
		return nil, nil, err
	}
	if err = a.conns.validate(a.probes, conns); err != nil {
		return nil, nil, err
	}
	if err = a.kroot.validate(a.probes, kroot); err != nil {
		return nil, nil, err
	}
	if err = a.uptime.validate(a.probes, uptime); err != nil {
		return nil, nil, err
	}
	return a, &Dataset{Probes: a.probes, ConnLogs: conns.recs, KRoot: kroot.recs, Uptime: uptime.recs, Pfx2AS: a.pfx2as, V6: conns.lits}, nil
}

// openRecords opens one record file of dir and runs the archive pass over it.
func openRecords[T validator, S any](dir string, k *recordKind[T, S], keep bool) (*recordFile[T, S], *archiveScan[T, S], error) {
	path := filepath.Join(dir, k.file)
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	rf := &recordFile[T, S]{kind: k, path: path, f: f}
	s, err := rf.scan(context.Background(), keep)
	return rf, s, err // openArchive closes rf if err is set
}

// scan is the archive pass over the record file: on the block workers it
// parses every line, indexes each probe's lines and checks each probe's
// records against their predecessors; with keep it also files the
// records, as the Dataset stores them, under their probes, in one slice
// sized by the file's lines, and interns their IPv6 literals in file
// order.
// It reads through a section of its own, so it shares no file offset,
// and stops at the first block it finishes once ctx is done. The first
// pass makes the file's index; a later one fails unless it finds the
// same, as the same blocks cut the same lines into the same extents.
func (rf *recordFile[T, S]) scan(ctx context.Context, keep bool) (*archiveScan[T, S], error) {
	s := &archiveScan[T, S]{
		kind:  rf.kind,
		ctx:   ctx,
		index: make(map[ProbeID]*recordIndex),
		scans: make(map[ProbeID]*probeScan[T]),
	}
	if keep {
		lines, err := countLines(io.NewSectionReader(rf.f, 0, math.MaxInt64)) // a record per line
		if err != nil {
			return nil, err
		}
		all := make([]S, lines)
		s.text = &textScan[S]{recs: all[:0], all: all}
	}
	if err := scanBlocks(io.NewSectionReader(rf.f, 0, math.MaxInt64), s); err != nil {
		return nil, err
	}
	if rf.index == nil {
		rf.index = s.index
	} else {
		ids := maps.Clone(rf.index)
		maps.Copy(ids, s.index)
		for _, id := range sortedIDs(ids) {
			if held, found := rf.index[id], s.index[id]; held == nil || found == nil || !slices.Equal(held.extents, found.extents) {
				return nil, rf.changed(id)
			}
		}
	}
	if keep {
		s.group()
	}
	return s, nil
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

// archiveScan is the archive pass over one record file. Workers cut each
// block's records into runs, checking them against each other; finish
// files the runs in the index, in file order, and makes the same checks
// across runs. Kept records are stored as parseText places records, and
// the runs they came in are listed in file order. A worker interns a
// kept block's IPv6 literals in the block's own table; finish interns
// them in lits, in file order, and renumbers the block's samples.
type archiveScan[T validator, S any] struct {
	kind     *recordKind[T, S]
	ctx      context.Context
	index    map[ProbeID]*recordIndex
	scans    map[ProbeID]*probeScan[T]
	runs     [][]run[T]      // by block slot
	text     *textScan[S]    // where the records go, if kept
	kept     []keptRun       // the kept records' runs, in file order
	recs     map[ProbeID][]S // the kept records by probe, once grouped
	lits     V6Table         // the kept records' IPv6 literals
	interner *V6Interner     // interns in lits
	blockLit []*V6Interner   // by block slot, if kept
	renumber []uint32        // finish's scratch: block index to lits index
}

// keptRun is count consecutive kept records of probe id.
type keptRun struct {
	id    ProbeID
	count int
}

func (s *archiveScan[T, S]) slots(n int) {
	s.runs = make([][]run[T], n)
	if s.text != nil && s.kind.lit != nil {
		s.interner = NewV6Interner(&s.lits)
		s.blockLit = make([]*V6Interner, n)
		for i := range s.blockLit {
			s.blockLit[i] = NewV6Interner(new(V6Table))
		}
	}
}

func (s *archiveScan[T, S]) start(b *block, idle bool) bool {
	return s.text == nil || s.text.start(b, idle)
}

func (s *archiveScan[T, S]) scan(b *block) {
	k := s.kind
	runs := s.runs[b.slot][:0]
	var out []S
	var lits *V6Interner
	if s.text != nil {
		out = s.text.all[b.at : b.at+b.lines]
	}
	if s.blockLit != nil {
		lits = s.blockLit[b.slot]
		lits.reset()
	}
	var cur *run[T]
	b.n = 0
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
		if out != nil {
			out[b.n] = k.stored(lits, r)
		}
		b.n++
	}
	for i := range runs {
		r := &runs[i]
		r.crc = crc32.Checksum(b.buf[r.off-b.off:r.end-b.off], castagnoli)
	}
	s.runs[b.slot], b.err = runs, sc.err
}

func (s *archiveScan[T, S]) finish(b *block) error {
	if err := cmp.Or(b.err, s.ctx.Err()); err != nil {
		return err
	}
	k := s.kind
	if s.text != nil {
		if s.blockLit != nil {
			if err := s.internBlock(b); err != nil {
				return err
			}
		}
		s.text.finish(b)
	}
	for i := range s.runs[b.slot] {
		r := &s.runs[b.slot][i]
		if s.text != nil {
			if n := len(s.kept); n > 0 && s.kept[n-1].id == r.id {
				s.kept[n-1].count += r.count // a run cut by the block boundary
			} else {
				s.kept = append(s.kept, keptRun{r.id, r.count})
			}
		}
		idx, st := s.index[r.id], s.scans[r.id]
		if idx == nil {
			idx, st = &recordIndex{}, new(probeScan[T])
			s.index[r.id], s.scans[r.id] = idx, st
		}
		idx.extents = append(idx.extents, extent{r.off, uint32(r.end - r.off), r.crc})
		// Until a probe's records fall out of time order, file order is
		// the order they are validated in.
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

// internBlock interns the IPv6 literals of b, a kept block whose worker
// interned them in the block's own table, in the scan's table, in their
// order in the block, and renumbers the block's samples to match. Blocks
// finish in file order, so the scan's table holds its literals in file
// order.
func (s *archiveScan[T, S]) internBlock(b *block) error {
	local := s.blockLit[b.slot].t
	if local.Len() == 0 {
		return nil
	}
	s.renumber = s.renumber[:0]
	for i := range uint32(local.Len()) {
		lit := local.Literal(i)
		if !s.lits.fits(lit) {
			return fmt.Errorf("atlasdata: %s holds more than 4 GiB of IPv6 literals", s.kind.file)
		}
		s.renumber = append(s.renumber, s.interner.Intern(lit))
	}
	out := s.text.all[b.at : b.at+b.n]
	for i := range out {
		if x, ok := s.kind.lit(&out[i]); ok {
			*x = s.renumber[*x]
		}
	}
	return nil
}

// group files the kept records under their probes as cap-limited windows
// flat[lo:hi:hi], so appending to one probe's records copies them
// instead of overwriting the next probe's, and sorts the windows whose
// records came out of time order.
func (s *archiveScan[T, S]) group() {
	flat, ids := s.text.recs, sortedIDs(s.index)
	// Save writes probe-ID order. Any other order is grouped into a copy,
	// each kept run after the probe's runs before it, which keeps each
	// probe's records in file order.
	if !slices.IsSortedFunc(s.kept, func(a, b keptRun) int { return cmp.Compare(a.id, b.id) }) {
		next := make(map[ProbeID]int, len(ids))
		lo := 0
		for _, id := range ids {
			next[id], lo = lo, lo+s.index[id].count
		}
		grouped := make([]S, len(flat))
		for _, r := range s.kept {
			copy(grouped[next[r.id]:], flat[:r.count])
			next[r.id] += r.count
			flat = flat[r.count:]
		}
		flat = grouped
	}
	// Now in probe-ID order, each probe's records are as many as indexed.
	s.recs = make(map[ProbeID][]S, len(ids))
	lo := 0
	for _, id := range ids {
		hi := lo + s.index[id].count
		if s.scans[id].unsorted {
			s.kind.sortStored(flat[lo:hi])
		}
		s.recs[id], lo = flat[lo:hi:hi], hi
	}
}

// validate finishes the checks of one record file that the pass over it
// began, in the order Dataset.Validate makes them. A probe whose records
// were out of time order is checked sorted: the records the pass kept,
// or else the probe's records read back from disk.
func (rf *recordFile[T, S]) validate(probes map[ProbeID]ProbeMeta, s *archiveScan[T, S]) error {
	k := rf.kind
	pair := new([2]T)
	return k.validateProbes(probes, sortedIDs(s.index), func(id ProbeID) error {
		if !s.scans[id].unsorted {
			return s.scans[id].err
		}
		recs, ok := s.recs[id]
		lits := &s.lits
		if !ok {
			read, err := rf.read(id)
			if err != nil {
				return err
			}
			lits = new(V6Table)
			in := NewV6Interner(lits)
			recs = make([]S, len(read))
			for i := range read {
				recs[i] = k.stored(in, &read[i])
			}
		}
		return k.validate(lits, id, recs, pair)
	})
}

// read returns a probe's records as Load does: parsed from its lines in
// file order, then sorted by time. It fails if those lines changed since
// Open indexed them.
func (rf *recordFile[T, S]) read(id ProbeID) ([]T, error) {
	idx := rf.index[id]
	if idx == nil {
		return nil, nil
	}
	buf := readBufs.Get().(*[]byte)
	defer readBufs.Put(buf)
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
	out := make([]T, 0, idx.count)
	sc := newRecordScanner(b, 0, rf.kind.nFields, rf.kind.parse)
	for sc.Scan() {
		out = append(out, sc.rec)
	}
	if sc.err != nil || len(out) != idx.count {
		return nil, rf.changed(id)
	}
	rf.kind.sort(out)
	return out, nil
}

// readBufs recycles read's scratch buffers across reads.
var readBufs = sync.Pool{New: func() any { return new([]byte) }}

func (rf *recordFile[T, S]) changed(id ProbeID) error {
	return fmt.Errorf("atlasdata: %s changed on disk since it was opened: probe %d's %s no longer match", rf.path, id, rf.kind.what)
}

func (rf *recordFile[T, S]) close() error {
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

// Dataset reads the whole archive into memory by the archive pass over
// the files the Archive holds: a Dataset equal to what Load returns for
// the directory, sharing the Archive's pfx2as snapshots. It fails if the
// files no longer hold what Open indexed, and returns ctx's error once
// ctx is done.
func (a *Archive) Dataset(ctx context.Context) (*Dataset, error) {
	conns, err := a.conns.scan(ctx, true)
	if err != nil {
		return nil, err
	}
	kroot, err := a.kroot.scan(ctx, true)
	if err != nil {
		return nil, err
	}
	uptime, err := a.uptime.scan(ctx, true)
	if err != nil {
		return nil, err
	}
	return &Dataset{Probes: maps.Clone(a.probes), ConnLogs: conns.recs, KRoot: kroot.recs, Uptime: uptime.recs, Pfx2AS: a.pfx2as, V6: conns.lits}, nil
}

// Close closes the record files.
func (a *Archive) Close() error {
	return errors.Join(a.conns.close(), a.kroot.close(), a.uptime.close())
}
