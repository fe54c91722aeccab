// Package wal implements the segmented append-only write-ahead log the
// live ingest tier persists records into before applying them. The log
// is the crash-safety substrate of internal/stream: a shard appends
// every record it is about to apply, so after a kill the in-memory
// state can be reconstructed by replaying the log from the last
// checkpoint.
//
// On-disk layout: a directory of segment files named
// wal-<first-sequence, 16 hex digits>.seg, each a concatenation of
// frames:
//
//	[4B little-endian payload length][4B little-endian CRC32C of payload][payload]
//
// Sequence numbers start at 1 and are implicit — a frame's sequence is
// the segment's first sequence plus its index within the segment — so
// frames carry no per-record header beyond length and checksum.
//
// Crash tolerance: a process killed mid-append leaves a torn final
// frame (short header, short payload, or mismatched checksum). Open
// detects the first invalid frame, truncates its segment to the last
// valid frame, and discards any later segments, so the log always
// reopens to the longest valid prefix — a torn tail is expected damage,
// not corruption. The same holds for a bit-flipped frame in the middle
// of the log: everything from the flip onwards is dropped, and the
// caller (stream.Recover) re-ingests the lost suffix from its producer.
package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"dynaddr/internal/wire"
)

// SyncPolicy says when appended frames are fsynced to stable storage.
// The zero value syncs on every append (safe by default).
type SyncPolicy int

// Sync policies. Values greater than one mean "fsync every N appends";
// Sync is also always called on rotation and Close.
const (
	// SyncAlways fsyncs after every append: a record acknowledged is a
	// record on disk.
	SyncAlways SyncPolicy = 1
	// SyncNever leaves syncing to the OS (and to rotation/Close). A crash
	// can lose everything since the last segment rotation.
	SyncNever SyncPolicy = -1
)

// ParseSyncPolicy parses a -fsync flag value: "always", "off" (or
// "never"), or a positive integer N meaning "fsync every N appends".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "always", "on", "1":
		return SyncAlways, nil
	case "off", "never":
		return SyncNever, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("wal: bad sync policy %q: want \"always\", \"off\" or a positive interval", s)
	}
	return SyncPolicy(n), nil
}

// String renders the policy in the form ParseSyncPolicy accepts.
func (p SyncPolicy) String() string {
	switch {
	case p == SyncNever:
		return "off"
	case p <= SyncAlways:
		return "always"
	default:
		return strconv.Itoa(int(p))
	}
}

func (p SyncPolicy) normalized() SyncPolicy {
	if p == 0 {
		return SyncAlways
	}
	return p
}

// Options parameterise a log.
type Options struct {
	// SegmentBytes is the size past which the active segment is rotated.
	// Zero means 1 MiB.
	SegmentBytes int64
	// Sync is the fsync policy; the zero value is SyncAlways.
	Sync SyncPolicy
	// FirstSeq, when nonzero, is the sequence the log must begin at:
	// segments starting earlier (or a gap before it) are treated as
	// stale and discarded. Recovery uses it after a checkpoint reset so
	// a log truncated with TruncateBefore reopens cleanly. Zero infers
	// the start from the earliest segment on disk (or 1 when empty).
	FirstSeq uint64
	// Metrics, when non-nil, receives append/fsync/rotation counts.
	Metrics *Metrics
	// FS, when non-nil, routes every filesystem operation the log makes
	// (segment create/append/fsync/scan/remove). Nil means the real
	// filesystem (OSFS). The fault-injection harness substitutes a
	// failing FS here to exercise degraded-mode handling.
	FS FS
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 1 << 20
	}
	if o.FS == nil {
		o.FS = OSFS
	}
	o.Sync = o.Sync.normalized()
	return o
}

// The frame layout (4B length + 4B CRC32C + payload) is owned by
// internal/wire so a WAL segment and an ingest wire batch are
// byte-compatible: one frame reader serves both.
const (
	frameHeader = wire.FrameHeaderSize
	// maxFrame bounds a single payload; a length field beyond it is
	// treated as corruption, not as a huge record.
	maxFrame = wire.MaxFramePayload

	segPrefix = "wal-"
	segSuffix = ".seg"
)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// Log is an open write-ahead log rooted at one directory. It is not
// safe for concurrent use; in the stream tier each shard goroutine owns
// its log exclusively.
type Log struct {
	dir string
	opt Options

	f        File   // active segment
	segStart uint64 // sequence of the active segment's first frame
	segSize  int64
	nextSeq  uint64
	unsynced int
	closed   bool
	frame    []byte // Append's reused frame buffer
}

func segName(firstSeq uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, firstSeq, segSuffix)
}

func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
	if len(hex) != 16 {
		return 0, false
	}
	seq, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// segments lists the directory's segment files sorted by first
// sequence.
func segments(fs FS, dir string) ([]uint64, error) {
	entries, err := fs.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		if seq, ok := parseSegName(e.Name()); ok && !e.IsDir() {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// scanSegment walks one segment's frames calling fn (which may be nil)
// for each valid frame, and returns the number of valid frames and the
// byte offset where the first invalid frame (if any) begins. A clean
// segment returns valid == size.
func scanSegment(fs FS, path string, firstSeq uint64, fn func(seq uint64, payload []byte) error) (frames int, valid int64, err error) {
	f, err := fs.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	var (
		hdr    [frameHeader]byte
		buf    []byte
		offset int64
		size   = st.Size()
	)
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			// EOF here is a clean end; a partial header is a torn tail.
			return frames, offset, nil
		}
		length, sum := wire.ParseFrameHeader(hdr[:])
		if length == 0 || length > maxFrame {
			return frames, offset, nil // corrupt length: stop at last valid frame
		}
		if int64(length) > size-offset-frameHeader {
			// Torn payload: the segment ends before the length claims. Found
			// from the size, so a corrupt length allocates nothing.
			return frames, offset, nil
		}
		if cap(buf) < int(length) {
			buf = make([]byte, length)
		}
		buf = buf[:length]
		if _, err := io.ReadFull(f, buf); err != nil {
			return frames, offset, nil // torn payload
		}
		if wire.Checksum(buf) != sum {
			return frames, offset, nil // bit rot / torn write
		}
		if fn != nil {
			if err := fn(firstSeq+uint64(frames), buf); err != nil {
				return frames, offset, err
			}
		}
		frames++
		offset += frameHeader + int64(length)
	}
}

// Open opens (or creates) the log in dir, repairing crash damage: the
// first invalid frame found — torn tail, short header, corrupt checksum
// — truncates its segment there, and all later segments are deleted, so
// the reopened log is exactly the longest valid prefix ever synced.
func Open(dir string, opt Options) (*Log, error) {
	opt = opt.withDefaults()
	if err := opt.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	seqs, err := segments(opt.FS, dir)
	if err != nil {
		return nil, err
	}

	// A log truncated by checkpointing legitimately starts past 1, so
	// the expected first sequence is the earliest segment's unless the
	// caller pins it with FirstSeq.
	start := opt.FirstSeq
	if start == 0 {
		if len(seqs) > 0 {
			start = seqs[0]
		} else {
			start = 1
		}
	}
	for len(seqs) > 0 && seqs[0] < start {
		// Stale segments from before the pinned start: remove them so the
		// gap check below doesn't mistake them for the log head.
		if err := opt.FS.Remove(filepath.Join(dir, segName(seqs[0]))); err != nil {
			return nil, err
		}
		seqs = seqs[1:]
	}

	l := &Log{dir: dir, opt: opt, nextSeq: start, segStart: start}
	damaged := -1 // index into seqs of the first damaged segment
	for i, first := range seqs {
		if first != l.nextSeq {
			// A gap or overlap in sequence numbering: everything from here
			// on is unusable, keep the valid prefix.
			damaged = i
			break
		}
		path := filepath.Join(dir, segName(first))
		frames, valid, err := scanSegment(opt.FS, path, first, nil)
		if err != nil {
			return nil, err
		}
		l.nextSeq = first + uint64(frames)
		fi, err := opt.FS.Stat(path)
		if err != nil {
			return nil, err
		}
		if valid != fi.Size() {
			if err := opt.FS.Truncate(path, valid); err != nil {
				return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", path, err)
			}
			damaged = i + 1
			break
		}
	}
	if damaged >= 0 {
		for _, first := range seqs[min(damaged, len(seqs)):] {
			if err := opt.FS.Remove(filepath.Join(dir, segName(first))); err != nil {
				return nil, err
			}
		}
		seqs = seqs[:min(damaged, len(seqs))]
	}

	// Resume appending to the last surviving segment, or start fresh.
	if len(seqs) > 0 {
		l.segStart = seqs[len(seqs)-1]
		path := filepath.Join(dir, segName(l.segStart))
		f, err := opt.FS.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, err
		}
		l.f, l.segSize = f, fi.Size()
	} else {
		if err := l.openSegment(l.nextSeq); err != nil {
			return nil, err
		}
	}
	return l, nil
}

func (l *Log) openSegment(firstSeq uint64) error {
	f, err := l.opt.FS.OpenFile(filepath.Join(l.dir, segName(firstSeq)), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	l.f, l.segStart, l.segSize = f, firstSeq, 0
	return syncDir(l.opt.FS, l.dir)
}

// NextSeq returns the sequence the next Append will be assigned.
func (l *Log) NextSeq() uint64 { return l.nextSeq }

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }

// Append writes one frame and returns its sequence number. Depending on
// the sync policy the frame may not be durable until the next Sync,
// rotation or Close.
func (l *Log) Append(payload []byte) (uint64, error) {
	if l.closed {
		return 0, ErrClosed
	}
	if len(payload) == 0 || len(payload) > maxFrame {
		return 0, fmt.Errorf("wal: payload size %d out of range", len(payload))
	}
	if l.segSize >= l.opt.SegmentBytes {
		if err := l.rotate(); err != nil {
			return 0, err
		}
	}
	// One Write of the whole frame, built in a buffer the log keeps:
	// the caller may reuse payload as soon as Append returns.
	l.frame = wire.AppendFrame(l.frame[:0], payload)
	if _, err := l.f.Write(l.frame); err != nil {
		return 0, err
	}
	seq := l.nextSeq
	l.nextSeq++
	l.segSize += frameHeader + int64(len(payload))
	l.unsynced++
	l.opt.Metrics.appended(frameHeader + len(payload))
	if every := int(l.opt.Sync); every > 0 && l.unsynced >= every {
		if err := l.Sync(); err != nil {
			return 0, err
		}
	}
	return seq, nil
}

// rotate closes the active segment (synced) and starts a new one whose
// first sequence is the next append's.
func (l *Log) rotate() error {
	if err := l.Sync(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	l.opt.Metrics.rotated()
	return l.openSegment(l.nextSeq)
}

// Sync forces everything appended so far to stable storage.
func (l *Log) Sync() error {
	if l.closed {
		return ErrClosed
	}
	if l.unsynced == 0 {
		return nil
	}
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.opt.Metrics.fsynced(time.Since(start))
	l.unsynced = 0
	return nil
}

// Close syncs and closes the active segment. The log is unusable
// afterwards; Close is idempotent.
func (l *Log) Close() error {
	if l.closed {
		return nil
	}
	err := l.Sync()
	l.closed = true
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// TruncateBefore removes whole segments every one of whose frames has a
// sequence below seq — the checkpoint-driven space reclamation. The
// active segment is never removed. Frames below seq that share a
// segment with frames at or above it are kept (truncation is
// segment-granular); Replay callers skip them by sequence.
func (l *Log) TruncateBefore(seq uint64) error {
	if l.closed {
		return ErrClosed
	}
	seqs, err := segments(l.opt.FS, l.dir)
	if err != nil {
		return err
	}
	removed := false
	for i, first := range seqs {
		if first == l.segStart {
			break // never the active segment
		}
		// The segment's frames end where the next segment begins.
		var next uint64
		if i+1 < len(seqs) {
			next = seqs[i+1]
		} else {
			next = l.segStart
		}
		if next > seq {
			break // this segment still holds frames >= seq
		}
		if err := l.opt.FS.Remove(filepath.Join(l.dir, segName(first))); err != nil {
			return err
		}
		removed = true
	}
	if removed {
		return syncDir(l.opt.FS, l.dir)
	}
	return nil
}

// Replay calls fn for every valid frame with sequence >= from, in
// order. Damage (torn tail, corrupt frame) cleanly ends the replay at
// the last valid frame, mirroring Open's repair; fn errors abort and
// are returned.
func Replay(dir string, from uint64, fn func(seq uint64, payload []byte) error) error {
	// Replay reads via the real filesystem: it is the recovery path, and
	// injected write faults have nothing to say about reads.
	seqs, err := segments(OSFS, dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	expect := uint64(0)
	for _, first := range seqs {
		if expect != 0 && first != expect {
			return nil // gap: valid prefix ends at the previous segment
		}
		path := filepath.Join(dir, segName(first))
		frames, valid, err := scanSegment(OSFS, path, first, func(seq uint64, payload []byte) error {
			if seq < from {
				return nil
			}
			return fn(seq, payload)
		})
		if err != nil {
			return err
		}
		expect = first + uint64(frames)
		if fi, statErr := os.Stat(path); statErr == nil && valid != fi.Size() {
			return nil // damaged mid-log: stop at the last valid frame
		}
	}
	return nil
}

// Collect returns copies of every valid frame payload with sequence >=
// from, in order — the log's tail past a checkpoint, packaged for
// shipping to another node. It is Replay without the apply: the caller
// gets raw payloads it can re-append verbatim into a fresh log, which
// preserves the frame encoding (and therefore crash recovery) on the
// receiving side.
func Collect(dir string, from uint64) ([][]byte, error) {
	var out [][]byte
	err := Replay(dir, from, func(seq uint64, payload []byte) error {
		out = append(out, append([]byte(nil), payload...))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// syncDir fsyncs a directory so segment creation and removal survive a
// crash. fsync on a directory is advisory on some platforms and
// filesystems, so its failure is tolerated rather than failing the
// append path over it.
func syncDir(fs FS, dir string) error {
	d, err := fs.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}
