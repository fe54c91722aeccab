package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"dynaddr/internal/wire"
)

// refFrames walks seg's frames with the wire frame reader's two
// checks, a length in 1..MaxFramePayload that the bytes hold and a
// matching checksum, and returns the payloads of its valid prefix and
// that prefix's length.
func refFrames(seg []byte) (payloads [][]byte, valid int) {
	for len(seg)-valid >= wire.FrameHeaderSize {
		length, sum := wire.ParseFrameHeader(seg[valid:])
		rest := seg[valid+wire.FrameHeaderSize:]
		if length == 0 || length > wire.MaxFramePayload || uint64(length) > uint64(len(rest)) {
			break
		}
		if wire.Checksum(rest[:length]) != sum {
			break
		}
		payloads = append(payloads, rest[:length])
		valid += wire.FrameHeaderSize + int(length)
	}
	return payloads, valid
}

// FuzzWALOpen writes its input as one or two segment files and holds
// Open to a reference walk of the frames: Open repairs the log to the
// valid prefix the walk accepts, truncating the damaged segment there
// and removing any later one, Replay yields exactly that prefix, and an
// Append after Open replays as the prefix plus the new frame.
//
// seq2 picks the layout: 0 writes data as one segment; otherwise data
// is cut at cut into two, and the second segment's name continues the
// first's valid frames, plus seq2-1 (a gap when not 1).
func FuzzWALOpen(f *testing.F) {
	var log []byte
	for i := range 5 {
		log = wire.AppendFrame(log, fmt.Appendf(nil, "record-%04d", i))
	}
	first := wire.FrameHeaderSize + len("record-0000")
	flipped := bytes.Clone(log)
	flipped[2*first+wire.FrameHeaderSize+3] ^= 0x20
	oversized := binary.LittleEndian.AppendUint32(nil, wire.MaxFramePayload+1)
	oversized = append(oversized, log...)
	for _, seed := range []struct {
		data []byte
		cut  uint16
		seq2 uint8
	}{
		{log, 0, 0},
		{log[:len(log)-3], 0, 0}, // torn payload
		{log[:3*first+5], 0, 0},  // torn header
		{flipped, 0, 0},          // bit rot mid-log
		{oversized, 0, 0},        // length past MaxFramePayload
		{make([]byte, 2*wire.FrameHeaderSize), 0, 0}, // zero lengths
		{nil, 0, 0},
		{log, uint16(2 * first), 1},     // two clean segments
		{log, uint16(2 * first), 3},     // a gap between them
		{flipped, uint16(3 * first), 1}, // rot in the first
		{flipped, uint16(first), 1},     // rot in the second
		{log, uint16(2*first + 4), 1},   // first torn, second removed
		{log, 0, 1},                     // empty first segment
	} {
		f.Add(seed.data, seed.cut, seed.seq2)
	}
	f.Fuzz(func(t *testing.T, data []byte, cut uint16, seq2 uint8) {
		dir := t.TempDir()
		type segment struct {
			first uint64
			data  []byte
		}
		segs := []segment{{1, data}}
		if seq2 != 0 {
			c := int(cut) % (len(data) + 1)
			frames, _ := refFrames(data[:c])
			segs = []segment{{1, data[:c]}, {1 + uint64(len(frames)) + uint64(seq2-1), data[c:]}}
			if len(frames) == 0 && seq2 == 1 {
				segs[1].first = 2 // the name 1 is taken
			}
		}
		for _, s := range segs {
			if err := os.WriteFile(filepath.Join(dir, segName(s.first)), s.data, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		// The reference repair: segments stay while they continue the
		// sequence, each cut to its valid frames, up to the first that
		// is damaged or out of sequence.
		var want []string
		kept := map[uint64][]byte{}
		next := uint64(1)
		for _, s := range segs {
			if s.first != next {
				break
			}
			payloads, valid := refFrames(s.data)
			for _, p := range payloads {
				want = append(want, fmt.Sprintf("%d:%s", next, p))
				next++
			}
			kept[s.first] = s.data[:valid]
			if valid != len(s.data) {
				break
			}
		}

		l, err := Open(dir, Options{Sync: SyncNever})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if got := l.NextSeq(); got != next {
			t.Errorf("NextSeq %d, want %d", got, next)
		}
		if got := replayAll(t, dir, 0); !slices.Equal(got, want) {
			t.Fatalf("Replay after Open:\n got %q\nwant %q", got, want)
		}
		for _, s := range segs {
			path := filepath.Join(dir, segName(s.first))
			onDisk, err := os.ReadFile(path)
			keep, ok := kept[s.first]
			switch {
			case !ok && !os.IsNotExist(err):
				t.Errorf("segment %d should be removed: %v", s.first, err)
			case ok && err != nil:
				t.Errorf("segment %d: %v", s.first, err)
			case ok && !bytes.Equal(onDisk, keep):
				t.Errorf("segment %d holds %d bytes, want its %d-byte valid prefix", s.first, len(onDisk), len(keep))
			}
		}

		seq, err := l.Append([]byte("appended"))
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		if seq != next {
			t.Errorf("Append got seq %d, want %d", seq, next)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		want = append(want, fmt.Sprintf("%d:appended", next))
		if got := replayAll(t, dir, 0); !slices.Equal(got, want) {
			t.Fatalf("Replay after Append:\n got %q\nwant %q", got, want)
		}
	})
}
