package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func appendN(t *testing.T, l *Log, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		payload := []byte(fmt.Sprintf("record-%04d", i))
		seq, err := l.Append(payload)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if want := uint64(i + 1); seq != want {
			t.Fatalf("append %d assigned seq %d, want %d", i, seq, want)
		}
	}
}

func replayAll(t *testing.T, dir string, from uint64) []string {
	t.Helper()
	var got []string
	err := Replay(dir, from, func(seq uint64, payload []byte) error {
		got = append(got, fmt.Sprintf("%d:%s", seq, payload))
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 100)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	got := replayAll(t, dir, 0)
	if len(got) != 100 {
		t.Fatalf("replayed %d frames, want 100", len(got))
	}
	if got[0] != "1:record-0000" || got[99] != "100:record-0099" {
		t.Fatalf("frames out of order: first %q last %q", got[0], got[99])
	}
	// Replay from mid-log skips earlier sequences.
	if tail := replayAll(t, dir, 51); len(tail) != 50 || tail[0] != "51:record-0050" {
		t.Fatalf("replay from 51: %d frames, first %v", len(tail), tail)
	}
}

func TestReopenContinuesSequence(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 10)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if l.NextSeq() != 11 {
		t.Fatalf("reopened NextSeq = %d, want 11", l.NextSeq())
	}
	appendN(t, l, 10, 10)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, dir, 0); len(got) != 20 {
		t.Fatalf("replayed %d frames after reopen, want 20", len(got))
	}
}

func TestSegmentRotationAndTruncate(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation every few records.
	l, err := Open(dir, Options{SegmentBytes: 64, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 40)
	segsBefore, err := segments(OSFS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segsBefore) < 4 {
		t.Fatalf("rotation produced %d segments, want several", len(segsBefore))
	}

	// A checkpoint at seq 25 makes frames <= 25 obsolete.
	if err := l.TruncateBefore(26); err != nil {
		t.Fatal(err)
	}
	segsAfter, err := segments(OSFS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segsAfter) >= len(segsBefore) {
		t.Fatalf("truncate removed nothing: %d -> %d segments", len(segsBefore), len(segsAfter))
	}
	// Everything from seq 26 on must still replay; the kept head of a
	// partially obsolete segment may replay earlier frames too, which
	// callers skip by sequence.
	got := replayAll(t, dir, 26)
	if len(got) != 15 || got[0] != "26:record-0025" || got[14] != "40:record-0039" {
		t.Fatalf("replay after truncate: %d frames, first %v", len(got), got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDamageTolerance is the satellite's table test: torn final frames,
// bit-flipped checksums and empty segment files must all reopen (and
// replay) to the last valid record instead of failing.
func TestDamageTolerance(t *testing.T) {
	cases := []struct {
		name string
		// damage mutates the log directory after a clean 20-record run.
		damage func(t *testing.T, dir string)
		// want is the number of frames that must survive; -1 means "fewer
		// than 20 but at least 1".
		want int
	}{
		{
			name:   "clean",
			damage: func(t *testing.T, dir string) {},
			want:   20,
		},
		{
			name: "torn tail: final frame cut mid-payload",
			damage: func(t *testing.T, dir string) {
				chopLastSegment(t, dir, 5)
			},
			want: 19,
		},
		{
			name: "torn tail: partial header",
			damage: func(t *testing.T, dir string) {
				// A frame is 8B header + 11B payload = 19B; leaving 3 bytes
				// of the last frame leaves a short header.
				chopLastSegment(t, dir, 16)
			},
			want: 19,
		},
		{
			name: "bit-flipped payload fails CRC",
			damage: func(t *testing.T, dir string) {
				// Each frame is 8B header + 11B payload = 19B; offset 200
				// lands inside frame 10's payload.
				flipByteInLastSegment(t, dir, 200)
			},
			want: -1,
		},
		{
			name: "corrupt length field",
			damage: func(t *testing.T, dir string) {
				// Overwrite a mid-segment frame's length with an absurd value.
				path := lastSegment(t, dir)
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				binary.LittleEndian.PutUint32(data[19*3:], 1<<30)
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			want: -1,
		},
		{
			name: "empty segment file",
			damage: func(t *testing.T, dir string) {
				// A crash between rotation's create and the first append
				// leaves a zero-byte segment.
				if err := os.WriteFile(filepath.Join(dir, segName(21)), nil, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			want: 20,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{Sync: SyncNever})
			if err != nil {
				t.Fatal(err)
			}
			appendN(t, l, 0, 20)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			tc.damage(t, dir)

			// Replay on the damaged directory stops at the last valid frame.
			got := replayAll(t, dir, 0)
			switch {
			case tc.want >= 0 && len(got) != tc.want:
				t.Fatalf("replayed %d frames, want %d", len(got), tc.want)
			case tc.want < 0 && (len(got) == 0 || len(got) >= 20):
				t.Fatalf("replayed %d frames, want a proper valid prefix", len(got))
			}
			for i, frame := range got {
				if want := fmt.Sprintf("%d:record-%04d", i+1, i); frame != want {
					t.Fatalf("frame %d = %q, want %q", i, frame, want)
				}
			}

			// Reopen repairs the damage and appends continue from the last
			// valid sequence.
			l, err = Open(dir, Options{Sync: SyncNever})
			if err != nil {
				t.Fatalf("reopen after damage: %v", err)
			}
			if want := uint64(len(got) + 1); l.NextSeq() != want {
				t.Fatalf("reopened NextSeq = %d, want %d", l.NextSeq(), want)
			}
			if _, err := l.Append([]byte("post-repair")); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			after := replayAll(t, dir, 0)
			if len(after) != len(got)+1 || after[len(after)-1] != fmt.Sprintf("%d:post-repair", len(got)+1) {
				t.Fatalf("post-repair replay: %v", after[max(0, len(after)-2):])
			}
		})
	}
}

func TestDamagedMidLogDropsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 64, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 40)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := segments(OSFS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("want >= 3 segments, got %d", len(segs))
	}
	// Flip a byte in a middle segment: the valid prefix ends inside it,
	// and everything after — including whole later segments — is dropped
	// on reopen.
	mid := filepath.Join(dir, segName(segs[1]))
	data, err := os.ReadFile(mid)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(mid, data, 0o644); err != nil {
		t.Fatal(err)
	}

	got := replayAll(t, dir, 0)
	if len(got) == 0 || len(got) >= 40 {
		t.Fatalf("replayed %d frames, want a proper prefix", len(got))
	}
	l, err = Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(len(got) + 1); l.NextSeq() != want {
		t.Fatalf("NextSeq = %d, want %d", l.NextSeq(), want)
	}
	left, err := segments(OSFS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) >= len(segs) {
		t.Fatalf("reopen kept %d of %d segments despite mid-log damage", len(left), len(segs))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReopenAfterTruncate is the regression test for the checkpoint
// path: once TruncateBefore has removed the log's head, the earliest
// surviving segment starts past sequence 1, and reopening must treat
// that as the legitimate log start rather than as damage.
func TestReopenAfterTruncate(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 64, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 40)
	if err := l.TruncateBefore(26); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l, err = Open(dir, Options{SegmentBytes: 64, Sync: SyncNever})
	if err != nil {
		t.Fatalf("reopen after truncate: %v", err)
	}
	if l.NextSeq() != 41 {
		t.Fatalf("reopened NextSeq = %d, want 41", l.NextSeq())
	}
	appendN(t, l, 40, 5)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, dir, 26)
	if len(got) != 20 || got[0] != "26:record-0025" || got[19] != "45:record-0044" {
		t.Fatalf("replay after truncated reopen: %d frames, first %v", len(got), got[:min(len(got), 2)])
	}
}

// TestOpenFirstSeqReset covers the recovery reset: when a checkpoint is
// ahead of whatever survives in the log, Recover reopens with FirstSeq
// pinned past the checkpoint, discarding the stale log.
func TestOpenFirstSeqReset(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 10)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Checkpoint says seq 30 is durable; the surviving log only reaches
	// 10, so the whole log is stale and the new head starts at 31.
	l, err = Open(dir, Options{Sync: SyncNever, FirstSeq: 31})
	if err != nil {
		t.Fatal(err)
	}
	if l.NextSeq() != 31 {
		t.Fatalf("NextSeq = %d, want 31", l.NextSeq())
	}
	if seq, err := l.Append([]byte("fresh")); err != nil || seq != 31 {
		t.Fatalf("append after reset: seq %d, %v", seq, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, dir, 0)
	if len(got) != 1 || got[0] != "31:fresh" {
		t.Fatalf("replay after reset: %v", got)
	}
}

func TestSyncPolicyParsing(t *testing.T) {
	cases := []struct {
		in   string
		want SyncPolicy
		ok   bool
	}{
		{"always", SyncAlways, true},
		{"on", SyncAlways, true},
		{"off", SyncNever, true},
		{"never", SyncNever, true},
		{"64", SyncPolicy(64), true},
		{"1", SyncAlways, true},
		{"0", 0, false},
		{"-3", 0, false},
		{"sometimes", 0, false},
	}
	for _, tc := range cases {
		got, err := ParseSyncPolicy(tc.in)
		if tc.ok != (err == nil) || got != tc.want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
		if tc.ok {
			if back, err := ParseSyncPolicy(got.String()); err != nil || back != got {
				t.Errorf("policy %v round-trips to %v, %v", got, back, err)
			}
		}
	}
}

func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := segments(OSFS, dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s: %v", dir, err)
	}
	return filepath.Join(dir, segName(segs[len(segs)-1]))
}

// chopLastSegment removes the final n bytes of the newest segment,
// simulating a crash mid-write.
func chopLastSegment(t *testing.T, dir string, n int64) {
	t.Helper()
	path := lastSegment(t, dir)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, max(0, fi.Size()-n)); err != nil {
		t.Fatal(err)
	}
}

// flipByteInLastSegment XORs one byte at offset, simulating bit rot.
func flipByteInLastSegment(t *testing.T, dir string, offset int64) {
	t.Helper()
	path := lastSegment(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if offset >= int64(len(data)) {
		t.Fatalf("offset %d beyond segment size %d", offset, len(data))
	}
	data[offset] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkWALAppend measures append throughput under the three fsync
// policies the -fsync flag exposes (EXPERIMENTS.md records the spread).
func BenchmarkWALAppend(b *testing.B) {
	payload := bytes.Repeat([]byte("x"), 256)
	for _, tc := range []struct {
		name string
		sync SyncPolicy
	}{
		{"fsync=always", SyncAlways},
		{"fsync=64", SyncPolicy(64)},
		{"fsync=off", SyncNever},
	} {
		b.Run(tc.name, func(b *testing.B) {
			dir := b.TempDir()
			l, err := Open(dir, Options{SegmentBytes: 8 << 20, Sync: tc.sync})
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.Append(payload); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := l.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// TestScanOversizedLengthAllocatesNothing: a 20-byte segment whose
// header claims a maximal payload is a torn tail, found from the
// segment's size before any buffer is sized by the claimed length.
func TestScanOversizedLengthAllocatesNothing(t *testing.T) {
	dir := t.TempDir()
	seg := binary.LittleEndian.AppendUint32(nil, maxFrame)
	seg = binary.LittleEndian.AppendUint32(seg, 0)
	seg = append(seg, "twelve bytes"...)
	if err := os.WriteFile(filepath.Join(dir, segName(1)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := Replay(dir, 1, func(uint64, []byte) error { return fmt.Errorf("replayed a torn frame") }); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	defer l.Close()
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 64<<10 {
		t.Errorf("Replay + Open of a %d-byte segment allocated %d bytes", len(seg), alloc)
	}
	if next := l.NextSeq(); next != 1 {
		t.Errorf("NextSeq %d after repairing an empty log, want 1", next)
	}
}
