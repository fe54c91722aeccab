package cluster

import (
	"bytes"
	"fmt"
	"testing"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/stream"
	"dynaddr/internal/wire"
)

// FuzzSplitBinary holds splitBinary to two properties on any batch and
// any assignment of partitions to owners: the per-owner sub-batches,
// walked in order, re-concatenate to the input's valid frames byte for
// byte, and every frame lands on the owner of its probe's partition.
func FuzzSplitBinary(f *testing.F) {
	var w wire.BatchWriter
	for probe := atlasdata.ProbeID(1); probe <= 8; probe++ {
		if err := w.Uptime(atlasdata.UptimeRecord{Probe: probe, Timestamp: 3600, Uptime: 60}); err != nil {
			f.Fatal(err)
		}
		if err := w.KRoot(atlasdata.KRootRound{Probe: probe, Timestamp: 7200, Sent: 3, Success: 3, LTS: 40}); err != nil {
			f.Fatal(err)
		}
	}
	valid := bytes.Clone(w.Bytes())
	badCRC := bytes.Clone(valid)
	badCRC[wire.FrameHeaderSize+2] ^= 0xff
	f.Add(valid, uint8(12), uint8(3))
	f.Add(valid[:len(valid)-3], uint8(4), uint8(2)) // torn final frame
	f.Add(badCRC, uint8(8), uint8(5))
	f.Add(wire.AppendFrame(bytes.Clone(valid), []byte{0xff, 3, 0, 0, 0}), uint8(1), uint8(1)) // unknown kind
	f.Add([]byte{}, uint8(3), uint8(3))
	f.Fuzz(checkSplitBinary)
}

// checkSplitBinary is FuzzSplitBinary's check of one input: total
// partitions spread over peers owners.
func checkSplitBinary(t *testing.T, body []byte, total, peers uint8) {
	n, p := 1+int(total)%16, 1+int(peers)%8
	assign := make([]string, n)
	for i := range assign {
		assign[i] = fmt.Sprintf("peer-%d", (i*5+int(peers))%p)
	}
	split, owners, order, err := splitBinary(body, assign)

	// The input's valid frames: those before the first corrupt one.
	it := wire.Frames(body)
	var frames int
	for {
		_, done, ferr := it.Next()
		if done || ferr != nil {
			if (ferr != nil) != (err != nil) {
				t.Fatalf("splitBinary error %v, frame iterator %v", err, ferr)
			}
			break
		}
		frames++
	}
	if len(order) != frames {
		t.Fatalf("order has %d frames, the input %d valid ones", len(order), frames)
	}

	var joined []byte
	rest := make(map[string]wire.FrameIter, len(split))
	walked := make(map[string]int, len(split))
	for i, idx := range order {
		owner := owners[idx]
		sub, buf := rest[owner], split[owner].buf.Bytes()
		if walked[owner] == 0 {
			sub = wire.Frames(buf)
		}
		from := sub.Offset()
		payload, done, ferr := sub.Next()
		if done || ferr != nil {
			t.Fatalf("frame %d: owner %s's sub-batch has no frame left (%v)", i, owner, ferr)
		}
		rest[owner] = sub
		walked[owner]++
		probe, _ := wire.PayloadProbe(payload)
		if want := assign[stream.PartitionOf(probe, n)]; owner != want {
			t.Fatalf("frame %d, probe %d: sent to %s, its partition's owner is %s", i, probe, owner, want)
		}
		joined = append(joined, buf[from:sub.Offset()]...)
	}
	for id, sb := range split {
		sub := rest[id]
		if walked[id] != sb.records || sub.Offset() != sb.buf.Len() {
			t.Fatalf("owner %s's sub-batch: %d records in %d bytes, order walks %d frames in %d bytes",
				id, sb.records, sb.buf.Len(), walked[id], sub.Offset())
		}
	}
	if !bytes.Equal(joined, body[:it.Offset()]) {
		t.Fatalf("sub-batches re-concatenate to %d bytes, the input's valid frames are %d", len(joined), it.Offset())
	}
}
