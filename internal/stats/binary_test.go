package stats

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"
)

// TestWeightedBinaryRoundTrip: the binary form restores every mass and
// the stored total bitwise, leaves the bytes after it alone, and
// re-encodes to the same bytes and the same JSON.
func TestWeightedBinaryRoundTrip(t *testing.T) {
	var empty Weighted
	w := &Weighted{}
	for i := 1; i <= 500; i++ {
		w.Add(float64(i%7)*24+1, 0.1*float64(i))
		w.Add(168, 1.0/float64(i))
	}
	for _, in := range []*Weighted{&empty, w} {
		b := append(in.AppendBinary(nil), "tail"...)
		var back Weighted
		rest, err := back.DecodeBinary(b)
		if err != nil {
			t.Fatal(err)
		}
		if string(rest) != "tail" {
			t.Errorf("DecodeBinary left %q, want the tail", rest)
		}
		if back.Total() != in.Total() || back.Len() != in.Len() {
			t.Errorf("total %v len %d, want bitwise-equal %v len %d", back.Total(), back.Len(), in.Total(), in.Len())
		}
		if !bytes.Equal(back.AppendBinary(nil), b[:len(b)-4]) {
			t.Error("re-encoding is not byte-identical")
		}
		j1, _ := json.Marshal(in)
		j2, _ := json.Marshal(&back)
		if !bytes.Equal(j1, j2) {
			t.Errorf("decoded distribution marshals to %s, want %s", j2, j1)
		}
	}
}

func TestWeightedBinaryRejects(t *testing.T) {
	bucket := func(dst []byte, v, m float64) []byte {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(m))
	}
	total := func(dst []byte, f float64) []byte {
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
	}
	good := total(bucket(bucket([]byte{2}, 1, 2), 3, 4), 6)
	for name, b := range map[string][]byte{
		"empty input":    nil,
		"huge count":     binary.AppendUvarint(nil, 1<<40),
		"truncated":      good[:len(good)-1],
		"descending":     total(bucket(bucket([]byte{2}, 3, 2), 1, 4), 6),
		"repeated value": total(bucket(bucket([]byte{2}, 1, 2), 1, 4), 6),
		"NaN value":      total(bucket([]byte{1}, math.NaN(), 2), 2),
		"infinite mass":  total(bucket([]byte{1}, 1, math.Inf(1)), 2),
		"NaN total":      total(bucket([]byte{1}, 1, 2), math.NaN()),
	} {
		var w Weighted
		if _, err := w.DecodeBinary(b); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	var w Weighted
	if _, err := w.DecodeBinary(good); err != nil || w.Total() != 6 || w.MassOf(3) != 4 {
		t.Errorf("well-formed input: %v, total %v", err, w.Total())
	}
}

// TestWeightedAppendBinaryAllocs: encoding into a buffer with room
// allocates nothing, whatever the bucket count — shard checkpoints
// encode every probe's distribution into one reused buffer.
func TestWeightedAppendBinaryAllocs(t *testing.T) {
	w := &Weighted{}
	for i := 1; i <= 300; i++ {
		w.Add(float64((i*37)%211+1), float64(i))
	}
	buf := make([]byte, 0, 16*w.Len()+32)
	if allocs := testing.AllocsPerRun(20, func() { buf = w.AppendBinary(buf[:0]) }); allocs != 0 {
		t.Fatalf("AppendBinary allocated %.1f times per call, want 0", allocs)
	}
	var back Weighted
	if _, err := back.DecodeBinary(buf); err != nil {
		t.Fatalf("buckets out of order: %v", err)
	}
}
