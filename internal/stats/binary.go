package stats

import (
	"encoding/binary"
	"fmt"
	"math"
)

// AppendBinary appends w's exact binary form to dst: a uvarint bucket
// count, then each bucket's value and mass as little-endian float64
// bits (values ascending), then the stored total's bits. Like
// MarshalJSON it loses nothing, so DecodeBinary restores bitwise-equal
// state. The buckets are sorted in place in dst, so the only allocation
// is dst's own growth.
func (w *Weighted) AppendBinary(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(w.mass)))
	start := len(dst)
	for v, m := range w.mass {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(m))
	}
	sortBuckets(dst[start:])
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(w.total))
}

// sortBuckets heapsorts b's 16-byte (value, mass) records by value.
func sortBuckets(b []byte) {
	n := len(b) / 16
	value := func(i int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b[16*i:])) }
	swap := func(i, j int) {
		var t [16]byte
		copy(t[:], b[16*i:16*i+16])
		copy(b[16*i:16*i+16], b[16*j:16*j+16])
		copy(b[16*j:16*j+16], t[:])
	}
	down := func(i, n int) {
		for {
			c := 2*i + 1
			if c >= n {
				return
			}
			if c+1 < n && value(c+1) > value(c) {
				c++
			}
			if value(i) >= value(c) {
				return
			}
			swap(i, c)
			i = c
		}
	}
	for i := n/2 - 1; i >= 0; i-- {
		down(i, n)
	}
	for end := n - 1; end > 0; end-- {
		swap(0, end)
		down(0, end)
	}
}

// DecodeBinary replaces w with the distribution AppendBinary wrote at
// the start of b and returns the bytes after it. The stored total is
// restored verbatim, as UnmarshalJSON does. Values must be strictly
// ascending and every float finite (JSON cannot carry anything else);
// the bucket count is checked against the bytes left before anything
// is allocated.
func (w *Weighted) DecodeBinary(b []byte) ([]byte, error) {
	n, k := binary.Uvarint(b)
	if k <= 0 {
		return nil, fmt.Errorf("stats: weighted distribution: bad bucket count")
	}
	b = b[k:]
	if n > uint64(len(b)/16) {
		return nil, fmt.Errorf("stats: weighted distribution: %d buckets in %d bytes", n, len(b))
	}
	if len(b) < int(n)*16+8 {
		return nil, fmt.Errorf("stats: weighted distribution: truncated")
	}
	float := func(i int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b[i:])) }
	w.mass = nil
	if n > 0 {
		w.mass = make(map[float64]float64, n)
	}
	for i := 0; i < int(n); i++ {
		v, m := float(16*i), float(16*i+8)
		if i > 0 && !(v > float(16*(i-1))) {
			return nil, fmt.Errorf("stats: weighted distribution: values not strictly ascending at bucket %d", i)
		}
		if !finite(v) || !finite(m) {
			return nil, fmt.Errorf("stats: weighted distribution: non-finite bucket %d", i)
		}
		w.mass[v] = m
	}
	w.total = float(16 * int(n))
	if !finite(w.total) {
		return nil, fmt.Errorf("stats: weighted distribution: non-finite total")
	}
	return b[16*int(n)+8:], nil
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }
