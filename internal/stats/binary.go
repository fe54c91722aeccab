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
// state.
func (w *Weighted) AppendBinary(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(w.mass)))
	if len(w.mass) > 0 {
		for _, v := range w.Values() {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(w.mass[v]))
		}
	}
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(w.total))
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
