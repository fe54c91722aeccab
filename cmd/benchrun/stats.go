package main

import (
	"math"
	"sort"
)

// quantile is the q-quantile of xs by linear interpolation between
// closest ranks (NumPy's default); NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentile picks the highest of p99, p95 and p90 that leaves at
// least ten samples beyond it; 0 when even p90 does not.
func tailPercentile(n int) int {
	for _, p := range []int{99, 95, 90} {
		if float64(n)*float64(100-p)/100 >= 10 {
			return p
		}
	}
	return 0
}

// quartiles returns the first and third quartiles with the
// "exclusive" method of Python's statistics.quantiles(n=4), the spread
// estimator the benchmark's acceptance rule is written against.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return math.NaN(), math.NaN()
	}
	at := func(i int) float64 { // statistics.quantiles(n=4), method="exclusive"
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}
