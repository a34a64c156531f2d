package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: with fewer, the value is decided by a handful of requests.
const minBeyond = 10

// percentile returns the nearest-rank pct-th percentile (0 < pct < 100) of
// the samples: the smallest sample that at least pct% of all samples are at or
// below. Failed operations enter as +Inf, so they count as missing any
// latency limit. ok is false when fewer than minBeyond samples lie beyond the
// chosen rank; the value is then not reportable.
func percentile(samples []float64, pct int) (float64, bool) {
	n := len(samples)
	rank := (pct*n + 99) / 100 // ceil(pct·n/100), 1-based
	if rank < 1 || n-rank < minBeyond {
		return 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank-1], true
}

// median is the middle of the values (the mean of the two middle ones for an
// even count), as Python's statistics.median computes it.
func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile with the interpolation of
// Python's statistics.quantiles(values, n=4) (method "exclusive"), the rule
// the spread of repeated runs is judged by. It needs at least two values.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// mean is the arithmetic mean; NaN for no values.
func mean(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}
