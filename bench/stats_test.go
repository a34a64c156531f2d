package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(n - i) // descending, so percentile must sort
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n, pct int
		want   float64
	}{
		{20, 50, 10},  // ceil(0.5·20) = 10; 10 samples beyond
		{21, 50, 11},  // ceil(10.5) = 11
		{100, 90, 90}, // exactly 10 beyond
		{110, 90, 99}, // ceil(99)
		{1000, 99, 990},
	} {
		got, ok := percentile(seq(c.n), c.pct)
		if !ok || got != c.want {
			t.Errorf("p%d of 1..%d = %v, %v; want %v", c.pct, c.n, got, ok, c.want)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct{ n, pct int }{{19, 50}, {99, 90}, {999, 99}, {0, 50}, {5, 1}} {
		if v, ok := percentile(seq(c.n), c.pct); ok {
			t.Errorf("p%d of %d samples reported %v; fewer than %d lie beyond it", c.pct, c.n, v, minBeyond)
		}
	}
	if _, ok := percentile(seq(11), 1); !ok {
		t.Error("p1 of 11 samples has 10 beyond it and must be reportable")
	}
}

func TestPercentileCountsFailuresAsInfinite(t *testing.T) {
	s := seq(100)
	for i := 0; i < 11; i++ {
		s[i] = math.Inf(1) // 11 failed requests
	}
	if v, ok := percentile(s, 90); !ok || !math.IsInf(v, 1) {
		t.Errorf("p90 with 11%% failures = %v, %v; want +Inf", v, ok)
	}
	if v, ok := percentile(s, 50); !ok || v != 50 {
		t.Errorf("p50 with 11%% failures = %v, %v; want 50", v, ok)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(data, n=4) in Python 3.
	for _, c := range []struct {
		data   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{3, 1}, 0.5, 3.5}, // Python extrapolates beyond two values
		{[]float64{0.5, 0.7, 0.9, 1.1, 2}, 0.6, 1.55},
	} {
		q1, q3 := quartiles(c.data)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.data, q1, q3, c.q1, c.q3)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median of 3 values = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 4 values = %v", m)
	}
}
