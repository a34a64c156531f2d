package main

import (
	"strings"
	"testing"
)

func scaled(vs []float64, f, add float64) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = v*f + add
	}
	return out
}

func TestJudge(t *testing.T) {
	lower := metricDef{name: "p50_ms", better: "lower", bound: 0.1}
	higher := metricDef{name: "rps", better: "higher", bound: 0.1}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	wide := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	split := []float64{100, 100, 100, 100, 100, 130, 130, 130, 130, 130}
	for _, c := range []struct {
		name           string
		d              metricDef
		parent, change []float64
		want           string
	}{
		{"20% faster", lower, steady, scaled(steady, 0.8, 0), "improved"},
		{"1% slower", lower, steady, scaled(steady, 1, 1), "unchanged"},
		{"20% slower", lower, steady, scaled(steady, 1.2, 0), "regressed"},
		{"spread wider than the bound", lower, wide, scaled(wide, 1, 2), "unresolved"},
		{"every change run beats every parent run", lower, split, scaled(steady, 0, 99), "unchanged"},
		{"20% less throughput", higher, steady, scaled(steady, 0.8, 0), "regressed"},
		{"20% more throughput", higher, steady, scaled(steady, 1.2, 0), "improved"},
		{"8 of 10 wins", lower, steady, []float64{80, 80, 80, 80, 80, 80, 80, 80, 120, 120}, "unchanged"},
	} {
		if got := judge(c.d, c.parent, c.change); got.verdict != c.want {
			t.Errorf("%s: %s (wins %d, IQR %v), want %s", c.name, got.verdict, got.wins, got.iqr, c.want)
		}
	}
}

func records(n, failed int) []result {
	var out []result
	for i := 0; i < n; i++ {
		m := map[string]float64{}
		for _, d := range endToEnd {
			m[d.name] = 1
		}
		out = append(out, result{Workload: "rank_long", Attempted: 100, Metrics: m})
	}
	out[0].Failed = failed
	return out
}

func TestCompareNeedsTenPairs(t *testing.T) {
	if _, err := compare(records(10, 0), records(9, 0)); err == nil || !strings.Contains(err.Error(), "9 run pairs") {
		t.Errorf("9 pairs: error %v", err)
	}
	rows, err := compare(records(10, 0), records(10, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(endToEnd)+1 {
		t.Fatalf("%d rows, want one per end-to-end metric plus fail_ratio", len(rows))
	}
	for _, r := range rows {
		want := "unchanged"
		if r.metric == "fail_ratio" {
			want = "regressed"
		}
		if r.verdict != want {
			t.Errorf("%s: %s, want %s", r.metric, r.verdict, want)
		}
	}
}
