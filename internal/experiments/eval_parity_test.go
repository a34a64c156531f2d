package experiments

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/metrics"
)

// TestEvalParity asserts that Evaluate returns, at every worker count, what a
// serial loop over the test split returns when it ranks each case and takes
// metrics.Mean of the per-case scores: per case and in aggregate, bit for
// bit. It covers the trained model, which ranks on replicas, and two Nearest
// Queries baselines.
func TestEvalParity(t *testing.T) {
	s := testSuite(t)
	c, _ := s.Corpus(dataset.IMDB)
	m, _, err := s.Model(dataset.IMDB, s.Cfg.Base)
	if err != nil {
		t.Fatal(err)
	}
	rankers := []core.Ranker{m, s.Baseline(dataset.IMDB, "syntax", 3), s.Baseline(dataset.IMDB, "witness", 3)}
	for _, r := range rankers {
		var ndcg, p1, p3, p5 []float64
		for _, qi := range c.Test {
			for _, cs := range c.Queries[qi].Cases {
				pred := r.Rank(inputFor(c, qi, cs))
				ndcg = append(ndcg, metrics.NDCGAtK(pred, cs.Gold, 10))
				p1 = append(p1, metrics.PrecisionAtK(pred, cs.Gold, 1))
				p3 = append(p3, metrics.PrecisionAtK(pred, cs.Gold, 3))
				p5 = append(p5, metrics.PrecisionAtK(pred, cs.Gold, 5))
			}
		}
		for _, workers := range []int{1, 2, 4} {
			got := Evaluate(c, r, c.Test, 0, workers)
			if got.NumCases != len(ndcg) {
				t.Fatalf("%s workers=%d: %d cases, want %d", r.Name(), workers, got.NumCases, len(ndcg))
			}
			// Bitwise float equality intended: both sum in case order.
			if got.NDCG10 != metrics.Mean(ndcg) || got.P1 != metrics.Mean(p1) ||
				got.P3 != metrics.Mean(p3) || got.P5 != metrics.Mean(p5) {
				t.Fatalf("%s workers=%d: aggregate %v %v %v %v, serial loop %v %v %v %v", r.Name(), workers,
					got.NDCG10, got.P1, got.P3, got.P5, metrics.Mean(ndcg), metrics.Mean(p1), metrics.Mean(p3), metrics.Mean(p5))
			}
			for i, cs := range got.PerCase {
				if cs.NDCG10 != ndcg[i] || cs.P1 != p1[i] || cs.P3 != p3[i] || cs.P5 != p5[i] {
					t.Fatalf("%s workers=%d: case %d differs: %+v", r.Name(), workers, i, cs)
				}
			}
		}
	}
}
