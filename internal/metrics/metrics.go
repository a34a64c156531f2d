// Package metrics implements the ranked-list evaluation measures of
// Section 5.2 — NDCG@k with graded (Shapley) relevance and precision@k — plus
// the regression and correlation statistics used by the analyses.
package metrics

import (
	"math"
	"sort"

	"repro/internal/relation"
	"repro/internal/shapley"
)

// rankFacts orders facts by decreasing score, ties broken by fact ID so every
// metric is deterministic.
func rankFacts(scores shapley.Values) []relation.FactID {
	return scores.Ranking()
}

// NDCGAtK compares a predicted ranking against gold Shapley values using the
// normalized discounted cumulative gain at cutoff k: the gold Shapley value
// of the fact placed at position i earns gain gold(f_i)/log2(i+1), and the
// total is normalized by the ideal (gold-ordered) DCG. Returns 1 for a
// perfect ranking. If the gold values are all zero (nothing to rank), the
// metric is defined as 1.
func NDCGAtK(predicted, gold shapley.Values, k int) float64 {
	predOrder := rankFacts(predicted)
	goldOrder := rankFacts(gold)
	dcg := dcgAtK(predOrder, gold, k)
	idcg := dcgAtK(goldOrder, gold, k)
	if idcg == 0 {
		return 1
	}
	return dcg / idcg
}

func dcgAtK(order []relation.FactID, gold shapley.Values, k int) float64 {
	total := 0.0
	for i, id := range order {
		if i >= k {
			break
		}
		total += gold[id] / math.Log2(float64(i)+2)
	}
	return total
}

// PrecisionAtK returns |top-k(predicted) ∩ top-k(gold)| / k: the fraction of
// the predicted top-k facts that belong to the gold top-k. Lists shorter than
// k are evaluated at their length.
func PrecisionAtK(predicted, gold shapley.Values, k int) float64 {
	if k <= 0 {
		return 0
	}
	n := len(gold)
	if n == 0 {
		return 1
	}
	eff := k
	if n < eff {
		eff = n
	}
	goldTop := make(map[relation.FactID]bool, eff)
	for i, id := range rankFacts(gold) {
		if i >= eff {
			break
		}
		goldTop[id] = true
	}
	hits := 0
	for i, id := range rankFacts(predicted) {
		if i >= eff {
			break
		}
		if goldTop[id] {
			hits++
		}
	}
	return float64(hits) / float64(eff)
}

// MSE returns the mean squared error between predicted and gold values over
// the union of their keys (missing entries count as 0).
func MSE(predicted, gold shapley.Values) float64 {
	keys := make(map[relation.FactID]bool, len(predicted)+len(gold))
	for id := range predicted {
		keys[id] = true
	}
	for id := range gold {
		keys[id] = true
	}
	if len(keys) == 0 {
		return 0
	}
	total := 0.0
	for id := range keys {
		d := predicted[id] - gold[id]
		total += d * d
	}
	return total / float64(len(keys))
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total / float64(len(xs))
}

// Pearson returns the Pearson correlation coefficient of two equal-length
// series, or 0 when either series is constant or empty.
func Pearson(xs, ys []float64) float64 {
	n := len(xs)
	if n == 0 || n != len(ys) {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Spearman returns the Spearman rank correlation coefficient of two
// equal-length series: the Pearson correlation of their rank vectors, with
// ties assigned fractional (average) ranks. Returns 0 when either series is
// constant or empty. Used by the sampler-vs-exact parity gate, where the
// question is "does the approximate labeler order facts like the exact one"
// — rank correlation, not value agreement.
func Spearman(xs, ys []float64) float64 {
	if len(xs) == 0 || len(xs) != len(ys) {
		return 0
	}
	return Pearson(fractionalRanks(xs), fractionalRanks(ys))
}

// fractionalRanks maps each value to its 1-based rank in ascending order,
// averaging the ranks of tied values.
func fractionalRanks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		// Positions i..j (0-based) are tied; average their 1-based ranks.
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}

// LinearTrend fits y = a + b·x by least squares and returns the slope b
// (0 for degenerate input). Used for the trendline of Figure 9a.
func LinearTrend(xs, ys []float64) float64 {
	n := len(xs)
	if n == 0 || n != len(ys) {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx float64
	for i := range xs {
		sxy += (xs[i] - mx) * (ys[i] - my)
		sxx += (xs[i] - mx) * (xs[i] - mx)
	}
	if sxx == 0 {
		return 0
	}
	return sxy / sxx
}

// Percentile returns the p-th percentile (0..100) of xs by nearest-rank on a
// sorted copy; 0 for empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}
