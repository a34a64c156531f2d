// Package approx provides amc, the sampling Shapley engine that corpus
// labeling falls back to for the lineages the exact engine (shapley.Exact)
// refuses.
//
// Exact labeling took the paper days on DBShap. Here the exact engine's
// decomposition tree labels every default-corpus lineage of up to 100 facts
// in well under a second, but its cost follows a lineage's structure rather
// than its size: labeling the 11 default Academic tuples past 100 facts
// exactly would stretch that corpus's build from 56–65 ms to 2.2–2.4 s on a
// 2-core host, and it refuses lineages past its node budget or of more than
// 512 facts (shapley.ErrBudget). The sampler covers those: it trades
// exactness for a cost linear in the lineage, whatever its structure:
//
//   - AMC: antithetic-variate Monte Carlo permutation sampling. For a
//     monotone provenance, a uniformly random permutation of the lineage
//     satisfies the formula for the first time at exactly one position — the
//     "pivot" fact — and the probability that fact f is the pivot IS its
//     Shapley value. The estimator counts pivots over N permutations, so it
//     is unbiased and sums to exactly 1 (efficiency holds by construction).
//     Each drawn permutation is paired with its reversal; the two pivot
//     positions are negatively correlated on monotone games, which cancels
//     part of the sampling variance at the same evaluation budget.
//
// The sampler never compiles the formula. It evaluates the raw DNF with
// incremental per-monomial missing-fact counters: walking a permutation costs
// O(Σ|m|) amortized, independent of how large the compiled tree would be, and
// works on lineages far beyond the exact engine's limits. The pivot the
// counter walk finds is property-tested against a pivot search by direct DNF
// evaluation.
//
// Determinism: every Label call derives all of its randomness from the seed
// argument alone — no package-level RNG, no time. Callers that label many
// lineages in parallel pre-derive one seed per lineage (DeriveSeed) so the
// corpus is bit-identical for every worker count.
package approx

import (
	"time"

	"repro/internal/obs"
	"repro/internal/provenance"
	"repro/internal/relation"
	"repro/internal/shapley"
)

// DefaultSamples is the per-lineage permutation budget corpus labeling gives
// the fallback sampler. Rank fidelity rises with the budget; the parity gate
// measures it at GateSamples, where amc holds Spearman >= 0.95 against the
// exact oracle on the golden lineages.
const DefaultSamples = 512

// DeriveSeed mixes a base seed with per-lineage coordinates (for corpus
// building: query ID and tuple index) into an independent engine seed via
// splitmix64 finalization steps. Labeling schedules pre-derive one seed per
// lineage on no goroutine in particular — the function is pure — which keeps
// parallel labeling bit-identical for every worker count.
func DeriveSeed(base uint64, parts ...uint64) uint64 {
	s := base
	for _, p := range parts {
		s = splitmix64(s + 0x9e3779b97f4a7c15 + p)
	}
	return splitmix64(s)
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// observe starts a metrics observation for one Label call and returns the
// closer that records it in the shapley.approx.* families, mirroring the
// shapley.exact.* convention. With no live registry the closer is a no-op.
func observe(samples int) func(lineage int, estVar float64) {
	reg := obs.Metrics()
	if reg == nil {
		return func(int, float64) {}
	}
	t0 := time.Now()
	return func(lineage int, estVar float64) {
		reg.Counter("shapley.approx.calls").Add(1)
		if samples > 0 {
			reg.Histogram("shapley.approx.samples", obs.ExpBuckets(1, 2, 14)).Observe(float64(samples))
		}
		if lineage > 0 {
			perFact := float64(time.Since(t0).Microseconds()) / float64(lineage)
			reg.Histogram("shapley.approx.us_per_fact", obs.ExpBuckets(0.01, 4, 14)).Observe(perFact)
		}
		if estVar >= 0 && samples > 0 {
			reg.Histogram("shapley.approx.est_variance", obs.ExpBuckets(1e-8, 10, 10)).Observe(estVar)
		}
	}
}

// lineageIndex assigns each lineage fact a dense player index. The lineage is
// sorted (provenance.DNF.Lineage), so indices are deterministic.
type lineageIndex struct {
	facts []relation.FactID
	pos   map[relation.FactID]int
}

func indexLineage(d *provenance.DNF) lineageIndex {
	facts := d.Lineage()
	pos := make(map[relation.FactID]int, len(facts))
	for i, id := range facts {
		pos[id] = i
	}
	return lineageIndex{facts: facts, pos: pos}
}

// zeroValues returns the all-zero value map over the lineage — the correct
// answer for constant provenance, where every fact is a null player.
func (li lineageIndex) zeroValues() shapley.Values {
	out := make(shapley.Values, len(li.facts))
	for _, id := range li.facts {
		out[id] = 0
	}
	return out
}

// meanEstVariance is the mean over facts of the per-fact pivot-frequency
// estimator variance p̂(1−p̂)/N — the number the shapley.approx.est_variance
// histogram tracks. For antithetic pairs it is conservative (it ignores the
// negative pair covariance), which is the safe direction for a monitor.
func meanEstVariance(counts []int, n int) float64 {
	if len(counts) == 0 || n == 0 {
		return 0
	}
	total := 0.0
	fn := float64(n)
	for _, c := range counts {
		p := float64(c) / fn
		total += p * (1 - p) / fn
	}
	return total / float64(len(counts))
}
