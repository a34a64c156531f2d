// Package approx provides the approximate Shapley labeling engine behind a
// common Labeler interface that the exact knowledge-compilation algorithm
// also implements.
//
// Exact labeling is the offline bottleneck of the whole pipeline: compiling
// the provenance DNF into a d-DNNF circuit took the paper days on DBShap, and
// it is what caps the training-corpus size. The sampler here trades
// exactness for one to three orders of magnitude of labeling speed:
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
// Coalition evaluation deliberately does NOT go through circuit compilation:
// a CPU profile of shapley.Exact on the golden lineages spends about 86% of
// its time in provenance.DNF.Minimize's pairwise absorption (58% flat in
// Monomial.SubsetOf) and only about 10% hashing canonical keys (DNF.Key), so
// a sampler that compiled first would inherit the bottleneck it exists to
// avoid. Instead the sampler evaluates the raw DNF with incremental
// per-monomial missing-fact counters: walking a permutation costs O(Σ|m|)
// amortized, independent of how large the compiled circuit would have been,
// and works on lineages far beyond the exact engine's 512-variable limit.
// Circuit.Eval remains the differential-testing oracle: the pivot found by
// the counter walk is property-tested against a pivot search over the
// compiled circuit (and Circuit.Eval itself against direct DNF evaluation).
//
// Determinism: every Label call derives all of its randomness from the seed
// argument alone — no package-level RNG, no time. Callers that label many
// lineages in parallel pre-derive one seed per lineage (DeriveSeed) so the
// corpus is bit-identical for every worker count.
package approx

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/provenance"
	"repro/internal/relation"
	"repro/internal/shapley"
)

// Labeler computes (exact or approximate) Shapley values for every fact in
// the lineage of a provenance DNF. Implementations must be stateless after
// construction: Label must be safe for concurrent use and must derive all
// randomness from the seed argument, so that a fixed (formula, seed) pair
// yields bit-identical values on every call.
type Labeler interface {
	// Name returns the engine's registry name ("exact" or "amc").
	Name() string
	// Label returns a Values map covering exactly the facts of d.Lineage().
	Label(d *provenance.DNF, seed uint64) (shapley.Values, error)
}

// Names lists the engines Parse accepts, exact first.
func Names() []string { return []string{"exact", "amc"} }

// DefaultSamples is the per-lineage permutation budget used when Parse gets
// no positive budget — the corpus-labeling speed default. Rank fidelity
// rises with the budget; the parity gate measures it at GateSamples, where
// amc holds Spearman >= 0.95 against the exact oracle on the golden
// lineages.
const DefaultSamples = 512

// Parse builds the named engine. samples is the permutation budget per
// lineage for amc; <= 0 selects DefaultSamples. Unknown names list the valid
// ones.
func Parse(name string, samples int) (Labeler, error) {
	if samples <= 0 {
		samples = DefaultSamples
	}
	switch name {
	case "", "exact":
		return Exact{}, nil
	case "amc":
		return MC{Samples: samples}, nil
	default:
		return nil, fmt.Errorf("approx: unknown labeler %q (valid: exact, amc)", name)
	}
}

// Exact adapts the knowledge-compilation algorithm (shapley.Exact) to the
// Labeler interface. The seed is ignored; the result is exact.
type Exact struct{}

// Name implements Labeler.
func (Exact) Name() string { return "exact" }

// Label implements Labeler via d-DNNF compilation. It inherits the exact
// engine's lineage-size limit and returns its error beyond it — the signal
// corpus building uses to fall back to a sampler.
func (Exact) Label(d *provenance.DNF, _ uint64) (shapley.Values, error) {
	done := observe("exact", 0)
	vals, _, err := shapley.Exact(d)
	if err != nil {
		return nil, err
	}
	done(len(vals), 0)
	return vals, nil
}

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
// closer that records it. Both engines fund the same shapley.approx.*
// families plus a per-engine call counter, mirroring the shapley.exact.*
// convention. With no live registry the closer is a no-op.
func observe(name string, samples int) func(lineage int, estVar float64) {
	reg := obs.Metrics()
	if reg == nil {
		return func(int, float64) {}
	}
	t0 := time.Now()
	return func(lineage int, estVar float64) {
		reg.Counter("shapley.approx.calls").Add(1)
		reg.Counter("shapley.approx." + name + ".calls").Add(1)
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
