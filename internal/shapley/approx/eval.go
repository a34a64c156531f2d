package approx

import (
	"math"
	"sort"

	"repro/internal/metrics"
	"repro/internal/provenance"
	"repro/internal/relation"
	"repro/internal/shapley"
)

// GateSamples is the permutation budget at which the ci parity gate
// (TestSamplerOracleParityGate) holds amc to Spearman >= 0.95 against the
// exact oracle on every golden lineage. 48k permutations clear the bar with
// margin (min Spearman 0.96 over a 5-seed sweep on the worst lineage). They
// cost more than exact labeling there: on a 2-core host, amc at this budget
// takes 50–124 ms per golden lineage and exact 2–51 ms (124 ms against 51 ms
// on the largest, chain_tiers_266).
const GateSamples = 49152

// Accuracy summarizes a labeler's agreement with the exact oracle on one
// lineage: Spearman rank correlation with fractional tie ranks, the fraction
// of the oracle's top-k facts recovered in the estimate's top-k, and the mean
// absolute error of the values themselves.
type Accuracy struct {
	Spearman float64
	TopK     float64
	MAE      float64
}

// Score compares an estimate against the oracle values over the oracle's
// fact set, iterated in sorted fact order for determinism. k bounds the
// top-k agreement (capped at the lineage size).
func Score(est, gold shapley.Values, k int) Accuracy {
	ids := make([]relation.FactID, 0, len(gold))
	for id := range gold {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	xs := make([]float64, len(ids))
	ys := make([]float64, len(ids))
	mae := 0.0
	for i, id := range ids {
		xs[i] = gold[id]
		ys[i] = est[id]
		mae += math.Abs(gold[id] - est[id])
	}
	if len(ids) > 0 {
		mae /= float64(len(ids))
	}
	if k > len(ids) {
		k = len(ids)
	}
	topGold := gold.Ranking()
	topEst := est.Ranking()
	inGold := make(map[relation.FactID]bool, k)
	for _, id := range topGold[:k] {
		inGold[id] = true
	}
	hits := 0
	for _, id := range topEst[:min(k, len(topEst))] {
		if inGold[id] {
			hits++
		}
	}
	top := 0.0
	if k > 0 {
		top = float64(hits) / float64(k)
	}
	return Accuracy{Spearman: metrics.Spearman(xs, ys), TopK: top, MAE: mae}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// BenchLineage is one synthetic benchmark lineage: a provenance DNF sized
// and shaped like the join provenance the corpus generator emits but scaled
// to where exact labeling is expensive.
type BenchLineage struct {
	Name string
	DNF  *provenance.DNF
}

// Facts returns the lineage size.
func (b BenchLineage) Facts() int { return len(b.DNF.Lineage()) }

// BenchmarkLineages returns the deterministic golden lineage set shared by
// the accuracy tests and the ci parity gate. Every lineage's value profile
// supports a meaningful rank comparison (well-separated values, small
// symmetry tie blocks), so the gate asserts Spearman on all of them.
//
// The load-bearing design constraint is the Spearman gate. A permutation
// sampler estimates each value with stderr ~ sqrt(p/N), so any set of facts
// whose exact values sit within that noise band of each other is a near-tie
// cluster the estimate orders arbitrarily; Spearman loses ~c³/(2n³) per
// cluster of size c. Lineages built from graded hubs over *fresh* partner
// facts (the natural first attempt) put 80-90% of facts into one bottom
// cluster and cap Spearman near 0.7 at any affordable budget. The shapes
// below avoid that by construction: facts are grouped into a ladder
// of exact symmetry classes (complete bipartite/tripartite join blocks, one
// block per tier), so near-ties are confined to adjacent rungs — clusters of
// O(n/T) facts — and Spearman ≥ 0.95 is reachable at moderate budgets.
//
// The shapes, in increasing exact-labeling cost:
//
//   - bitier_130: ten disjoint complete-bipartite join blocks H_t × L_t with
//     (|H_t|, |L_t|) = (t, t+2), t = 1..10, i.e. block t's provenance is
//     (∃ hub)∧(∃ leaf) over its own fact sets. Twenty symmetry classes whose
//     values ladder from the near-critical (1,3) block down to the diffuse
//     (10,12) block. The primary rank-quality gate.
//   - tritier_105: the same ladder over complete *tripartite* blocks
//     A_t × B_t × C_t with sizes (t, t+1, t+2), t = 1..7 — width-3
//     derivations across three relations.
//   - chain_tiers_266: the bipartite ladder scaled to fourteen tiers
//     (t, t+4) and *entangled*: tier t's hubs also join the first few leaves
//     of tier t+1's pool, so the provenance no longer splits into
//     independent blocks and exact compilation must branch across tiers
//     (bounded: the overlap couples only adjacent tiers, unlike global
//     sharing). Still rank-gated: the overlap leaves just add more symmetry
//     classes to the ladder.
func BenchmarkLineages() []BenchLineage {
	var out []BenchLineage

	// bitier_130: disjoint blocks (t hubs) x (t+2 leaves), t = 1..10.
	{
		var ms []provenance.Monomial
		nh, nl := relation.FactID(0), relation.FactID(1000)
		for t := 1; t <= 10; t++ {
			for h := 0; h < t; h++ {
				for l := 0; l < t+2; l++ {
					ms = append(ms, provenance.NewMonomial(nh+relation.FactID(h), nl+relation.FactID(l)))
				}
			}
			nh += relation.FactID(t)
			nl += relation.FactID(t + 2)
		}
		out = append(out, BenchLineage{Name: "bitier_130", DNF: provenance.FromMonomials(ms...)})
	}

	// tritier_105: disjoint blocks (t) x (t+1) x (t+2), t = 1..7.
	{
		var ms []provenance.Monomial
		na, nb, nc := relation.FactID(0), relation.FactID(1000), relation.FactID(10000)
		for t := 1; t <= 7; t++ {
			for a := 0; a < t; a++ {
				for b := 0; b < t+1; b++ {
					for c := 0; c < t+2; c++ {
						ms = append(ms, provenance.NewMonomial(
							na+relation.FactID(a), nb+relation.FactID(b), nc+relation.FactID(c)))
					}
				}
			}
			na += relation.FactID(t)
			nb += relation.FactID(t + 1)
			nc += relation.FactID(t + 2)
		}
		out = append(out, BenchLineage{Name: "tritier_105", DNF: provenance.FromMonomials(ms...)})
	}

	// chain_tiers_266: blocks (t hubs) x (t+4 leaves), t = 1..14, where tier
	// t's hubs additionally join the first chainOverlap leaves of tier t+1.
	{
		const chainOverlap = 4
		var ms []provenance.Monomial
		nh, nl := relation.FactID(0), relation.FactID(1000)
		for t := 1; t <= 14; t++ {
			nextPool := nl + relation.FactID(t+4) // tier t+1's leaf band start
			for h := 0; h < t; h++ {
				hub := nh + relation.FactID(h)
				for l := 0; l < t+4; l++ {
					ms = append(ms, provenance.NewMonomial(hub, nl+relation.FactID(l)))
				}
				if t < 14 {
					for l := 0; l < chainOverlap; l++ {
						ms = append(ms, provenance.NewMonomial(hub, nextPool+relation.FactID(l)))
					}
				}
			}
			nh += relation.FactID(t)
			nl = nextPool
		}
		out = append(out, BenchLineage{Name: "chain_tiers_266", DNF: provenance.FromMonomials(ms...)})
	}
	return out
}
