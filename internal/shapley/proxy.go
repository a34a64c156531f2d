package shapley

import (
	"repro/internal/provenance"
)

// CNFProxy is the fast inexact ranker of the CNF-proxy baseline of Deutch et
// al.: it scores each fact by the number of derivations it appears in, the
// monomials of d that contain it. That is the ranking their clause-weighted
// heuristic gives on the Tseytin encoding of d, where only the clauses
// (¬a_j ∨ f), one per derivation j that holds f, have a fact positive. How
// long a fact's derivations are, and how they overlap, does not count, so the
// scores are not Shapley values; tied facts rank by ID (Values.Ranking).
func CNFProxy(d *provenance.DNF) Values {
	scores := make(Values)
	for _, m := range d.Monomials {
		for _, id := range m {
			scores[id]++
		}
	}
	return scores
}
