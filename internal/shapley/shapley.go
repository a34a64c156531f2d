// Package shapley computes Shapley values of database facts with respect to
// query answers, given the boolean provenance of an output tuple.
//
// The Shapley value of fact f for output tuple t of query q is
//
//	Shapley(D,q,t,f) = Σ_{E ⊆ D\{f}} |E|!(|D|-|E|-1)!/|D|! · (q_t(E∪{f}) - q_t(E))
//
// Because facts outside Lineage(D,q,t) are null players and the Shapley value
// is invariant under removing null players, the package computes the value of
// every lineage fact in the restricted game over the lineage only — exactly
// the convention the paper uses in Example 2.2.
//
// Three algorithms are provided:
//
//   - BruteForce: subset enumeration, exponential, the testing oracle.
//   - Exact: knowledge compilation of the provenance DNF into a decomposition
//     tree — independent AND and OR nodes over disjoint facts, and Shannon
//     nodes only where the formula does not split — followed by one upward
//     and one adjoint pass that yield every fact's exact value. This is the
//     exact algorithm family of Deutch et al. used to label DBShap, with the
//     decomposable nodes that keep the compiled circuits small.
//   - CNFProxy: the fast inexact ranker of the paper's CNF-proxy baseline,
//     which scores each fact by the number of derivations it appears in.
package shapley

import (
	"fmt"
	"sort"

	"repro/internal/provenance"
	"repro/internal/relation"
)

// Values maps each lineage fact to its Shapley value.
type Values map[relation.FactID]float64

// Ranking returns the lineage facts ordered by decreasing Shapley value,
// breaking ties by fact ID for determinism.
func (v Values) Ranking() []relation.FactID {
	out := make([]relation.FactID, 0, len(v))
	for id := range v {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool {
		if v[out[i]] != v[out[j]] {
			return v[out[i]] > v[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}

// Sum returns the total of all values. By the efficiency axiom this equals
// q_t(D) - q_t(∅), i.e. 1 for any derivable tuple (and 0 for constant-true
// provenance, which has no contributing facts).
func (v Values) Sum() float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// maxBruteForceVars bounds BruteForce's 2^n enumeration.
const maxBruteForceVars = 22

// BruteForce computes exact Shapley values by enumerating all subsets of the
// lineage. It fails for lineages of more than 22 facts.
func BruteForce(d *provenance.DNF) (Values, error) {
	lineage := d.Lineage()
	n := len(lineage)
	if n > maxBruteForceVars {
		return nil, fmt.Errorf("shapley: brute force limited to %d facts, lineage has %d", maxBruteForceVars, n)
	}
	if n == 0 {
		return Values{}, nil
	}
	idx := make(map[relation.FactID]int, n)
	for i, id := range lineage {
		idx[id] = i
	}
	// Precompute F over every subset.
	sat := make([]bool, 1<<uint(n))
	for mask := range sat {
		m := uint32(mask)
		sat[mask] = d.Eval(func(id relation.FactID) bool {
			return m&(1<<uint(idx[id])) != 0
		})
	}
	// Shapley weight for coalition size k among n players: 1/(n·C(n-1,k)).
	w := make([]float64, n)
	for k := 0; k < n; k++ {
		w[k] = 1.0 / (float64(n) * binom(n-1, k))
	}
	out := make(Values, n)
	for i, id := range lineage {
		bit := 1 << uint(i)
		total := 0.0
		for mask := 0; mask < len(sat); mask++ {
			if mask&bit != 0 {
				continue
			}
			if sat[mask|bit] && !sat[mask] {
				total += w[popcount(mask)]
			}
		}
		out[id] = total
	}
	return out, nil
}

func popcount(x int) int {
	c := 0
	for x != 0 {
		x &= x - 1
		c++
	}
	return c
}

// binom returns C(n,k) as float64 via the multiplicative formula; exact for
// the sizes BruteForce uses.
func binom(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	r := 1.0
	for i := 1; i <= k; i++ {
		r = r * float64(n-k+i) / float64(i)
	}
	return r
}
