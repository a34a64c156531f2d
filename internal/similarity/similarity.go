// Package similarity implements the three query-similarity notions of the
// paper: syntax-based (Jaccard over operation sets), witness-based (Jaccard
// over result sets) and the novel rank-based similarity (maximum-weight
// alignment of output tuples by the similarity of their fact-contribution
// rankings).
package similarity

import (
	"cmp"
	"slices"

	"repro/internal/hungarian"
	"repro/internal/relation"
	"repro/internal/shapley"
	"repro/internal/sqlparse"
)

// Syntax computes sim_s(q, q'): the Jaccard similarity of the queries'
// operation sets (projections, selections, equi-joins). Section 2.3.
func Syntax(a, b *sqlparse.Query) float64 {
	opsA, opsB := sqlparse.Operations(a), sqlparse.Operations(b)
	setB := make(map[sqlparse.Operation]bool, len(opsB))
	for _, op := range opsB {
		setB[op] = true
	}
	inter := 0
	for _, op := range opsA {
		if setB[op] {
			inter++
		}
	}
	union := len(opsA) + len(opsB) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// Witness computes sim_w(q, q'): the Jaccard similarity of the queries'
// witness (output tuple) sets, given as canonical tuple-key sets. Section 2.3.
func Witness(a, b map[string]bool) float64 {
	inter := 0
	for k := range a {
		if b[k] {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// KendallTau computes the normalized Kendall tau distance between two fact
// rankings given as Shapley-score maps. Facts absent from a map have score 0.
//
// The rankings are partial (each tuple only ranks its own lineage), so the
// distance follows Fagin et al.'s K^(p) with penalty p = 1/2: a pair ordered
// strictly and oppositely by the two rankings costs 1; a pair strictly
// ordered by one ranking but tied in the other costs 1/2; a pair tied in both
// costs 0. The sum is normalized by C(u,2) where u is the number of facts
// scored by either ranking, so the distance lies in [0,1] with 0 for
// identical rankings.
func KendallTau(s1, s2 shapley.Values) float64 {
	facts := make([]scoredFact, 0, len(s1)+len(s2))
	for id, v := range s1 {
		facts = append(facts, scoredFact{id: id, s1: v, s2: s2[id]})
	}
	for id, v := range s2 {
		if _, ok := s1[id]; !ok {
			facts = append(facts, scoredFact{id: id, s2: v})
		}
	}
	u := len(facts)
	if u < 2 {
		return 0
	}
	slices.SortFunc(facts, func(a, b scoredFact) int { return cmp.Compare(a.id, b.id) })
	total := 0.0
	for i, fi := range facts {
		for _, fj := range facts[i+1:] {
			d1 := fi.s1 - fj.s1
			d2 := fi.s2 - fj.s2
			switch {
			case d1*d2 < 0:
				total += 1
			case (d1 == 0) != (d2 == 0):
				total += 0.5
			}
		}
	}
	pairs := float64(u) * float64(u-1) / 2
	return total / pairs
}

// scoredFact is one fact of KendallTau's universe with its score in each
// ranking, looked up once instead of once per pair.
type scoredFact struct {
	id     relation.FactID
	s1, s2 float64
}

// TupleRanking carries, for one output tuple of a query, the Shapley scores
// of its contributing facts — the ranking rank_t(D,q) of Section 3.2.
type TupleRanking struct {
	TupleKey string
	Scores   shapley.Values
}

// RankBased computes sim_r(q, q'): build the complete bipartite graph over
// the two queries' output tuples with edge weight
//
//	w(t_i, t'_j) = 1 - K_τ(rank_{t_i}, rank_{t'_j}),
//
// find a maximum-weight matching M (Hungarian algorithm), and return
//
//	Σ_{e∈M} w(e) / (|q(D)| + |q'(D)| - |M|).
//
// Only strictly positive edges participate in M. Section 3.2.
func RankBased(a, b []TupleRanking) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	w := make([][]float64, len(a))
	for i := range a {
		w[i] = make([]float64, len(b))
		for j := range b {
			w[i][j] = 1 - KendallTau(a[i].Scores, b[j].Scores)
		}
	}
	match, total := hungarian.MaxWeightMatching(w)
	size := 0
	for _, j := range match {
		if j >= 0 {
			size++
		}
	}
	denom := len(a) + len(b) - size
	if denom == 0 {
		return 0
	}
	return total / float64(denom)
}
