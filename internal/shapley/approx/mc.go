package approx

import (
	"fmt"
	"math/rand"

	"repro/internal/provenance"
	"repro/internal/shapley"
)

// MC is the antithetic Monte Carlo permutation sampler ("amc"): it draws
// (Samples+1)/2 uniformly random permutations of the lineage and walks each
// one together with its reversal, crediting the pivot fact of each walk (the
// fact whose arrival first satisfies the provenance) with one count. The
// reversal is itself a uniform permutation, and on monotone games its pivot
// is negatively correlated with the forward one, reducing estimator variance
// without extra evaluations.
type MC struct {
	Samples int
	// Deprecated: Antithetic is ignored; every MC draws antithetic pairs.
	Antithetic bool
}

// Label estimates the Shapley value of every fact of d.Lineage() from
// Samples permutations. All of its randomness comes from seed, so a fixed
// (formula, seed) pair yields bit-identical values on every call, and it is
// safe for concurrent use. It fails only when Samples is below 1.
func (m MC) Label(d *provenance.DNF, seed uint64) (shapley.Values, error) {
	if m.Samples < 1 {
		return nil, fmt.Errorf("approx: MC.Samples is %d, want at least 1", m.Samples)
	}
	li := indexLineage(d)
	done := observe(m.Samples)
	if len(li.facts) == 0 || d.IsTrue() {
		done(len(li.facts), 0)
		return li.zeroValues(), nil
	}
	g := newGame(d, li)
	rng := rand.New(rand.NewSource(int64(seed)))
	n := len(li.facts)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	counts := make([]int, n)
	evaluated := 0
	pairs := (m.Samples + 1) / 2
	for s := 0; s < pairs; s++ {
		shuffle(rng, perm)
		counts[g.pivotForward(perm)]++
		counts[g.pivotReverse(perm)]++
		evaluated += 2
	}
	done(n, meanEstVariance(counts, evaluated))
	return countsToValues(li, counts, evaluated), nil
}

// countsToValues turns pivot counts over n evaluated permutations into the
// frequency estimate. The counts sum to n, so the values sum to exactly 1 —
// the efficiency axiom holds by construction for every budget.
func countsToValues(li lineageIndex, counts []int, n int) shapley.Values {
	out := make(shapley.Values, len(li.facts))
	for i, id := range li.facts {
		out[id] = float64(counts[i]) / float64(n)
	}
	return out
}

// shuffle is an in-place Fisher–Yates over whatever order the slice is
// already in; the result is uniform regardless of the starting order, so the
// permutation buffer is reused across samples without re-initialization.
func shuffle(rng *rand.Rand, perm []int) {
	for i := len(perm) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
}

// game evaluates pivot positions of permutations over a fixed DNF with
// incremental per-monomial missing-fact counters: need[j] is the number of
// facts of monomial j not yet present. Adding a fact decrements the counters
// of the monomials containing it; the first decrement to zero marks the
// pivot. A full walk costs O(Σ|monomial|) amortized — independent of lineage
// size and of how large the compiled circuit would be — and the walk stops at
// the pivot, so skewed lineages (hub facts early) cost far less.
type game struct {
	occ  [][]int32 // player index -> indices of monomials containing it
	size []int32   // monomial -> |monomial|
	need []int32   // monomial -> facts still missing (scratch, reset per walk)
}

func newGame(d *provenance.DNF, li lineageIndex) *game {
	g := &game{
		occ:  make([][]int32, len(li.facts)),
		size: make([]int32, len(d.Monomials)),
		need: make([]int32, len(d.Monomials)),
	}
	for j, m := range d.Monomials {
		g.size[j] = int32(len(m))
		for _, id := range m {
			p := li.pos[id]
			g.occ[p] = append(g.occ[p], int32(j))
		}
	}
	return g
}

// pivotForward returns the player whose arrival first satisfies the formula
// when the permutation is walked front to back. The full lineage satisfies
// any non-constant monotone DNF, so a pivot always exists.
func (g *game) pivotForward(perm []int) int {
	copy(g.need, g.size)
	for _, player := range perm {
		for _, j := range g.occ[player] {
			g.need[j]--
			if g.need[j] == 0 {
				return player
			}
		}
	}
	// Unreachable for satisfiable non-constant provenance; make the
	// impossible loud rather than silent.
	panic("approx: permutation exhausted without satisfying the provenance")
}

// pivotReverse is pivotForward over the reversed permutation, walked in
// place so the antithetic pair shares one buffer.
func (g *game) pivotReverse(perm []int) int {
	copy(g.need, g.size)
	for p := 0; p < len(perm); p++ {
		player := perm[len(perm)-1-p]
		for _, j := range g.occ[player] {
			g.need[j]--
			if g.need[j] == 0 {
				return player
			}
		}
	}
	panic("approx: permutation exhausted without satisfying the provenance")
}
