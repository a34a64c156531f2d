package approx

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/provenance"
	"repro/internal/relation"
)

// TestShapleyAxiomsEveryEngine checks the Shapley axioms on both engines,
// over random monotone DNFs plus hand-built cases with absorbed
// monomials and symmetric facts:
//
//   - efficiency: the values sum to 1;
//   - null player: a fact that appears only in absorbed monomials (so in no
//     monomial of the minimized formula) scores exactly 0;
//   - symmetry: facts that swap the minimized formula onto itself score the
//     same — exactly up to rounding for exact, within 0.04 for amc at 40,000
//     samples (twice the per-fact tolerance of TestSamplersConvergeToExact);
//   - non-negativity: a monotone game has no negative contributions.
func TestShapleyAxiomsEveryEngine(t *testing.T) {
	m := provenance.NewMonomial
	dnfs := []*provenance.DNF{
		// 2, 5 and 6 appear only in monomials that (1) or (3∧4) absorb.
		provenance.FromMonomials(m(1), m(1, 2), m(3, 4), m(3, 4, 5), m(1, 2, 6)),
		// 2 and 3 are symmetric; 1 is critical to both of their derivations.
		provenance.FromMonomials(m(1, 2), m(1, 3), m(4)),
		// {1, 2, 3} and {4, 5} are symmetry classes; 7 is absorbed.
		provenance.FromMonomials(m(1, 2, 3), m(4, 5), m(4, 5, 7)),
	}
	dnfs = append(dnfs, axiomRandomDNFs()...)
	symTol := map[string]float64{"exact": 1e-12, "amc": 0.04}
	nulls, pairs := 0, 0
	for _, e := range engines(40000) {
		name := e.name
		tol, ok := symTol[name]
		if !ok {
			t.Fatalf("no symmetry tolerance for engine %q", name)
		}
		for i, d := range dnfs {
			vals, err := e.label(d, DeriveSeed(11, uint64(i)))
			if err != nil {
				t.Fatalf("%s case %d: %v", name, i, err)
			}
			if len(vals) != len(d.Lineage()) {
				t.Fatalf("%s case %d: %d values over %d lineage facts", name, i, len(vals), len(d.Lineage()))
			}
			if s := vals.Sum(); math.Abs(s-1) > 1e-9 {
				t.Errorf("%s case %d %v: efficiency violated, sum = %v", name, i, d, s)
			}
			for id, v := range vals {
				if v < 0 {
					t.Errorf("%s case %d %v: fact %d = %v < 0", name, i, d, id, v)
				}
			}
			for _, id := range nullPlayers(d) {
				nulls++
				if vals[id] != 0 {
					t.Errorf("%s case %d %v: null player %d = %v, want exactly 0", name, i, d, id, vals[id])
				}
			}
			for _, p := range symmetricPairs(d) {
				pairs++
				if diff := math.Abs(vals[p[0]] - vals[p[1]]); diff > tol {
					t.Errorf("%s case %d %v: symmetric facts %d and %d differ by %v > %v",
						name, i, d, p[0], p[1], diff, tol)
				}
			}
		}
	}
	t.Logf("checked %d null players and %d symmetric pairs", nulls, pairs)
	// The hand-built cases alone guarantee both checks ran.
	if nulls == 0 || pairs == 0 {
		t.Fatalf("vacuous run: %d null players and %d symmetric pairs checked", nulls, pairs)
	}
}

// axiomRandomDNFs returns the random monotone DNFs the axiom checks run over.
func axiomRandomDNFs() []*provenance.DNF {
	rng := rand.New(rand.NewSource(17))
	var dnfs []*provenance.DNF
	for trial := 0; trial < 30; trial++ {
		dnfs = append(dnfs, randomDNF(rng, 5+trial%8, 3+trial%7))
	}
	return dnfs
}

// TestShapleyMonotonicityEveryEngine checks monotonicity on both engines:
// adding the monomial {i} to a DNF never lowers fact i's value. The
// game is unchanged on coalitions without i and can only rise on coalitions
// with i, so every marginal contribution of i can only grow. Exact may move by
// rounding (1e-12). For amc the lineage, and so every permutation drawn at the
// same seed, is unchanged, and each walk's pivot can only move to i: its
// count cannot drop at all.
func TestShapleyMonotonicityEveryEngine(t *testing.T) {
	slack := map[string]float64{"exact": 1e-12, "amc": 0}
	// The property holds at any amc budget; a small one keeps the test fast.
	for _, e := range engines(4000) {
		name := e.name
		tol, ok := slack[name]
		if !ok {
			t.Fatalf("no monotonicity slack for engine %q", name)
		}
		checks := 0
		for i, d := range axiomRandomDNFs() {
			seed := DeriveSeed(11, uint64(i))
			before, err := e.label(d, seed)
			if err != nil {
				t.Fatalf("%s case %d: %v", name, i, err)
			}
			for _, id := range d.Lineage() {
				grown := provenance.FromMonomials(append(append([]provenance.Monomial(nil), d.Monomials...), provenance.NewMonomial(id))...)
				after, err := e.label(grown, seed)
				if err != nil {
					t.Fatalf("%s case %d + {%d}: %v", name, i, id, err)
				}
				checks++
				if after[id] < before[id]-tol {
					t.Errorf("%s case %d %v: adding {%d} lowers its value from %v to %v", name, i, d, id, before[id], after[id])
				}
			}
		}
		t.Logf("%s: %d monotonicity checks", name, checks)
	}
}

// nullPlayers returns the lineage facts absent from the minimized formula:
// every monomial mentioning them is absorbed by a smaller one.
func nullPlayers(d *provenance.DNF) []relation.FactID {
	kept := make(map[relation.FactID]bool)
	for _, id := range d.Clone().Minimize().Lineage() {
		kept[id] = true
	}
	var out []relation.FactID
	for _, id := range d.Lineage() {
		if !kept[id] {
			out = append(out, id)
		}
	}
	return out
}

// symmetricPairs returns every pair of lineage facts whose transposition maps
// the minimized formula onto itself — the pairs the symmetry axiom binds.
func symmetricPairs(d *provenance.DNF) [][2]relation.FactID {
	minimal := d.Clone().Minimize()
	want := minimal.Key()
	lineage := d.Lineage()
	var out [][2]relation.FactID
	for i, a := range lineage {
		for _, b := range lineage[i+1:] {
			swapped := &provenance.DNF{Monomials: make([]provenance.Monomial, len(minimal.Monomials))}
			for k, mono := range minimal.Monomials {
				ids := make([]relation.FactID, len(mono))
				for j, id := range mono {
					switch id {
					case a:
						id = b
					case b:
						id = a
					}
					ids[j] = id
				}
				swapped.Monomials[k] = provenance.NewMonomial(ids...)
			}
			if swapped.Key() == want {
				out = append(out, [2]relation.FactID{a, b})
			}
		}
	}
	return out
}
