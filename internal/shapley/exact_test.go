package shapley

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/provenance"
	"repro/internal/relation"
)

// sparseDNF draws monomials of 1–3 facts over at most maxVars facts, the
// shape that decomposes: common facts, disjoint groups and Shannon nodes all
// occur, often within one formula.
func sparseDNF(rng *rand.Rand, maxVars, maxMonomials int) *provenance.DNF {
	n := 1 + rng.Intn(maxVars)
	var ms []provenance.Monomial
	for i := 0; i < 1+rng.Intn(maxMonomials); i++ {
		vs := make([]relation.FactID, 1+rng.Intn(3))
		for j := range vs {
			vs[j] = relation.FactID(rng.Intn(n))
		}
		ms = append(ms, provenance.NewMonomial(vs...))
	}
	return provenance.FromMonomials(ms...)
}

// TestExactMatchesDiagramOracle is the differential test of the
// decomposition tree: on 3,000 random DNFs of up to 14 facts, half dense and
// half sparse, Exact agrees within 1e-12 with both the decision-diagram
// oracle and brute-force enumeration, on the same fact set.
func TestExactMatchesDiagramOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 3000; trial++ {
		var d *provenance.DNF
		if trial%2 == 0 {
			d = randomDNF(rng, 14, 8)
		} else {
			d = sparseDNF(rng, 14, 12)
		}
		got, _, err := Exact(d)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Compile(d)
		if err != nil {
			t.Fatal(err)
		}
		bf, err := BruteForce(d)
		if err != nil {
			t.Fatal(err)
		}
		for name, want := range map[string]Values{"diagram": c.ShapleyAll(), "brute force": bf} {
			if len(got) != len(want) {
				t.Fatalf("trial %d: %d values, %s has %d, for %v", trial, len(got), name, len(want), d)
			}
			for id, w := range want {
				if g, ok := got[id]; !ok || math.Abs(g-w) > 1e-12 {
					t.Fatalf("trial %d: fact %d: tree %v, %s %v, for %v", trial, id, g, name, w, d)
				}
			}
		}
	}
}

// TestExactValuesOnGrid pins the snapping: every value is a multiple of
// 2^-40, so the two interchangeable facts of (1∧2) ∨ (1∧3) tie exactly.
func TestExactValuesOnGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		vals, _, err := Exact(sparseDNF(rng, 30, 20))
		if err != nil {
			t.Fatal(err)
		}
		for id, v := range vals {
			if s := v * (1 << 40); s != math.Trunc(s) {
				t.Fatalf("trial %d: fact %d = %v is off the 2^-40 grid", trial, id, v)
			}
		}
	}
	d := provenance.FromMonomials(provenance.NewMonomial(ids(1, 2)...), provenance.NewMonomial(ids(1, 3)...))
	vals, _, err := Exact(d)
	if err != nil {
		t.Fatal(err)
	}
	if vals[2] != vals[3] {
		t.Errorf("symmetric facts differ: %v vs %v", vals[2], vals[3])
	}
}

// TestExactNodeBudget checks ExactBudget at the budget's edge, where a
// lineage compiles under a budget equal to its tree size, to values equal to
// Exact's bit for bit, and one node less returns ErrBudget; and on a lineage
// far over it, where compilation must stop as soon as the tree passes the
// budget.
func TestExactNodeBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		d := sparseDNF(rng, 40, 40)
		want, st, err := Exact(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, budget := range []int{maxTreeNodes, st.CircuitNodes} {
			got, st2, err := ExactBudget(d, budget)
			if err != nil {
				t.Fatalf("trial %d: budget of %d nodes for a %d-node tree refused: %v", trial, budget, st.CircuitNodes, err)
			}
			if st2.CircuitNodes != st.CircuitNodes {
				t.Fatalf("trial %d: tree size %d under Exact, %d under a budget of %d", trial, st.CircuitNodes, st2.CircuitNodes, budget)
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d: %d values under a budget of %d, Exact has %d", trial, len(got), budget, len(want))
			}
			for id, v := range want {
				if got[id] != v {
					t.Fatalf("trial %d: fact %d: %v under a budget of %d, %v from Exact", trial, id, got[id], budget, v)
				}
			}
		}
		if st.CircuitNodes == 0 {
			continue
		}
		if _, _, err := ExactBudget(d, st.CircuitNodes-1); !errors.Is(err, ErrBudget) {
			t.Fatalf("trial %d: budget of %d nodes for a %d-node tree: err = %v", trial, st.CircuitNodes-1, st.CircuitNodes, err)
		}
	}

	// These 60 facts in 159 random pairs compile to 7,523 nodes.
	var ms []provenance.Monomial
	for i := 0; i < 200; i++ {
		ms = append(ms, provenance.NewMonomial(relation.FactID(rng.Intn(60)), relation.FactID(rng.Intn(60))))
	}
	d := provenance.FromMonomials(ms...).Minimize()
	const budget = 500
	tr, root := newTree(d, budget)
	if _, err := tr.compile(root); !errors.Is(err, ErrBudget) {
		t.Fatalf("dense lineage compiled under a %d-node budget: err = %v", budget, err)
	}
	if tr.size > budget+len(tr.facts) || len(tr.nodes) > budget {
		t.Fatalf("compilation went on past the budget: %d nodes, size %d", len(tr.nodes), tr.size)
	}
}
