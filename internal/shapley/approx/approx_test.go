package approx

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/provenance"
	"repro/internal/relation"
	"repro/internal/shapley"
)

// randomDNF builds a small random monotone DNF over vars facts with
// monomials of width 1..3 — the scale where the exact engine is an
// uncontested oracle.
func randomDNF(rng *rand.Rand, vars, monomials int) *provenance.DNF {
	var ms []provenance.Monomial
	for i := 0; i < monomials; i++ {
		w := 1 + rng.Intn(3)
		ids := make([]relation.FactID, w)
		for j := range ids {
			ids[j] = relation.FactID(rng.Intn(vars))
		}
		ms = append(ms, provenance.NewMonomial(ids...))
	}
	return provenance.FromMonomials(ms...)
}

// engine is one Shapley engine under test.
type engine struct {
	name  string
	label func(d *provenance.DNF, seed uint64) (shapley.Values, error)
}

// engines returns the two engines corpus labeling uses: exact, which ignores
// the seed, and amc at the given permutation budget.
func engines(samples int) []engine {
	return []engine{
		{"exact", func(d *provenance.DNF, _ uint64) (shapley.Values, error) {
			vals, _, err := shapley.Exact(d)
			return vals, err
		}},
		{"amc", MC{Samples: samples}.Label},
	}
}

// TestSamplersConvergeToExact drives amc at a large budget against the exact
// oracle on random small DNFs: estimates must be close in absolute error,
// and the efficiency axiom (values sum to 1) must hold by construction at
// every budget.
func TestSamplersConvergeToExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l := MC{Samples: 40000}
	for trial := 0; trial < 5; trial++ {
		d := randomDNF(rng, 8+trial, 6+trial)
		gold, _, err := shapley.Exact(d)
		if err != nil {
			t.Fatal(err)
		}
		est, err := l.Label(d, DeriveSeed(3, uint64(trial)))
		if err != nil {
			t.Fatal(err)
		}
		if len(est) != len(gold) {
			t.Fatalf("trial %d: %d values, want %d", trial, len(est), len(gold))
		}
		if s := est.Sum(); math.Abs(s-1) > 1e-9 {
			t.Fatalf("trial %d: efficiency violated, sum = %v", trial, s)
		}
		for id, want := range gold {
			if got := est[id]; math.Abs(got-want) > 0.02 {
				t.Fatalf("trial %d fact %d: est %v, exact %v (|err| > 0.02 at N=40000)",
					trial, id, got, want)
			}
		}
	}
}

// TestSameSeedBitIdentical is the determinism contract: a fixed (formula,
// seed) pair must yield bit-identical values on every call, for every engine.
func TestSameSeedBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := randomDNF(rng, 12, 10)
	for _, e := range engines(256) {
		a, err := e.label(d, 42)
		if err != nil {
			t.Fatal(err)
		}
		b, err := e.label(d.Clone(), 42)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: same seed diverged:\n %v\n %v", e.name, a, b)
		}
	}
	// Different seeds must actually change sampled estimates.
	amc := MC{Samples: 64}
	a, _ := amc.Label(d, 1)
	b, _ := amc.Label(d, 2)
	if reflect.DeepEqual(a, b) {
		t.Fatal("amc: different seeds produced identical estimates at N=64")
	}
}

// TestPivotAgreesWithCircuitEval cross-checks the incremental counter walk
// against direct evaluation of the formula: adding facts one by one in
// permutation order, the first prefix on which DNF.Eval flips to true must
// end at exactly the pivot the counters report.
func TestPivotAgreesWithCircuitEval(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		d := randomDNF(rng, 14, 12)
		li := indexLineage(d)
		g := newGame(d, li)
		perm := make([]int, len(li.facts))
		for i := range perm {
			perm[i] = i
		}
		for rep := 0; rep < 20; rep++ {
			shuffle(rng, perm)
			got := g.pivotForward(perm)
			present := make(map[relation.FactID]bool, len(perm))
			want := -1
			for _, p := range perm {
				present[li.facts[p]] = true
				if d.Eval(func(id relation.FactID) bool { return present[id] }) {
					want = p
					break
				}
			}
			if got != want {
				t.Fatalf("trial %d: counter pivot %d, formula pivot %d (perm %v)", trial, got, want, perm)
			}
			if rev := g.pivotReverse(perm); rev != func() int {
				rp := make([]int, len(perm))
				for i, p := range perm {
					rp[len(perm)-1-i] = p
				}
				return g.pivotForward(rp)
			}() {
				t.Fatalf("trial %d: pivotReverse diverges from pivotForward on reversed slice", trial)
			}
		}
	}
}

func TestDegenerateLineages(t *testing.T) {
	empty := provenance.FromMonomials()                           // constant false
	taut := provenance.FromMonomials(provenance.NewMonomial())    // constant true
	single := provenance.FromMonomials(provenance.NewMonomial(5)) // one critical fact
	for _, e := range engines(16) {
		if e.name != "exact" { // exact rejects constant-false; samplers return empty
			if got, err := e.label(empty, 1); err != nil || len(got) != 0 {
				t.Fatalf("%s on empty DNF: %v, %v", e.name, got, err)
			}
			if got, err := e.label(taut, 1); err != nil {
				t.Fatalf("%s on tautology: %v", e.name, err)
			} else {
				for id, v := range got {
					if v != 0 {
						t.Fatalf("%s on tautology: fact %d = %v, want 0 (null players)", e.name, id, v)
					}
				}
			}
		}
		got, err := e.label(single, 1)
		if err != nil {
			t.Fatalf("%s on single-fact DNF: %v", e.name, err)
		}
		if got[5] != 1 {
			t.Fatalf("%s on single-fact DNF: value %v, want exactly 1", e.name, got[5])
		}
	}
}

func TestDeriveSeed(t *testing.T) {
	// Pure and order-sensitive.
	if DeriveSeed(1, 2, 3) != DeriveSeed(1, 2, 3) {
		t.Fatal("DeriveSeed is not pure")
	}
	if DeriveSeed(1, 2, 3) == DeriveSeed(1, 3, 2) {
		t.Fatal("DeriveSeed ignores part order")
	}
	if DeriveSeed(1) == DeriveSeed(2) {
		t.Fatal("DeriveSeed ignores base")
	}
	// Low-entropy inputs (small query IDs x tuple indices) must not collide.
	seen := make(map[uint64]bool)
	for q := uint64(0); q < 64; q++ {
		for i := uint64(0); i < 64; i++ {
			s := DeriveSeed(7, q, i)
			if seen[s] {
				t.Fatalf("collision at (%d,%d)", q, i)
			}
			seen[s] = true
		}
	}
}

func TestScoreAccuracy(t *testing.T) {
	gold := shapley.Values{1: 0.5, 2: 0.3, 3: 0.2}
	if acc := Score(gold, gold, 2); acc.Spearman != 1 || acc.TopK != 1 || acc.MAE != 0 {
		t.Fatalf("self-score = %+v, want perfect", acc)
	}
	// Reversed ranking: Spearman -1, top-1 disjoint.
	rev := shapley.Values{1: 0.2, 2: 0.3, 3: 0.5}
	if acc := Score(rev, gold, 1); acc.Spearman != -1 || acc.TopK != 0 {
		t.Fatalf("reversed score = %+v, want Spearman -1, TopK 0", acc)
	}
}

func TestBenchmarkLineagesShape(t *testing.T) {
	names := map[string]bool{}
	lineages := BenchmarkLineages()
	for _, bl := range lineages {
		if names[bl.Name] {
			t.Fatalf("duplicate lineage name %s", bl.Name)
		}
		names[bl.Name] = true
		if bl.DNF.IsTrue() || bl.DNF.IsFalse() {
			t.Fatalf("%s is constant", bl.Name)
		}
		if bl.Facts() < 100 {
			t.Fatalf("%s: only %d facts; benchmark lineages are the large regime", bl.Name, bl.Facts())
		}
	}
	if len(lineages) < 3 {
		t.Fatalf("%d golden lineages, want >= 3", len(lineages))
	}
}

// TestMCRejectsNoSamples pins MC's sample-count check: below one sample there
// is no permutation to count, so Label must fail rather than divide 0 by 0,
// while a single sample (one antithetic pair) still sums to 1.
func TestMCRejectsNoSamples(t *testing.T) {
	d := provenance.FromMonomials(provenance.NewMonomial(1, 2), provenance.NewMonomial(3))
	for _, m := range []MC{{}, {Samples: -1}} {
		if got, err := m.Label(d, 1); err == nil {
			t.Errorf("MC{Samples: %d}.Label = %v, want an error", m.Samples, got)
		}
	}
	got, err := MC{Samples: 1}.Label(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sum := got.Sum(); sum != 1 {
		t.Errorf("MC{Samples: 1} values %v sum to %v, want 1", got, sum)
	}
}
