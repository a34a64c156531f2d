package approx

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
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

func TestParseEngines(t *testing.T) {
	for _, name := range Names() {
		l, err := Parse(name, 0)
		if err != nil {
			t.Fatalf("Parse(%q): %v", name, err)
		}
		if l.Name() != name {
			t.Fatalf("Parse(%q).Name() = %q", name, l.Name())
		}
	}
	if l, err := Parse("", 0); err != nil || l.Name() != "exact" {
		t.Fatalf("Parse(\"\") = %v, %v; want exact adapter", l, err)
	}
	if _, err := Parse("bogus", 0); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("Parse(bogus) err = %v; want error naming the input", err)
	}
	// Default budget applies when no positive budget is given.
	if l, _ := Parse("amc", 0); l.(MC).Samples != DefaultSamples {
		t.Fatalf("default samples = %d, want %d", l.(MC).Samples, DefaultSamples)
	}
	if l, _ := Parse("amc", 64); l.(MC).Samples != 64 {
		t.Fatalf("amc budget not honored: %+v", l)
	}
}

func TestExactAdapterMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := randomDNF(rng, 10, 8)
	want, _, err := shapley.Exact(d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Exact{}.Label(d, 999) // seed must be ignored
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("adapter diverges from shapley.Exact:\n got %v\nwant %v", got, want)
	}
}

// TestSamplersConvergeToExact drives amc at a large budget against the exact
// oracle on random small DNFs: estimates must be close in absolute error,
// and the efficiency axiom (values sum to 1) must hold by construction at
// every budget.
func TestSamplersConvergeToExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l, err := Parse("amc", 40000)
	if err != nil {
		t.Fatal(err)
	}
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
	for _, name := range Names() {
		l, err := Parse(name, 256)
		if err != nil {
			t.Fatal(err)
		}
		a, err := l.Label(d, 42)
		if err != nil {
			t.Fatal(err)
		}
		b, err := l.Label(d.Clone(), 42)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: same seed diverged:\n %v\n %v", name, a, b)
		}
	}
	// Different seeds must actually change sampled estimates.
	amc, _ := Parse("amc", 64)
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
	for _, name := range Names() {
		l, err := Parse(name, 16)
		if err != nil {
			t.Fatal(err)
		}
		if name != "exact" { // exact rejects constant-false; samplers return empty
			if got, err := l.Label(empty, 1); err != nil || len(got) != 0 {
				t.Fatalf("%s on empty DNF: %v, %v", name, got, err)
			}
			if got, err := l.Label(taut, 1); err != nil {
				t.Fatalf("%s on tautology: %v", name, err)
			} else {
				for id, v := range got {
					if v != 0 {
						t.Fatalf("%s on tautology: fact %d = %v, want 0 (null players)", name, id, v)
					}
				}
			}
		}
		got, err := l.Label(single, 1)
		if err != nil {
			t.Fatalf("%s on single-fact DNF: %v", name, err)
		}
		if got[5] != 1 {
			t.Fatalf("%s on single-fact DNF: value %v, want exactly 1", name, got[5])
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
