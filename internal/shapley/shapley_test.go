package shapley

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/paperdb"
	"repro/internal/provenance"
	"repro/internal/relation"
)

func ids(xs ...int) []relation.FactID {
	out := make([]relation.FactID, len(xs))
	for i, x := range xs {
		out[i] = relation.FactID(x)
	}
	return out
}

func randomDNF(rng *rand.Rand, maxVars, maxMonomials int) *provenance.DNF {
	n := 1 + rng.Intn(maxVars)
	var ms []provenance.Monomial
	for i := 0; i < 1+rng.Intn(maxMonomials); i++ {
		var vs []relation.FactID
		for v := 0; v < n; v++ {
			if rng.Intn(3) == 0 {
				vs = append(vs, relation.FactID(v))
			}
		}
		if len(vs) == 0 {
			vs = append(vs, relation.FactID(rng.Intn(n)))
		}
		ms = append(ms, provenance.NewMonomial(vs...))
	}
	return provenance.FromMonomials(ms...)
}

func TestBruteForcePaperExample(t *testing.T) {
	// Example 2.2 over the 9-fact lineage of Alice:
	// Shapley(c1) = 10/63, Shapley(c2) = 19/252.
	db, f := paperdb.New()
	res, err := engine.Evaluate(db, paperdb.MustParse(paperdb.QInf))
	if err != nil {
		t.Fatal(err)
	}
	var alice *engine.OutputTuple
	for _, tp := range res.Tuples {
		if tp.Values[0].AsString() == "Alice" {
			alice = tp
		}
	}
	vals, err := BruteForce(alice.Prov)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := vals[f.C[0].ID], 10.0/63.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("Shapley(c1) = %v, want %v", got, want)
	}
	if got, want := vals[f.C[1].ID], 19.0/252.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("Shapley(c2) = %v, want %v", got, want)
	}
	if math.Abs(vals.Sum()-1) > 1e-12 {
		t.Errorf("efficiency: sum = %v, want 1", vals.Sum())
	}
}

func TestExactPaperExample(t *testing.T) {
	db, f := paperdb.New()
	res, err := engine.Evaluate(db, paperdb.MustParse(paperdb.QInf))
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range res.Tuples {
		if tp.Values[0].AsString() != "Alice" {
			continue
		}
		vals, stats, err := Exact(tp.Prov)
		if err != nil {
			t.Fatal(err)
		}
		if stats.LineageSize != 9 {
			t.Errorf("lineage size = %d", stats.LineageSize)
		}
		if got, want := vals[f.C[0].ID], 10.0/63.0; math.Abs(got-want) > 1e-10 {
			t.Errorf("Shapley(c1) = %v, want %v", got, want)
		}
		if got, want := vals[f.C[1].ID], 19.0/252.0; math.Abs(got-want) > 1e-10 {
			t.Errorf("Shapley(c2) = %v, want %v", got, want)
		}
	}
}

func TestExactMatchesBruteForceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 300; trial++ {
		d := randomDNF(rng, 10, 6)
		bf, err := BruteForce(d)
		if err != nil {
			t.Fatal(err)
		}
		ex, _, err := Exact(d)
		if err != nil {
			t.Fatal(err)
		}
		if len(bf) != len(ex) {
			t.Fatalf("trial %d: value counts differ: %d vs %d for %v", trial, len(bf), len(ex), d)
		}
		for id, want := range bf {
			if got := ex[id]; math.Abs(got-want) > 1e-9 {
				t.Fatalf("trial %d: fact %d: exact %v, brute %v for %v", trial, id, got, want, d)
			}
		}
	}
}

func TestExactEfficiencyAxiomProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		d := randomDNF(rng, 14, 8)
		vals, _, err := Exact(d)
		if err != nil {
			t.Fatal(err)
		}
		// Efficiency: Σ Shapley = F(all) - F(∅) = 1 for our satisfiable,
		// non-constant formulas.
		if math.Abs(vals.Sum()-1) > 1e-9 {
			t.Fatalf("trial %d: sum = %v for %v", trial, vals.Sum(), d)
		}
	}
}

func TestExactSymmetryAxiom(t *testing.T) {
	// Symmetric players get equal values: F = (1∧2) ∨ (1∧3), players 2 and 3
	// are interchangeable.
	d := provenance.FromMonomials(
		provenance.NewMonomial(ids(1, 2)...),
		provenance.NewMonomial(ids(1, 3)...),
	)
	vals, _, err := Exact(d)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[2]-vals[3]) > 1e-12 {
		t.Errorf("symmetric players differ: %v vs %v", vals[2], vals[3])
	}
	if vals[1] <= vals[2] {
		t.Errorf("pivotal player should dominate: %v vs %v", vals[1], vals[2])
	}
}

func TestExactNullPlayerAxiom(t *testing.T) {
	// A fact absorbed away never changes the outcome beyond the absorber...
	// Construct F = (1) ∨ (1∧2): monomial absorption makes 2 a null player,
	// and Minimize removes it from the lineage entirely.
	d := provenance.FromMonomials(
		provenance.NewMonomial(ids(1)...),
		provenance.NewMonomial(ids(1, 2)...),
	)
	vals, _, err := Exact(d)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := vals[2]; ok && v != 0 {
		t.Errorf("null player has value %v", v)
	}
	if math.Abs(vals[1]-1) > 1e-12 {
		t.Errorf("sole contributor should get 1, got %v", vals[1])
	}
}

func TestExactSingleMonomial(t *testing.T) {
	// F = (1∧2∧3): all three facts split the unit equally.
	d := provenance.FromMonomials(provenance.NewMonomial(ids(1, 2, 3)...))
	vals, _, err := Exact(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids(1, 2, 3) {
		if math.Abs(vals[id]-1.0/3.0) > 1e-12 {
			t.Errorf("fact %d = %v, want 1/3", id, vals[id])
		}
	}
}

func TestExactDisjointMonomials(t *testing.T) {
	// F = (1) ∨ (2): by direct computation Shapley(1) = Shapley(2) = 1/2.
	d := provenance.FromMonomials(
		provenance.NewMonomial(ids(1)...),
		provenance.NewMonomial(ids(2)...),
	)
	vals, _, err := Exact(d)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[1]-0.5) > 1e-12 || math.Abs(vals[2]-0.5) > 1e-12 {
		t.Errorf("vals = %v", vals)
	}
}

func TestExactEmptyAndConstant(t *testing.T) {
	vals, _, err := Exact(provenance.False())
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 0 {
		t.Errorf("false provenance should have no players: %v", vals)
	}
	// Constant-true formula: monomials minimize to the empty monomial and
	// every fact is null.
	d := provenance.FromMonomials(provenance.NewMonomial())
	vals, _, err = Exact(d)
	if err != nil {
		t.Fatal(err)
	}
	if vals.Sum() != 0 {
		t.Errorf("constant true: sum = %v", vals.Sum())
	}
}

func TestBruteForceTooLarge(t *testing.T) {
	var vs []relation.FactID
	for i := 0; i < maxBruteForceVars+1; i++ {
		vs = append(vs, relation.FactID(i))
	}
	d := provenance.FromMonomials(provenance.NewMonomial(vs...))
	if _, err := BruteForce(d); err == nil {
		t.Error("expected size-limit error")
	}
}

func TestExactLargeChainLineage(t *testing.T) {
	// A 120-fact lineage shaped like chain-join provenance: 40 derivations of
	// 3 facts each sharing one hub fact. Checks scalability and efficiency.
	hub := relation.FactID(0)
	var ms []provenance.Monomial
	for i := 0; i < 40; i++ {
		ms = append(ms, provenance.NewMonomial(hub, relation.FactID(1+2*i), relation.FactID(2+2*i)))
	}
	d := provenance.FromMonomials(ms...)
	vals, stats, err := Exact(d)
	if err != nil {
		t.Fatal(err)
	}
	if stats.LineageSize != 81 {
		t.Fatalf("lineage = %d", stats.LineageSize)
	}
	if math.Abs(vals.Sum()-1) > 1e-8 {
		t.Errorf("sum = %v", vals.Sum())
	}
	if vals[hub] < vals[1]*5 {
		t.Errorf("hub fact should dominate: hub=%v leaf=%v", vals[hub], vals[1])
	}
}

func TestCircuitEvalMatchesDNF(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 100; trial++ {
		d := randomDNF(rng, 8, 5)
		c, err := Compile(d)
		if err != nil {
			t.Fatal(err)
		}
		lineage := d.Lineage()
		for mask := 0; mask < 1<<len(lineage); mask++ {
			present := make(map[relation.FactID]bool)
			for i, id := range lineage {
				if mask&(1<<uint(i)) != 0 {
					present[id] = true
				}
			}
			pf := func(id relation.FactID) bool { return present[id] }
			if c.Eval(pf) != d.Eval(pf) {
				t.Fatalf("trial %d: circuit disagrees with DNF %v on %v", trial, d, present)
			}
		}
	}
}

func TestValuesRankingDeterministic(t *testing.T) {
	v := Values{3: 0.5, 1: 0.5, 2: 0.9}
	r := v.Ranking()
	want := ids(2, 1, 3)
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("ranking = %v, want %v", r, want)
		}
	}
}

func TestCNFProxyRankingQuality(t *testing.T) {
	// The proxy must agree with exact Shapley on clear-cut cases: the hub of
	// many derivations outranks leaves.
	hub := relation.FactID(0)
	var ms []provenance.Monomial
	for i := 0; i < 5; i++ {
		ms = append(ms, provenance.NewMonomial(hub, relation.FactID(1+i)))
	}
	d := provenance.FromMonomials(ms...)
	proxy := CNFProxy(d)
	if proxy.Ranking()[0] != hub {
		t.Errorf("proxy top fact = %d, want hub", proxy.Ranking()[0])
	}
	exact, _, err := Exact(d)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Ranking()[0] != hub {
		t.Errorf("exact top fact = %d, want hub", exact.Ranking()[0])
	}
}

// TestCNFProxyCountsDerivations pins what CNFProxy computes on hand-built
// DNFs: each fact's number of derivations, whatever their length, and with
// absorbed derivations still counted.
func TestCNFProxyCountsDerivations(t *testing.T) {
	m := provenance.NewMonomial
	for _, tc := range []struct {
		d    *provenance.DNF
		want Values
	}{
		{provenance.FromMonomials(m(1, 2), m(1, 3), m(4)), Values{1: 2, 2: 1, 3: 1, 4: 1}},
		{provenance.FromMonomials(m(1, 2, 3), m(1, 4), m(5)), Values{1: 2, 2: 1, 3: 1, 4: 1, 5: 1}},
		{provenance.FromMonomials(m(1), m(1, 2)), Values{1: 2, 2: 1}},
		{provenance.FromMonomials(m()), Values{}},
		{provenance.FromMonomials(), Values{}},
	} {
		if got := CNFProxy(tc.d); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("CNFProxy(%v) = %v, want %v", tc.d, got, tc.want)
		}
	}
}

func TestCNFProxyCoversLineage(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		d := randomDNF(rng, 10, 6)
		proxy := CNFProxy(d)
		if len(proxy) != len(d.Lineage()) {
			t.Fatalf("proxy covers %d of %d facts", len(proxy), len(d.Lineage()))
		}
	}
}

func TestBinomTable(t *testing.T) {
	bt := newBinomTable(10)
	cases := []struct {
		n, k int
		want float64
	}{
		{0, 0, 1}, {5, 2, 10}, {10, 5, 252}, {10, 0, 1}, {10, 10, 1}, {4, 5, 0}, {4, -1, 0},
	}
	for _, c := range cases {
		if got := bt.at(c.n, c.k); got != c.want {
			t.Errorf("C(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
		}
	}
}

func TestBinomHelper(t *testing.T) {
	if binom(9, 4) != 126 {
		t.Errorf("binom(9,4) = %v", binom(9, 4))
	}
	if binom(3, 5) != 0 {
		t.Errorf("binom(3,5) = %v", binom(3, 5))
	}
}
