package provenance

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/relation"
)

func ids(xs ...int) []relation.FactID {
	out := make([]relation.FactID, len(xs))
	for i, x := range xs {
		out[i] = relation.FactID(x)
	}
	return out
}

func TestNewMonomialSortsAndDedupes(t *testing.T) {
	m := NewMonomial(ids(3, 1, 3, 2, 1)...)
	if len(m) != 3 || m[0] != 1 || m[1] != 2 || m[2] != 3 {
		t.Errorf("NewMonomial = %v", m)
	}
}

func TestMonomialContains(t *testing.T) {
	m := NewMonomial(ids(1, 5, 9)...)
	for _, id := range ids(1, 5, 9) {
		if !m.Contains(id) {
			t.Errorf("Contains(%d) = false", id)
		}
	}
	for _, id := range ids(0, 2, 10) {
		if m.Contains(id) {
			t.Errorf("Contains(%d) = true", id)
		}
	}
}

func TestMonomialSubsetOf(t *testing.T) {
	a := NewMonomial(ids(1, 3)...)
	b := NewMonomial(ids(1, 2, 3)...)
	if !a.SubsetOf(b) {
		t.Error("{1,3} ⊆ {1,2,3}")
	}
	if b.SubsetOf(a) {
		t.Error("{1,2,3} ⊄ {1,3}")
	}
	if !NewMonomial().SubsetOf(a) {
		t.Error("∅ ⊆ everything")
	}
}

func TestDNFTrueFalse(t *testing.T) {
	if !False().IsFalse() {
		t.Error("False() should be false")
	}
	d := FromMonomials(NewMonomial())
	if !d.IsTrue() {
		t.Error("DNF with empty monomial is true")
	}
	if d.IsFalse() {
		t.Error("true DNF is not false")
	}
}

func TestDNFLineage(t *testing.T) {
	d := FromMonomials(NewMonomial(ids(3, 1)...), NewMonomial(ids(2, 3)...))
	lin := d.Lineage()
	want := ids(1, 2, 3)
	if len(lin) != len(want) {
		t.Fatalf("Lineage = %v", lin)
	}
	for i := range want {
		if lin[i] != want[i] {
			t.Fatalf("Lineage = %v, want %v", lin, want)
		}
	}
}

func TestDNFEval(t *testing.T) {
	// (1∧2) ∨ (3)
	d := FromMonomials(NewMonomial(ids(1, 2)...), NewMonomial(ids(3)...))
	cases := []struct {
		set  map[relation.FactID]bool
		want bool
	}{
		{map[relation.FactID]bool{1: true, 2: true}, true},
		{map[relation.FactID]bool{1: true}, false},
		{map[relation.FactID]bool{3: true}, true},
		{map[relation.FactID]bool{}, false},
	}
	for _, c := range cases {
		if got := d.EvalSet(c.set); got != c.want {
			t.Errorf("Eval(%v) = %v, want %v", c.set, got, c.want)
		}
	}
}

func TestDNFMinimizeAbsorption(t *testing.T) {
	// a ∨ (a∧b) ∨ (b∧c) minimizes to a ∨ (b∧c).
	d := FromMonomials(
		NewMonomial(ids(1)...),
		NewMonomial(ids(1, 2)...),
		NewMonomial(ids(2, 3)...),
	)
	d.Minimize()
	if len(d.Monomials) != 2 {
		t.Fatalf("Minimize left %d monomials: %v", len(d.Monomials), d)
	}
}

func TestDNFMinimizePreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(6)
		var ms []Monomial
		for i := 0; i < 1+rng.Intn(5); i++ {
			var vs []relation.FactID
			for v := 0; v < n; v++ {
				if rng.Intn(2) == 0 {
					vs = append(vs, relation.FactID(v))
				}
			}
			ms = append(ms, NewMonomial(vs...))
		}
		d := FromMonomials(ms...)
		orig := d.Clone()
		d.Minimize()
		for mask := 0; mask < 1<<n; mask++ {
			present := func(id relation.FactID) bool { return mask&(1<<uint(id)) != 0 }
			if orig.Eval(present) != d.Eval(present) {
				t.Fatalf("Minimize changed semantics of %v (got %v) on mask %b", orig, d, mask)
			}
		}
	}
}

func TestDNFRestrict(t *testing.T) {
	// (1∧2) ∨ (3): restrict 1=true gives (2)∨(3); 1=false gives (3).
	d := FromMonomials(NewMonomial(ids(1, 2)...), NewMonomial(ids(3)...))
	hi := d.Restrict(1, true)
	if len(hi.Monomials) != 2 {
		t.Fatalf("Restrict(1,true) = %v", hi)
	}
	lo := d.Restrict(1, false)
	if len(lo.Monomials) != 1 || !lo.Monomials[0].Contains(3) {
		t.Fatalf("Restrict(1,false) = %v", lo)
	}
}

func TestDNFRestrictShannonProperty(t *testing.T) {
	// F(E) == (v∈E ? F|v=1 : F|v=0)(E\{v}) for all E.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		var ms []Monomial
		for i := 0; i < 1+rng.Intn(4); i++ {
			var vs []relation.FactID
			for v := 0; v < n; v++ {
				if rng.Intn(2) == 0 {
					vs = append(vs, relation.FactID(v))
				}
			}
			ms = append(ms, NewMonomial(vs...))
		}
		d := FromMonomials(ms...)
		v := relation.FactID(rng.Intn(n))
		hi, lo := d.Restrict(v, true), d.Restrict(v, false)
		for mask := 0; mask < 1<<n; mask++ {
			present := func(id relation.FactID) bool { return mask&(1<<uint(id)) != 0 }
			var want bool
			if present(v) {
				want = hi.Eval(present)
			} else {
				want = lo.Eval(present)
			}
			if d.Eval(present) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDNFKeyCanonical(t *testing.T) {
	a := FromMonomials(NewMonomial(ids(1, 2)...), NewMonomial(ids(3)...))
	b := FromMonomials(NewMonomial(ids(3)...), NewMonomial(ids(2, 1)...))
	if a.Key() != b.Key() {
		t.Errorf("keys differ: %q vs %q", a.Key(), b.Key())
	}
}

func TestDNFString(t *testing.T) {
	if False().String() != "⊥" {
		t.Errorf("False().String() = %q", False().String())
	}
	d := FromMonomials(NewMonomial(ids(1, 2)...))
	if d.String() != "(f1∧f2)" {
		t.Errorf("String() = %q", d.String())
	}
}

// TestDNFAddDeduplicates adds monomials to a DNF through FromMonomials: a
// repeated derivation (in any fact order) is kept once, at its first
// position.
func TestDNFAddDeduplicates(t *testing.T) {
	d := FromMonomials(NewMonomial(ids(3)...), NewMonomial(ids(1, 2)...), NewMonomial(ids(3)...), NewMonomial(ids(2, 1)...))
	if d.String() != "(f3)∨(f1∧f2)" {
		t.Errorf("FromMonomials deduplication = %v, want (f3)∨(f1∧f2)", d)
	}
}
