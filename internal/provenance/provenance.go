// Package provenance represents the boolean provenance of query answers.
//
// For SPJU queries, the provenance Prov(D, q, t) of an output tuple t is a
// positive boolean formula in disjunctive normal form: one conjunction
// ("monomial") per derivation of t, whose variables are the annotations
// (FactIDs) of the facts joined by that derivation. The lineage
// Lineage(D, q, t) is the set of variables appearing in the DNF.
package provenance

import (
	"sort"
	"strconv"
	"strings"

	"repro/internal/relation"
)

// Monomial is one derivation: a sorted, duplicate-free set of fact IDs whose
// conjunction derives the output tuple.
type Monomial []relation.FactID

// NewMonomial copies, sorts and dedupes the given fact IDs.
func NewMonomial(ids ...relation.FactID) Monomial {
	m := make(Monomial, len(ids))
	copy(m, ids)
	sort.Slice(m, func(i, j int) bool { return m[i] < m[j] })
	out := m[:0]
	for i, id := range m {
		if i == 0 || id != m[i-1] {
			out = append(out, id)
		}
	}
	return out
}

// Contains reports whether the monomial mentions the fact.
func (m Monomial) Contains(id relation.FactID) bool {
	i := sort.Search(len(m), func(i int) bool { return m[i] >= id })
	return i < len(m) && m[i] == id
}

// SubsetOf reports whether every fact of m appears in o.
func (m Monomial) SubsetOf(o Monomial) bool {
	if len(m) > len(o) {
		return false
	}
	i := 0
	for _, id := range m {
		for i < len(o) && o[i] < id {
			i++
		}
		if i == len(o) || o[i] != id {
			return false
		}
	}
	return true
}

// Key returns a canonical map key for the monomial.
func (m Monomial) Key() string {
	var b strings.Builder
	for i, id := range m {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(int(id)))
	}
	return b.String()
}

// String renders the monomial as "f1∧f5∧f9".
func (m Monomial) String() string {
	parts := make([]string, len(m))
	for i, id := range m {
		parts[i] = "f" + strconv.Itoa(int(id))
	}
	return strings.Join(parts, "∧")
}

// DNF is a positive boolean formula in disjunctive normal form: the
// disjunction of its monomials. The empty DNF is the constant false; a DNF
// containing an empty monomial is the constant true.
type DNF struct {
	Monomials []Monomial
}

// False returns the unsatisfiable provenance (tuple cannot be derived).
func False() *DNF { return &DNF{} }

// FromMonomials builds a DNF from the given monomials, deduplicating them and
// keeping each first occurrence in order. It does NOT apply absorption; call
// Minimize for that.
func FromMonomials(ms ...Monomial) *DNF {
	d := &DNF{}
	seen := make(map[string]bool, len(ms))
	for _, m := range ms {
		k := m.Key()
		if !seen[k] {
			seen[k] = true
			d.Monomials = append(d.Monomials, m)
		}
	}
	return d
}

// IsFalse reports whether the formula is the constant false.
func (d *DNF) IsFalse() bool { return len(d.Monomials) == 0 }

// IsTrue reports whether the formula is the constant true (contains the
// empty monomial).
func (d *DNF) IsTrue() bool {
	for _, m := range d.Monomials {
		if len(m) == 0 {
			return true
		}
	}
	return false
}

// Lineage returns the sorted set of fact IDs appearing in the formula.
func (d *DNF) Lineage() []relation.FactID {
	seen := make(map[relation.FactID]bool)
	for _, m := range d.Monomials {
		for _, id := range m {
			seen[id] = true
		}
	}
	out := make([]relation.FactID, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Eval evaluates the formula under the given truth assignment: present() must
// report whether a fact is in the sub-database E.
func (d *DNF) Eval(present func(relation.FactID) bool) bool {
	for _, m := range d.Monomials {
		sat := true
		for _, id := range m {
			if !present(id) {
				sat = false
				break
			}
		}
		if sat {
			return true
		}
	}
	return false
}

// EvalSet evaluates the formula on an explicit fact-ID set.
func (d *DNF) EvalSet(set map[relation.FactID]bool) bool {
	return d.Eval(func(id relation.FactID) bool { return set[id] })
}

// Minimize removes absorbed monomials (any monomial that is a superset of
// another is redundant: a∨(a∧b) ≡ a) and returns the receiver.
func (d *DNF) Minimize() *DNF {
	sort.Slice(d.Monomials, func(i, j int) bool { return len(d.Monomials[i]) < len(d.Monomials[j]) })
	kept := d.Monomials[:0]
	for _, m := range d.Monomials {
		absorbed := false
		for _, k := range kept {
			if k.SubsetOf(m) {
				absorbed = true
				break
			}
		}
		if !absorbed {
			kept = append(kept, m)
		}
	}
	d.Monomials = kept
	return d
}

// Restrict returns the cofactor of the formula with the fact set to the given
// truth value: monomials mentioning a false fact vanish; a true fact is
// removed from the monomials that mention it.
func (d *DNF) Restrict(id relation.FactID, value bool) *DNF {
	out := &DNF{Monomials: make([]Monomial, 0, len(d.Monomials))}
	for _, m := range d.Monomials {
		if m.Contains(id) {
			if !value {
				continue
			}
			rest := make(Monomial, 0, len(m)-1)
			for _, v := range m {
				if v != id {
					rest = append(rest, v)
				}
			}
			out.Monomials = append(out.Monomials, rest)
		} else {
			out.Monomials = append(out.Monomials, m)
		}
	}
	return out
}

// Clone deep-copies the formula.
func (d *DNF) Clone() *DNF {
	out := &DNF{Monomials: make([]Monomial, len(d.Monomials))}
	for i, m := range d.Monomials {
		c := make(Monomial, len(m))
		copy(c, m)
		out.Monomials[i] = c
	}
	return out
}

// Key returns a canonical map key for the formula (monomials sorted). The
// constant false formula and a formula containing only the empty monomial
// (constant true) map to distinct keys.
func (d *DNF) Key() string {
	if len(d.Monomials) == 0 {
		return "⊥"
	}
	keys := make([]string, len(d.Monomials))
	for i, m := range d.Monomials {
		keys[i] = "{" + m.Key() + "}"
	}
	sort.Strings(keys)
	return strings.Join(keys, "|")
}

// String renders the formula as "(f1∧f2)∨(f3)".
func (d *DNF) String() string {
	if d.IsFalse() {
		return "⊥"
	}
	parts := make([]string, len(d.Monomials))
	for i, m := range d.Monomials {
		if len(m) == 0 {
			parts[i] = "⊤"
		} else {
			parts[i] = "(" + m.String() + ")"
		}
	}
	return strings.Join(parts, "∨")
}
