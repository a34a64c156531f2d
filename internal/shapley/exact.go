package shapley

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/provenance"
	"repro/internal/relation"
)

// maxExactVars bounds the lineage size Exact accepts: the float64 binomial
// table is accurate and overflow-free well past this size, and the paper's
// largest lineage (165 facts on the Academic test set) fits comfortably.
const maxExactVars = 512

// maxTreeNodes bounds the decomposition tree Exact builds, fact leaves
// included. It admits every lineage of the default Academic corpus: the
// largest tree there, of a 167-fact tuple, has 45,993 nodes and takes about
// 1.4 s on a 2-core host. Compilation stops as soon as the tree passes the
// bound, before the value passes run.
const maxTreeNodes = 1 << 16

// ErrBudget is wrapped by every error Exact and ExactBudget return for a
// lineage they refuse: one of more than 512 facts, or one whose decomposition
// tree would pass the node budget. Each refusal counts in
// shapley.exact.refused. Corpus labeling falls back to the amc sampler on it,
// and the serving daemon to CNFProxy.
var ErrBudget = errors.New("shapley: lineage over the exact engine's budget")

// Stats reports the size of the compiled tree, for the runtime analyses.
type Stats struct {
	LineageSize  int
	CircuitNodes int // decomposition tree nodes, fact leaves included
	Monomials    int
}

// Exact computes the Shapley value of every lineage fact by knowledge
// compilation. The minimized provenance DNF is compiled top-down into a
// decomposition tree, trying three rules in turn on every sub-formula:
//
//   - independent AND: factor out the facts common to every monomial;
//   - independent OR: split the monomials into groups over disjoint facts;
//   - Shannon expansion on the most frequent fact, when neither applies.
//
// Equal sub-formulas share one node (a memo keyed by a hash of the canonical
// monomial list, with an equality check). The children of an AND or OR node
// range over disjoint facts and those of a Shannon node exclude each other,
// so probabilities multiply and add exactly. The values come from Owen's
// multilinear extension: with every fact present independently with
// probability t, node u is true with probability P_u(t), a polynomial whose
// degree m(u) is the number of facts below u, and
//
//	Shapley(f) = ∫₀¹ ∂P_root/∂p_f (t,…,t) dt.
//
// One upward pass computes every P_u. One adjoint pass pushes ∂P_root/∂P_u
// down the tree and collects each fact's integral at the nodes that hold it:
// an AND or OR node's fact leaves, or a Shannon node on it. Every polynomial
// is kept in the Bernstein basis of its own degree, where the coefficients
// are normalized model counts (#models with k facts true / C(m, k)) and the
// integral is their mean. AND multiplies, OR is 1 − ∏(1 − child) and Shannon
// is t·hi + (1−t)·lo; each is a convex combination of coefficients in [0, 1],
// so no large count is ever cancelled.
//
// The values are snapped to the 2^-40 grid. Lineages of more than 512 facts,
// and trees past maxTreeNodes, return an error wrapping ErrBudget.
func Exact(d *provenance.DNF) (Values, *Stats, error) {
	return ExactBudget(d, maxTreeNodes)
}

// ExactBudget is Exact under a node budget of its own: compilation stops with
// ErrBudget as soon as the tree passes budget nodes, fact leaves included.
// Whether it refuses depends only on d and budget.
// The tree does not depend on the budget, so whenever both succeed its values
// equal Exact's bit for bit. A caller with less time than labeling has, such
// as a ranking request, can try it first and answer some other way on
// ErrBudget.
func ExactBudget(d *provenance.DNF, budget int) (Values, *Stats, error) {
	reg := obs.Metrics()
	var t0 time.Time
	if reg != nil {
		t0 = time.Now()
	}
	lineage := d.Lineage()
	if len(lineage) > maxExactVars {
		reg.Counter("shapley.exact.refused").Add(1)
		return nil, nil, fmt.Errorf("%w: lineage has %d facts, the limit is %d", ErrBudget, len(lineage), maxExactVars)
	}
	// Facts the minimized formula drops, and all facts of a constant formula,
	// are null players: their value is 0 and the others' do not depend on them.
	vals := make(Values, len(lineage))
	for _, id := range lineage {
		vals[id] = 0
	}
	st := &Stats{LineageSize: len(lineage), Monomials: len(d.Monomials)}
	if f := d.Clone().Minimize(); !f.IsFalse() && !f.IsTrue() {
		t, root := newTree(f, budget)
		id, err := t.compile(root)
		if err != nil {
			reg.Counter("shapley.exact.refused").Add(1)
			return nil, nil, err
		}
		for i, v := range t.values(id) {
			vals[t.facts[i]] = snap(v)
		}
		st.CircuitNodes = t.size
	}
	if reg != nil {
		reg.Counter("shapley.exact.calls").Add(1)
		reg.Histogram("shapley.exact.lineage_size", obs.ExpBuckets(1, 2, 10)).Observe(float64(st.LineageSize))
		reg.Histogram("shapley.exact.circuit_nodes", obs.ExpBuckets(4, 4, 10)).Observe(float64(st.CircuitNodes))
		if st.LineageSize > 0 {
			perFact := float64(time.Since(t0).Microseconds()) / float64(st.LineageSize)
			reg.Histogram("shapley.exact.us_per_fact", obs.ExpBuckets(1, 4, 12)).Observe(perFact)
		}
	}
	return vals, st, nil
}

// snap rounds a value to the 2^-40 grid. Symmetric facts have equal true
// values, but the float computation can leave them a few ulps apart, and
// Values.Ranking would then order them by rounding noise rather than by fact
// ID. One grid step (about 9.1e-13) is far above that noise and below every
// tolerance the axiom tests allow.
func snap(v float64) float64 {
	return math.Round(v*(1<<40)) / (1 << 40)
}

// A formula is a minimized monotone DNF whose facts are renumbered densely
// from 0: each monomial sorted ascending, the monomials in lexicographic
// order, none containing another. Every rule below keeps that form, so equal
// sub-formulas are equal slices.
type formula []provenance.Monomial

type nodeKind uint8

const (
	andNode nodeKind = iota
	orNode
	shannonNode
)

// treeNode is one node of the decomposition tree. An AND node is its fact
// leaves and its one sub-formula child, if any; an OR node is its
// single-fact groups and the other groups as children; a Shannon node
// branches on facts[0] into kids hi and lo.
type treeNode struct {
	kind  nodeKind
	facts []relation.FactID // dense fact numbers
	kids  []int32
	f     formula   // the node's formula, for the memo's equality check
	p     []float64 // Bernstein coefficients of P_u, of degree m(u)
}

// tree compiles one formula. Nodes are appended after their children, so
// the root is the last node.
type tree struct {
	facts  []relation.FactID // dense fact number -> fact
	nodes  []treeNode
	memo   map[uint64][]int32 // formula hash -> nodes with that hash
	budget int
	size   int               // nodes plus fact leaves, the quantity the budget bounds
	scr    []relation.FactID // per-fact scratch: counts, union-find parents
	grp    []int32           // per-fact scratch: group of a union-find root
}

// newTree indexes the facts of a minimized, non-constant DNF and returns the
// compiler with the DNF as a formula.
func newTree(d *provenance.DNF, budget int) (*tree, formula) {
	facts := d.Lineage()
	pos := make(map[relation.FactID]relation.FactID, len(facts))
	for i, id := range facts {
		pos[id] = relation.FactID(i)
	}
	f := make(formula, len(d.Monomials))
	for i, m := range d.Monomials {
		f[i] = make(provenance.Monomial, len(m))
		for j, id := range m {
			f[i][j] = pos[id] // m is sorted, and so are the numbers
		}
	}
	sort.Slice(f, func(i, j int) bool { return lessMonomial(f[i], f[j]) })
	return &tree{
		facts:  facts,
		memo:   make(map[uint64][]int32),
		budget: budget,
		scr:    make([]relation.FactID, len(facts)),
		grp:    make([]int32, len(facts)),
	}, f
}

// compile returns the node of f, building it and its descendants unless the
// memo has it.
func (t *tree) compile(f formula) (int32, error) {
	h := f.hash()
	for _, id := range t.memo[h] {
		if t.nodes[id].f.equal(f) {
			return id, nil
		}
	}
	nd := treeNode{f: f}
	var err error
	m := 0 // facts below a Shannon node; prob counts the others from the kids
	if common := f.common(); len(common) > 0 {
		nd.kind, nd.facts = andNode, common
		if len(f) > 1 { // else f is the single monomial common
			err = t.addKid(&nd, f.without(common))
		}
	} else if groups := t.components(f); len(groups) > 1 {
		nd.kind = orNode
		for _, g := range groups {
			if len(g) == 1 && len(g[0]) == 1 {
				nd.facts = append(nd.facts, g[0][0])
			} else if err = t.addKid(&nd, g); err != nil {
				break
			}
		}
	} else {
		var x relation.FactID
		x, m = t.mostFrequent(f)
		hi, lo := f.cofactors(x)
		nd.kind, nd.facts = shannonNode, []relation.FactID{x}
		if err = t.addKid(&nd, hi); err == nil {
			err = t.addKid(&nd, lo)
		}
	}
	if err != nil {
		return 0, err
	}
	t.size++
	if nd.kind != shannonNode {
		t.size += len(nd.facts)
	}
	if t.size > t.budget {
		return 0, fmt.Errorf("%w: decomposition tree past %d nodes", ErrBudget, t.budget)
	}
	nd.p = t.prob(&nd, m)
	id := int32(len(t.nodes))
	t.nodes = append(t.nodes, nd)
	t.memo[h] = append(t.memo[h], id)
	return id, nil
}

func (t *tree) addKid(nd *treeNode, f formula) error {
	id, err := t.compile(f)
	nd.kids = append(nd.kids, id)
	return err
}

// prob returns the Bernstein coefficients of a node's probability from its
// children's; m is the Shannon node's fact count.
func (t *tree) prob(nd *treeNode, m int) []float64 {
	if nd.kind == shannonNode {
		hi, lo := t.nodes[nd.kids[0]].p, t.nodes[nd.kids[1]].p
		p := bmul(rise(m-degree(hi)), hi)
		for k, v := range bmul(fall(m-degree(lo)), lo) {
			p[k] += v
		}
		return p
	}
	p := t.power(nd, len(nd.facts))
	for _, c := range nd.kids {
		p = bmul(p, t.operand(nd, c))
	}
	if nd.kind == orNode {
		complement(p)
	}
	return p
}

// operand returns the factor a child contributes to an AND node's product,
// P_c, or to an OR node's product of complements, 1 − P_c.
func (t *tree) operand(nd *treeNode, c int32) []float64 {
	p := t.nodes[c].p
	if nd.kind == andNode {
		return p
	}
	q := append([]float64(nil), p...)
	complement(q)
	return q
}

// power returns the k-th power of a fact leaf's factor: t^k for AND, (1−t)^k
// for OR, in the Bernstein basis of degree k.
func (t *tree) power(nd *treeNode, k int) []float64 {
	p := make([]float64, k+1)
	if nd.kind == andNode {
		p[k] = 1
	} else {
		p[0] = 1
	}
	return p
}

// values runs the adjoint pass from the root and returns every fact's value
// by dense fact number. The adjoint of node u, ∂P_root/∂P_u, is a polynomial in the
// n − m(u) facts outside u, kept in the Bernstein basis of that degree.
func (t *tree) values(root int32) []float64 {
	val := make([]float64, len(t.facts))
	adj := make([][]float64, len(t.nodes))
	adj[root] = one
	for id := root; id >= 0; id-- {
		a, nd := adj[id], &t.nodes[id]
		adj[id] = nil
		if nd.kind == shannonNode {
			hi, lo := nd.kids[0], nd.kids[1]
			m := degree(nd.p)
			phi, plo := t.nodes[hi].p, t.nodes[lo].p
			val[nd.facts[0]] += integral(a, phi) - integral(a, plo)
			accumulate(adj, hi, bmul(rise(m-degree(phi)), a))
			accumulate(adj, lo, bmul(fall(m-degree(plo)), a))
			continue
		}
		// The derivative by one fact leaf is the product of the other
		// factors; by one child, the product of every other factor.
		r := len(nd.kids)
		ops := make([][]float64, r)
		suffix := make([][]float64, r+1)
		suffix[r] = one
		for i := r - 1; i >= 0; i-- {
			ops[i] = t.operand(nd, nd.kids[i])
			suffix[i] = bmul(ops[i], suffix[i+1])
		}
		if k := len(nd.facts); k > 0 {
			v := integral(a, bmul(t.power(nd, k-1), suffix[0]))
			for _, x := range nd.facts {
				val[x] += v
			}
		}
		left := bmul(t.power(nd, len(nd.facts)), a)
		for i, c := range nd.kids {
			accumulate(adj, c, bmul(left, suffix[i+1]))
			if i+1 < r {
				left = bmul(left, ops[i])
			}
		}
	}
	return val
}

// accumulate adds one parent's contribution to a node's adjoint.
func accumulate(adj [][]float64, id int32, v []float64) {
	if adj[id] == nil {
		adj[id] = v
		return
	}
	for k := range v {
		adj[id][k] += v[k]
	}
}

// one is the constant polynomial 1 in the Bernstein basis of degree 0. It is
// shared, so nothing may write to it.
var one = []float64{1}

func degree(p []float64) int { return len(p) - 1 }

func complement(p []float64) {
	for k := range p {
		p[k] = 1 - p[k]
	}
}

// rise is t in the Bernstein basis of degree r ≥ 1, fall is 1 − t. A Shannon
// node on x over m facts weighs its hi child (over m_hi facts) by rise(m −
// m_hi): the factor t for x, times the constant 1 over the m − 1 − m_hi facts
// only lo mentions.
func rise(r int) []float64 {
	p := make([]float64, r+1)
	for j := range p {
		p[j] = float64(j) / float64(r)
	}
	return p
}

func fall(r int) []float64 {
	p := make([]float64, r+1)
	for j := range p {
		p[j] = float64(r-j) / float64(r)
	}
	return p
}

// pascal is the binomial table up to maxExactVars, built on first use.
var pascal = sync.OnceValue(func() *binomTable { return newBinomTable(maxExactVars) })

// bmul multiplies two polynomials in the Bernstein basis: the coefficient of
// degree k of the product is Σ a_i·b_j·C(da,i)·C(db,j)/C(da+db,k) over
// i+j = k, a convex combination of the products a_i·b_j.
func bmul(a, b []float64) []float64 {
	da, db := degree(a), degree(b)
	bt := pascal()
	ra, rb, rn := bt.rows[da], bt.rows[db], bt.rows[da+db]
	out := make([]float64, da+db+1)
	for i, x := range a {
		if x == 0 {
			continue
		}
		x *= ra[i]
		o := out[i : i+db+1]
		for j, y := range b {
			o[j] += x * y * rb[j]
		}
	}
	for k := range out {
		out[k] /= rn[k]
	}
	return out
}

// integral returns ∫₀¹ a(t)·b(t) dt, the mean Bernstein coefficient of the
// product.
func integral(a, b []float64) float64 {
	s := 0.0
	p := bmul(a, b)
	for _, v := range p {
		s += v
	}
	return s / float64(len(p))
}

// binomTable is a Pascal-triangle table of C(n,k) in float64.
type binomTable struct {
	rows [][]float64
}

func newBinomTable(n int) *binomTable {
	t := &binomTable{rows: make([][]float64, n+1)}
	for i := 0; i <= n; i++ {
		row := make([]float64, i+1)
		row[0], row[i] = 1, 1
		for j := 1; j < i; j++ {
			row[j] = t.rows[i-1][j-1] + t.rows[i-1][j]
		}
		t.rows[i] = row
	}
	return t
}

// hash mixes the formula's facts and monomial boundaries into 64 bits.
func (f formula) hash() uint64 {
	h := uint64(14695981039346656037)
	for _, m := range f {
		for _, v := range m {
			h = (h ^ uint64(v)) * 1099511628211
		}
		h = (h ^ math.MaxUint32) * 1099511628211
	}
	return h
}

func (f formula) equal(g formula) bool {
	if len(f) != len(g) {
		return false
	}
	for i, m := range f {
		if len(m) != len(g[i]) {
			return false
		}
		for j, v := range m {
			if g[i][j] != v {
				return false
			}
		}
	}
	return true
}

// common returns the facts every monomial contains.
func (f formula) common() provenance.Monomial {
	c := append(provenance.Monomial(nil), f[0]...)
	for _, m := range f[1:] {
		if len(c) == 0 {
			break
		}
		c = intersect(c, m)
	}
	return c
}

// intersect keeps the facts of c that m contains.
func intersect(c, m provenance.Monomial) provenance.Monomial {
	out, j := c[:0], 0
	for _, v := range c {
		for j < len(m) && m[j] < v {
			j++
		}
		if j < len(m) && m[j] == v {
			out = append(out, v)
		}
	}
	return out
}

// without removes the facts of c from every monomial. Since every monomial
// contains c and none contains another, the result keeps lexicographic order
// and minimality.
func (f formula) without(c provenance.Monomial) formula {
	out := make(formula, len(f))
	for i, m := range f {
		r := make(provenance.Monomial, 0, len(m)-len(c))
		j := 0
		for _, v := range m {
			if j < len(c) && c[j] == v {
				j++
				continue
			}
			r = append(r, v)
		}
		out[i] = r
	}
	return out
}

// components splits the monomials into groups over disjoint facts, each group
// in the formula's order, the groups ordered by their first monomial.
func (t *tree) components(f formula) []formula {
	parent := t.scr
	for _, m := range f {
		for _, v := range m {
			parent[v] = v
		}
	}
	find := func(v relation.FactID) relation.FactID {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	for _, m := range f {
		r := find(m[0])
		for _, v := range m[1:] {
			if s := find(v); s != r {
				parent[s] = r
			}
		}
	}
	for _, m := range f {
		t.grp[find(m[0])] = -1
	}
	var groups []formula
	for _, m := range f {
		r := find(m[0])
		if t.grp[r] < 0 {
			t.grp[r] = int32(len(groups))
			groups = append(groups, nil)
		}
		groups[t.grp[r]] = append(groups[t.grp[r]], m)
	}
	return groups
}

// mostFrequent returns the fact in the most monomials, the smallest on a
// tie, and the number of distinct facts of f.
func (t *tree) mostFrequent(f formula) (x relation.FactID, distinct int) {
	count := t.scr
	for _, m := range f {
		for _, v := range m {
			count[v] = 0
		}
	}
	best := relation.FactID(-1)
	for _, m := range f {
		for _, v := range m {
			if count[v] == 0 {
				distinct++
			}
			count[v]++
			if count[v] > best || (count[v] == best && v < x) {
				x, best = v, count[v]
			}
		}
	}
	return x, distinct
}

// cofactors returns f with x true and with x false. The false cofactor keeps
// the monomials without x. The true one also drops x from the others, and
// then loses each monomial without x that some shortened one absorbs; no
// other absorption is possible in a minimized formula.
func (f formula) cofactors(x relation.FactID) (hi, lo formula) {
	var with formula
	for _, m := range f {
		if i := sort.Search(len(m), func(i int) bool { return m[i] >= x }); i < len(m) && m[i] == x {
			r := make(provenance.Monomial, 0, len(m)-1)
			with = append(with, append(append(r, m[:i]...), m[i+1:]...))
		} else {
			lo = append(lo, m)
		}
	}
	hi = make(formula, 0, len(f))
	i := 0
	for _, m := range lo {
		for i < len(with) && lessMonomial(with[i], m) {
			hi = append(hi, with[i])
			i++
		}
		if !absorbed(m, with) {
			hi = append(hi, m)
		}
	}
	return append(hi, with[i:]...), lo
}

// absorbed reports whether some monomial of g is a subset of m.
func absorbed(m provenance.Monomial, g formula) bool {
	for _, w := range g {
		if w.SubsetOf(m) {
			return true
		}
	}
	return false
}

func lessMonomial(a, b provenance.Monomial) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
