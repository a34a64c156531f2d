package shapley

import (
	"fmt"

	"repro/internal/provenance"
	"repro/internal/relation"
)

// This file keeps the decision-diagram engine that Exact used before the
// decomposition tree, as the differential-testing oracle. It compiles the
// provenance DNF, by Shannon expansion over a fixed variable order with
// memoization of cofactors, into a quasi-reduced ordered decision diagram:
// each internal node branches on one variable and every root-to-terminal path
// tests all variables in order. Two linear passes then produce all n values:
//
//   - an upward pass computing, for every node u with m(u) remaining
//     variables, the normalized model counts s_u[k] = #models(u, k true)/C(m,k);
//   - a downward pass computing, for every node u at level i, the normalized
//     path counts π_u[j] = #paths(root→u, j true)/C(i,j).
//
// For the variable v at level i, since the provenance is monotone,
//
//	Shapley(v) = (1/n) Σ_{u: level(u)=i} Σ_{j,k} π_u[j]·(s_hi(u)[k]-s_lo(u)[k])·
//	             C(i,j)·C(n-1-i,k)/C(n-1,j+k)
//
// The diagram shares cofactors but never splits a formula into parts over
// disjoint facts, so it grows exponentially on lineages the tree handles in
// a few hundred nodes; the tests keep it to small and mid-sized formulas.

// Circuit is the compiled quasi-reduced ordered decision diagram.
type Circuit struct {
	order []relation.FactID // level -> variable
	nodes []node            // 0 = false terminal, 1 = true terminal
	root  int32
}

type node struct {
	level  int32 // n for terminals
	hi, lo int32
}

const (
	falseNode int32 = 0
	trueNode  int32 = 1
)

// Compile builds the diagram for the provenance DNF.
func Compile(d *provenance.DNF) (*Circuit, error) {
	order := variableOrder(d)
	n := len(order)
	if n > maxExactVars {
		return nil, fmt.Errorf("shapley: exact computation limited to %d facts, lineage has %d", maxExactVars, n)
	}
	c := &Circuit{
		order: order,
		nodes: []node{
			{level: int32(n)}, // false terminal
			{level: int32(n)}, // true terminal
		},
	}
	memo := make(map[string]int32)
	c.root = c.compile(d.Clone().Minimize(), 0, memo)
	return c, nil
}

// variableOrder orders the lineage by first occurrence across monomials
// (monomials visited as stored, i.e. in derivation order). Locality of join
// derivations keeps the resulting diagram narrow.
func variableOrder(d *provenance.DNF) []relation.FactID {
	seen := make(map[relation.FactID]bool)
	var order []relation.FactID
	for _, m := range d.Monomials {
		for _, id := range m {
			if !seen[id] {
				seen[id] = true
				order = append(order, id)
			}
		}
	}
	return order
}

func (c *Circuit) compile(d *provenance.DNF, level int, memo map[string]int32) int32 {
	n := len(c.order)
	if level == n {
		if d.IsTrue() {
			return trueNode
		}
		return falseNode
	}
	key := fmt.Sprintf("%d;%s", level, d.Key())
	if id, ok := memo[key]; ok {
		return id
	}
	v := c.order[level]
	hi := c.compile(d.Restrict(v, true).Minimize(), level+1, memo)
	lo := c.compile(d.Restrict(v, false).Minimize(), level+1, memo)
	id := int32(len(c.nodes))
	c.nodes = append(c.nodes, node{level: int32(level), hi: hi, lo: lo})
	memo[key] = id
	return id
}

// NumNodes reports the circuit size including the two terminals.
func (c *Circuit) NumNodes() int { return len(c.nodes) }

// Eval evaluates the compiled function on a fact set; used for differential
// testing against the source DNF.
func (c *Circuit) Eval(present func(relation.FactID) bool) bool {
	id := c.root
	for id != trueNode && id != falseNode {
		nd := c.nodes[id]
		if present(c.order[nd.level]) {
			id = nd.hi
		} else {
			id = nd.lo
		}
	}
	return id == trueNode
}

// ShapleyAll runs the two counting passes and returns every variable's value.
func (c *Circuit) ShapleyAll() Values {
	n := len(c.order)
	out := make(Values, n)
	if n == 0 {
		return out
	}
	if c.root == trueNode || c.root == falseNode {
		// Constant function: every fact is a null player.
		for _, id := range c.order {
			out[id] = 0
		}
		return out
	}

	// Upward pass: normalized model counts. sat[u] has length n-level(u)+1;
	// sat[u][k] = #models with k true among remaining vars / C(n-level, k).
	sat := make([][]float64, len(c.nodes))
	sat[falseNode] = []float64{0}
	sat[trueNode] = []float64{1}
	// Nodes were appended post-order (children before parents), so a single
	// forward sweep sees children first.
	for id := 2; id < len(c.nodes); id++ {
		nd := c.nodes[id]
		m := n - int(nd.level) // variables decided at or below this node
		s := make([]float64, m+1)
		shi, slo := c.satOf(sat, nd.hi, m-1), c.satOf(sat, nd.lo, m-1)
		for k := 0; k <= m; k++ {
			var fromHi, fromLo float64
			if k >= 1 {
				fromHi = float64(k) / float64(m) * shi[k-1]
			}
			if k <= m-1 {
				fromLo = float64(m-k) / float64(m) * slo[k]
			}
			s[k] = fromHi + fromLo
		}
		sat[id] = s
	}

	// Downward pass: normalized path counts. paths[u] has length level(u)+1.
	paths := make([][]float64, len(c.nodes))
	paths[c.root] = []float64{1}
	for id := int32(len(c.nodes) - 1); id >= 2; id-- {
		pu := paths[id]
		if pu == nil {
			continue // unreachable node (possible only for stale entries)
		}
		nd := c.nodes[id]
		i := int(nd.level)
		if nd.hi >= 2 {
			ph := c.ensure(paths, nd.hi, i+1)
			for j := 0; j <= i; j++ {
				ph[j+1] += pu[j] * float64(j+1) / float64(i+1)
			}
		}
		if nd.lo >= 2 {
			pl := c.ensure(paths, nd.lo, i+1)
			for j := 0; j <= i; j++ {
				pl[j] += pu[j] * float64(i+1-j) / float64(i+1)
			}
		}
	}

	// Combine. hyp(i,j,k) = C(i,j)·C(n-1-i,k)/C(n-1,j+k).
	bin := newBinomTable(n)
	acc := make([]float64, n)
	for id := 2; id < len(c.nodes); id++ {
		pu := paths[id]
		if pu == nil {
			continue
		}
		nd := c.nodes[id]
		i := int(nd.level)
		below := n - 1 - i
		shi, slo := c.satOf(sat, nd.hi, below), c.satOf(sat, nd.lo, below)
		for k := 0; k <= below; k++ {
			diff := shi[k] - slo[k]
			if diff == 0 {
				continue
			}
			for j := 0; j <= i; j++ {
				if pu[j] == 0 {
					continue
				}
				h := bin.at(i, j) * bin.at(below, k) / bin.at(n-1, j+k)
				acc[i] += pu[j] * diff * h
			}
		}
	}
	for level, v := range c.order {
		out[v] = acc[level] / float64(n)
	}
	return out
}

// satOf returns the normalized count vector of a child viewed as having m
// remaining variables. Terminals are constant functions, so their normalized
// vector is flat regardless of m.
func (c *Circuit) satOf(sat [][]float64, id int32, m int) []float64 {
	if id == trueNode {
		v := make([]float64, m+1)
		for k := range v {
			v[k] = 1
		}
		return v
	}
	if id == falseNode {
		return make([]float64, m+1)
	}
	return sat[id]
}

func (c *Circuit) ensure(paths [][]float64, id int32, level int) []float64 {
	if paths[id] == nil {
		paths[id] = make([]float64, level+1)
	}
	return paths[id]
}

func (t *binomTable) at(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	return t.rows[n][k]
}
