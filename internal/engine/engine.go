// Package engine evaluates SPJU queries over an annotated database while
// tracking boolean provenance. Every output tuple carries its provenance as a
// DNF with one monomial per derivation (the set of facts joined by that
// derivation); the tuple's lineage is the variable set of that DNF.
//
// The evaluator plans greedily: base relations are scanned with their pure
// selections pushed down, then joined smallest-first via hash joins on the
// available equi-join predicates, falling back to filtered cross products
// for disconnected query graphs. Output tuples are grouped by value under set
// semantics, which is also what provenance capture requires.
package engine

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/provenance"
	"repro/internal/relation"
	"repro/internal/sqlparse"
)

// OutputTuple is one row of a query result together with its provenance.
type OutputTuple struct {
	Values []relation.Value
	Prov   *provenance.DNF
}

// Key returns a canonical identity for the tuple's values; used to group
// derivations and to intersect witness sets across queries.
func (t *OutputTuple) Key() string { return valuesKey(t.Values) }

func valuesKey(vals []relation.Value) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = v.Key()
	}
	return strings.Join(parts, "\x1f")
}

// Lineage returns the sorted fact IDs contributing to the tuple.
func (t *OutputTuple) Lineage() []relation.FactID { return t.Prov.Lineage() }

// String renders the tuple values.
func (t *OutputTuple) String() string {
	parts := make([]string, len(t.Values))
	for i, v := range t.Values {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Result is the set of output tuples of a query, sorted canonically.
type Result struct {
	Tuples []*OutputTuple
}

// WitnessKeys returns the set of output-tuple keys; the witness set used by
// witness-based similarity.
func (r *Result) WitnessKeys() map[string]bool {
	out := make(map[string]bool, len(r.Tuples))
	for _, t := range r.Tuples {
		out[t.Key()] = true
	}
	return out
}

// Options configures evaluation limits.
type Options struct {
	// MaxRows bounds the number of intermediate join rows; evaluation fails
	// with an error beyond it. Zero means the default of 2,000,000.
	MaxRows int
}

const defaultMaxRows = 2_000_000

// Evaluate runs the query over the database with default options.
func Evaluate(db *relation.Database, q *sqlparse.Query) (*Result, error) {
	return EvaluateWithOptions(db, q, Options{})
}

// EvaluateWithOptions runs the query over the database.
func EvaluateWithOptions(db *relation.Database, q *sqlparse.Query, opts Options) (*Result, error) {
	if opts.MaxRows == 0 {
		opts.MaxRows = defaultMaxRows
	}
	groups := make(derivations)
	for i := range q.Selects {
		if err := evaluateSelect(db, &q.Selects[i], opts, groups); err != nil {
			return nil, fmt.Errorf("engine: branch %d: %w", i, err)
		}
	}
	return groups.result(), nil
}

// row is a partial join result: one fact per already-joined FROM position.
type row []*relation.Fact

// derivations groups joined rows by their projected values, keeping each
// output tuple's derivations in first-occurrence order across all UNION
// branches.
type derivations map[string]*derived

type derived struct {
	values []relation.Value
	ms     []provenance.Monomial
}

// add records one joined row as a derivation of the tuple it projects to.
func (d derivations) add(projections []colRef, r row) {
	vals := make([]relation.Value, len(projections))
	for i, pc := range projections {
		vals[i] = r[pc.fromIdx].Values[pc.colIdx]
	}
	ids := make([]relation.FactID, len(r))
	for i, f := range r {
		ids[i] = f.ID
	}
	key := valuesKey(vals)
	g, ok := d[key]
	if !ok {
		g = &derived{values: vals}
		d[key] = g
	}
	g.ms = append(g.ms, provenance.NewMonomial(ids...))
}

// result builds every tuple's provenance and sorts the tuples canonically.
// Duplicate derivations are dropped once per tuple through FromMonomials'
// map, which keeps grouping linear in a tuple's derivations; checking each
// new derivation against those already present would be quadratic.
func (d derivations) result() *Result {
	res := &Result{Tuples: make([]*OutputTuple, 0, len(d))}
	for _, g := range d {
		res.Tuples = append(res.Tuples, &OutputTuple{
			Values: g.values,
			Prov:   provenance.FromMonomials(g.ms...).Minimize(),
		})
	}
	sort.Slice(res.Tuples, func(i, j int) bool { return res.Tuples[i].Key() < res.Tuples[j].Key() })
	return res
}

func evaluateSelect(db *relation.Database, s *sqlparse.SelectStmt, opts Options, groups derivations) error {
	plan, err := buildPlan(db, s)
	if err != nil {
		return err
	}
	rows, err := plan.run(opts.MaxRows)
	if err != nil {
		return err
	}
	for _, r := range rows {
		groups.add(plan.projections, r)
	}
	return nil
}

// colRef is a resolved column: FROM position and column offset.
type colRef struct {
	fromIdx int
	colIdx  int
}

type resolvedPred struct {
	pred  sqlparse.Predicate
	left  colRef
	right colRef // valid only when pred.RightIsColumn
}

type plan struct {
	db          *relation.Database
	stmt        *sqlparse.SelectStmt
	projections []colRef
	// base[i] holds relation i's facts after pushing down its selections.
	base [][]*relation.Fact
	// joins and filters reference FROM positions.
	joins   []resolvedPred // equi-joins
	filters []resolvedPred // cross-relation non-equi comparisons
}

func buildPlan(db *relation.Database, s *sqlparse.SelectStmt) (*plan, error) {
	p := &plan{db: db, stmt: s}
	fromIdx := make(map[string]int, len(s.From))
	schemas := make([]*relation.Schema, len(s.From))
	for i, name := range s.From {
		rel, ok := db.Relation(name)
		if !ok {
			return nil, fmt.Errorf("unknown relation %q", name)
		}
		fromIdx[name] = i
		schemas[i] = rel.Schema
	}
	resolve := func(c sqlparse.ColumnRef) (colRef, error) {
		fi, ok := fromIdx[c.Relation]
		if !ok {
			return colRef{}, fmt.Errorf("relation %q not in FROM", c.Relation)
		}
		ci, ok := schemas[fi].ColumnIndex(c.Column)
		if !ok {
			return colRef{}, fmt.Errorf("no column %q in relation %q", c.Column, c.Relation)
		}
		return colRef{fromIdx: fi, colIdx: ci}, nil
	}
	for _, pr := range s.Projections {
		c, err := resolve(pr)
		if err != nil {
			return nil, err
		}
		p.projections = append(p.projections, c)
	}
	// Partition predicates: single-relation selections are pushed into base
	// scans; column-column equalities become hash joins; everything else is a
	// residual filter.
	selections := make([][]resolvedPred, len(s.From))
	for _, pd := range s.Predicates {
		left, err := resolve(pd.Left)
		if err != nil {
			return nil, err
		}
		rp := resolvedPred{pred: pd, left: left}
		if pd.RightIsColumn {
			right, err := resolve(pd.RightColumn)
			if err != nil {
				return nil, err
			}
			rp.right = right
			if left.fromIdx == right.fromIdx {
				selections[left.fromIdx] = append(selections[left.fromIdx], rp)
			} else if pd.IsJoin() {
				p.joins = append(p.joins, rp)
			} else {
				p.filters = append(p.filters, rp)
			}
		} else {
			selections[left.fromIdx] = append(selections[left.fromIdx], rp)
		}
	}
	p.base = make([][]*relation.Fact, len(s.From))
	for i, name := range s.From {
		rel, _ := db.Relation(name)
		facts := make([]*relation.Fact, 0, len(rel.Facts))
		for _, f := range rel.Facts {
			if factSatisfies(f, selections[i]) {
				facts = append(facts, f)
			}
		}
		p.base[i] = facts
	}
	return p, nil
}

func factSatisfies(f *relation.Fact, preds []resolvedPred) bool {
	for _, rp := range preds {
		left := f.Values[rp.left.colIdx]
		var right relation.Value
		if rp.pred.RightIsColumn {
			right = f.Values[rp.right.colIdx]
		} else {
			right = rp.pred.RightValue
		}
		if !rp.pred.Op.Apply(left, right) {
			return false
		}
	}
	return true
}

// run executes the join greedily: start from the smallest filtered base
// relation, repeatedly hash-join in the connected relation that minimizes the
// base size, then apply residual filters.
func (p *plan) run(maxRows int) ([]row, error) {
	n := len(p.base)
	joined := make([]bool, n)
	order := make([]int, 0, n)
	// Current rows only populate positions already joined; others are nil.
	start := 0
	for i := 1; i < n; i++ {
		if len(p.base[i]) < len(p.base[start]) {
			start = i
		}
	}
	joined[start] = true
	order = append(order, start)
	rows := make([]row, 0, len(p.base[start]))
	for _, f := range p.base[start] {
		r := make(row, n)
		r[start] = f
		rows = append(rows, r)
	}
	for len(order) < n {
		next := p.pickNext(joined)
		joined[next] = true
		order = append(order, next)
		var err error
		rows, err = p.joinStep(rows, next, joined, maxRows)
		if err != nil {
			return nil, err
		}
	}
	out := rows[:0]
	for _, r := range rows {
		if p.passesFilters(r) {
			out = append(out, r)
		}
	}
	return out, nil
}

// pickNext prefers an unjoined relation connected to the joined set by an
// equi-join, breaking ties by base size; if none is connected it returns the
// smallest unjoined relation (cross product).
func (p *plan) pickNext(joined []bool) int {
	best, bestConnected := -1, false
	for i := range p.base {
		if joined[i] {
			continue
		}
		connected := false
		for _, j := range p.joins {
			if (j.left.fromIdx == i && joined[j.right.fromIdx]) ||
				(j.right.fromIdx == i && joined[j.left.fromIdx]) {
				connected = true
				break
			}
		}
		if best == -1 ||
			(connected && !bestConnected) ||
			(connected == bestConnected && len(p.base[i]) < len(p.base[best])) {
			best, bestConnected = i, connected
		}
	}
	return best
}

func (p *plan) joinStep(rows []row, next int, joined []bool, maxRows int) ([]row, error) {
	// Join predicates usable now: next on one side, an already-joined
	// relation on the other.
	var keyPreds []resolvedPred
	for _, j := range p.joins {
		if j.left.fromIdx == next && joined[j.right.fromIdx] && j.right.fromIdx != next {
			keyPreds = append(keyPreds, j)
		} else if j.right.fromIdx == next && joined[j.left.fromIdx] && j.left.fromIdx != next {
			keyPreds = append(keyPreds, j)
		}
	}
	newRows := make([]row, 0, len(rows))
	if len(keyPreds) == 0 {
		// Cross product.
		for _, r := range rows {
			for _, f := range p.base[next] {
				nr := make(row, len(r))
				copy(nr, r)
				nr[next] = f
				newRows = append(newRows, nr)
				if len(newRows) > maxRows {
					return nil, fmt.Errorf("intermediate result exceeds %d rows", maxRows)
				}
			}
		}
		return newRows, nil
	}
	// Build hash index on the new relation's join columns.
	nextCols := make([]int, len(keyPreds))
	rowSide := make([]colRef, len(keyPreds))
	for i, kp := range keyPreds {
		if kp.left.fromIdx == next {
			nextCols[i] = kp.left.colIdx
			rowSide[i] = kp.right
		} else {
			nextCols[i] = kp.right.colIdx
			rowSide[i] = kp.left
		}
	}
	index := make(map[string][]*relation.Fact, len(p.base[next]))
	var kb strings.Builder
	for _, f := range p.base[next] {
		kb.Reset()
		for _, c := range nextCols {
			kb.WriteString(f.Values[c].Key())
			kb.WriteByte('\x1f')
		}
		k := kb.String()
		index[k] = append(index[k], f)
	}
	for _, r := range rows {
		kb.Reset()
		for _, rc := range rowSide {
			kb.WriteString(r[rc.fromIdx].Values[rc.colIdx].Key())
			kb.WriteByte('\x1f')
		}
		for _, f := range index[kb.String()] {
			nr := make(row, len(r))
			copy(nr, r)
			nr[next] = f
			newRows = append(newRows, nr)
			if len(newRows) > maxRows {
				return nil, fmt.Errorf("intermediate result exceeds %d rows", maxRows)
			}
		}
	}
	return newRows, nil
}

func (p *plan) passesFilters(r row) bool {
	for _, f := range p.filters {
		left := r[f.left.fromIdx].Values[f.left.colIdx]
		right := r[f.right.fromIdx].Values[f.right.colIdx]
		if !f.pred.Op.Apply(left, right) {
			return false
		}
	}
	return true
}
