package engine

import (
	"fmt"

	"repro/internal/relation"
	"repro/internal/sqlparse"
)

// EvaluateNaive evaluates the query by enumerating the full cross product of
// the FROM relations and filtering. It is exponentially slower than Evaluate
// and exists as a differential-testing oracle.
func EvaluateNaive(db *relation.Database, q *sqlparse.Query) (*Result, error) {
	groups := make(derivations)
	for bi := range q.Selects {
		s := &q.Selects[bi]
		p, err := buildNaive(db, s)
		if err != nil {
			return nil, fmt.Errorf("engine: branch %d: %w", bi, err)
		}
		cur := make(row, len(s.From))
		p.enumerate(0, cur, groups)
	}
	return groups.result(), nil
}

type naivePlan struct {
	stmt        *sqlparse.SelectStmt
	relations   [][]*relation.Fact
	preds       []resolvedPred
	projections []colRef
}

func buildNaive(db *relation.Database, s *sqlparse.SelectStmt) (*naivePlan, error) {
	// Reuse the optimized planner's resolution, but keep every predicate as a
	// residual filter applied to full rows and scan unfiltered relations.
	base, err := buildPlan(db, s)
	if err != nil {
		return nil, err
	}
	p := &naivePlan{stmt: s, projections: base.projections}
	for _, name := range s.From {
		rel, _ := db.Relation(name)
		p.relations = append(p.relations, rel.Facts)
	}
	// Re-resolve all predicates without pushdown.
	full, err := buildPlanAllResidual(db, s)
	if err != nil {
		return nil, err
	}
	p.preds = full
	return p, nil
}

func buildPlanAllResidual(db *relation.Database, s *sqlparse.SelectStmt) ([]resolvedPred, error) {
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
	var preds []resolvedPred
	for _, pd := range s.Predicates {
		left, err := resolve(pd.Left)
		if err != nil {
			return nil, err
		}
		rp := resolvedPred{pred: pd, left: left}
		if pd.RightIsColumn {
			rp.right, err = resolve(pd.RightColumn)
			if err != nil {
				return nil, err
			}
		}
		preds = append(preds, rp)
	}
	return preds, nil
}

func (p *naivePlan) enumerate(pos int, cur row, groups derivations) {
	if pos == len(p.relations) {
		for _, rp := range p.preds {
			left := cur[rp.left.fromIdx].Values[rp.left.colIdx]
			var right relation.Value
			if rp.pred.RightIsColumn {
				right = cur[rp.right.fromIdx].Values[rp.right.colIdx]
			} else {
				right = rp.pred.RightValue
			}
			if !rp.pred.Op.Apply(left, right) {
				return
			}
		}
		groups.add(p.projections, cur)
		return
	}
	for _, f := range p.relations[pos] {
		cur[pos] = f
		p.enumerate(pos+1, cur, groups)
	}
	cur[pos] = nil
}
