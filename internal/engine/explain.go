package engine

import (
	"fmt"
	"strings"

	"repro/internal/relation"
	"repro/internal/sqlparse"
)

// Explain renders the evaluation plan EvaluateWithOptions would execute for
// the query under opts: per-branch base scans with pushed-down selections,
// a requested tuple's included (and their post-filter cardinalities), the
// greedy join order with the join predicates each step uses, and the
// residual filters. It never executes the joins, so opts.MaxRows is unused.
func Explain(db *relation.Database, q *sqlparse.Query, opts Options) (string, error) {
	var b strings.Builder
	if opts.Tuple != nil {
		fmt.Fprintf(&b, "tuple (%s) pushed into the projected columns' scans\n", strings.Join(opts.Tuple, ", "))
	}
	for bi := range q.Selects {
		s := &q.Selects[bi]
		p, err := buildPlan(db, s, opts.Tuple)
		if err != nil {
			return "", fmt.Errorf("engine: branch %d: %w", bi, err)
		}
		if len(q.Selects) > 1 {
			fmt.Fprintf(&b, "UNION branch %d:\n", bi)
		}
		explainBranch(&b, p, s)
	}
	return b.String(), nil
}

func explainBranch(b *strings.Builder, p *plan, s *sqlparse.SelectStmt) {
	for i, name := range s.From {
		rel, _ := p.db.Relation(name)
		fmt.Fprintf(b, "  scan %-18s %6d/%d rows after pushdown\n",
			name, len(p.base[i]), len(rel.Facts))
	}
	steps := p.joinOrder()
	fmt.Fprintf(b, "  start with %s\n", s.From[steps[0].rel])
	for _, st := range steps[1:] {
		if len(st.keys) == 0 {
			fmt.Fprintf(b, "  cross join %-12s (no connecting predicate)\n", s.From[st.rel])
			continue
		}
		preds := make([]string, len(st.keys))
		for i, j := range st.keys {
			preds[i] = j.pred.String()
		}
		fmt.Fprintf(b, "  hash join %-12s on %s\n", s.From[st.rel], strings.Join(preds, " AND "))
	}
	for _, f := range p.filters {
		fmt.Fprintf(b, "  filter %s\n", f.pred.String())
	}
	var projs []string
	for _, pr := range s.Projections {
		projs = append(projs, pr.String())
	}
	distinct := ""
	if s.Distinct {
		distinct = " DISTINCT"
	}
	fmt.Fprintf(b, "  project%s %s\n", distinct, strings.Join(projs, ", "))
}
