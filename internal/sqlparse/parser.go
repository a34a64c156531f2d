package sqlparse

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/relation"
)

// Parse parses a SPJU query string into its AST.
func Parse(input string) (*Query, error) {
	toks, err := Lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q := &Query{}
	for {
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		q.Selects = append(q.Selects, *sel)
		if !p.acceptKeyword("union") {
			break
		}
		p.acceptKeyword("all") // UNION ALL collapses to UNION under set semantics
	}
	p.acceptSymbol(";")
	if !p.atEOF() {
		return nil, fmt.Errorf("sqlparse: trailing input at %d: %q", p.peek().Pos, p.peek().Text)
	}
	if err := q.validateUnionArity(); err != nil {
		return nil, err
	}
	return q, nil
}

// MustParse is Parse that panics on error; for statically known queries.
func MustParse(input string) *Query {
	q, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return q
}

func (q *Query) validateUnionArity() error {
	if len(q.Selects) == 0 {
		return fmt.Errorf("sqlparse: empty query")
	}
	arity := len(q.Selects[0].Projections)
	for i := 1; i < len(q.Selects); i++ {
		if len(q.Selects[i].Projections) != arity {
			return fmt.Errorf("sqlparse: UNION branches have different arities (%d vs %d)",
				arity, len(q.Selects[i].Projections))
		}
	}
	return nil
}

type parser struct {
	toks []Token
	pos  int
}

func (p *parser) peek() Token { return p.toks[p.pos] }

func (p *parser) next() Token {
	t := p.toks[p.pos]
	if t.Kind != TokenEOF {
		p.pos++
	}
	return t
}

func (p *parser) atEOF() bool { return p.peek().Kind == TokenEOF }

func (p *parser) acceptKeyword(kw string) bool {
	if t := p.peek(); t.Kind == TokenKeyword && t.Text == kw {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		t := p.peek()
		return fmt.Errorf("sqlparse: expected %q at %d, got %q", strings.ToUpper(kw), t.Pos, t.Text)
	}
	return nil
}

func (p *parser) acceptSymbol(sym string) bool {
	if t := p.peek(); t.Kind == TokenSymbol && t.Text == sym {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectIdent() (string, error) {
	t := p.peek()
	if t.Kind != TokenIdent {
		return "", fmt.Errorf("sqlparse: expected identifier at %d, got %q", t.Pos, t.Text)
	}
	p.pos++
	return t.Text, nil
}

func (p *parser) parseColumnRef() (ColumnRef, error) {
	rel, err := p.expectIdent()
	if err != nil {
		return ColumnRef{}, err
	}
	if !p.acceptSymbol(".") {
		t := p.peek()
		return ColumnRef{}, fmt.Errorf("sqlparse: expected qualified column rel.col at %d, got %q after %q", t.Pos, t.Text, rel)
	}
	col, err := p.expectIdent()
	if err != nil {
		return ColumnRef{}, err
	}
	return ColumnRef{Relation: strings.ToLower(rel), Column: strings.ToLower(col)}, nil
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	s := &SelectStmt{}
	s.Distinct = p.acceptKeyword("distinct")
	for {
		c, err := p.parseColumnRef()
		if err != nil {
			return nil, err
		}
		s.Projections = append(s.Projections, c)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	for {
		rel, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		rel = strings.ToLower(rel)
		if seen[rel] {
			return nil, fmt.Errorf("sqlparse: relation %q listed twice in FROM (self-joins are outside the supported fragment)", rel)
		}
		seen[rel] = true
		s.From = append(s.From, rel)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if p.acceptKeyword("where") {
		for {
			pred, err := p.parsePredicate()
			if err != nil {
				return nil, err
			}
			s.Predicates = append(s.Predicates, pred)
			if !p.acceptKeyword("and") {
				break
			}
		}
	}
	if p.acceptKeyword("group") {
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		// GROUP BY without aggregates is DISTINCT over the group keys; the
		// paper's Academic workload uses it that way (Figure 8a).
		for {
			if _, err := p.parseColumnRef(); err != nil {
				return nil, err
			}
			if !p.acceptSymbol(",") {
				break
			}
		}
		s.Distinct = true
	}
	for _, pr := range s.Projections {
		if !seen[pr.Relation] {
			return nil, fmt.Errorf("sqlparse: projection %s references relation not in FROM", pr)
		}
	}
	for _, pd := range s.Predicates {
		if !seen[pd.Left.Relation] {
			return nil, fmt.Errorf("sqlparse: predicate %s references relation not in FROM", pd)
		}
		if pd.RightIsColumn && !seen[pd.RightColumn.Relation] {
			return nil, fmt.Errorf("sqlparse: predicate %s references relation not in FROM", pd)
		}
	}
	return s, nil
}

func (p *parser) parsePredicate() (Predicate, error) {
	left, err := p.parseColumnRef()
	if err != nil {
		return Predicate{}, err
	}
	op, err := p.parseOp()
	if err != nil {
		return Predicate{}, err
	}
	t := p.peek()
	switch t.Kind {
	case TokenIdent:
		right, err := p.parseColumnRef()
		if err != nil {
			return Predicate{}, err
		}
		if op != OpEq {
			return Predicate{}, fmt.Errorf("sqlparse: only equi-joins are supported, got %s between columns", op)
		}
		return Predicate{Left: left, Op: op, RightIsColumn: true, RightColumn: right}, nil
	case TokenNumber:
		p.pos++
		v, err := parseNumber(t.Text)
		if err != nil {
			return Predicate{}, fmt.Errorf("sqlparse: bad number %q at %d: %v", t.Text, t.Pos, err)
		}
		return Predicate{Left: left, Op: op, RightValue: v}, nil
	case TokenString:
		p.pos++
		return Predicate{Left: left, Op: op, RightValue: relation.Str(t.Text)}, nil
	default:
		return Predicate{}, fmt.Errorf("sqlparse: expected comparison right-hand side at %d, got %q", t.Pos, t.Text)
	}
}

func (p *parser) parseOp() (CompareOp, error) {
	t := p.peek()
	if t.Kind == TokenKeyword && t.Text == "like" {
		p.pos++
		return OpLike, nil
	}
	if t.Kind != TokenSymbol {
		return 0, fmt.Errorf("sqlparse: expected comparison operator at %d, got %q", t.Pos, t.Text)
	}
	p.pos++
	switch t.Text {
	case "=":
		return OpEq, nil
	case "!=", "<>":
		return OpNe, nil
	case "<":
		return OpLt, nil
	case "<=":
		return OpLe, nil
	case ">":
		return OpGt, nil
	case ">=":
		return OpGe, nil
	default:
		return 0, fmt.Errorf("sqlparse: unknown operator %q at %d", t.Text, t.Pos)
	}
}

func parseNumber(text string) (relation.Value, error) {
	if strings.ContainsAny(text, ".eE") {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return relation.Null(), err
		}
		return relation.Float(f), nil
	}
	i, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return relation.Null(), err
	}
	return relation.Int(i), nil
}
