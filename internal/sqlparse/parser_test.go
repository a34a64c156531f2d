package sqlparse

import (
	"strings"
	"testing"

	"repro/internal/relation"
)

func TestParseSimpleSelect(t *testing.T) {
	q, err := Parse(`SELECT DISTINCT actors.name FROM actors WHERE actors.age > 30`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Selects) != 1 {
		t.Fatalf("selects = %d", len(q.Selects))
	}
	s := q.Selects[0]
	if !s.Distinct {
		t.Error("DISTINCT not parsed")
	}
	if len(s.Projections) != 1 || s.Projections[0].String() != "actors.name" {
		t.Errorf("projections = %v", s.Projections)
	}
	if len(s.From) != 1 || s.From[0] != "actors" {
		t.Errorf("from = %v", s.From)
	}
	if len(s.Predicates) != 1 {
		t.Fatalf("predicates = %v", s.Predicates)
	}
	p := s.Predicates[0]
	if p.Op != OpGt || p.RightIsColumn || p.RightValue.AsInt() != 30 {
		t.Errorf("predicate = %v", p)
	}
}

func TestParseJoinsAndLiterals(t *testing.T) {
	q, err := Parse(`SELECT movies.title
		FROM movies, companies
		WHERE movies.company = companies.name AND companies.country = 'USA' AND movies.year = 2007`)
	if err != nil {
		t.Fatal(err)
	}
	s := q.Selects[0]
	if s.Distinct {
		t.Error("unexpected DISTINCT")
	}
	joins, sels := 0, 0
	for _, p := range s.Predicates {
		if p.IsJoin() {
			joins++
		} else {
			sels++
		}
	}
	if joins != 1 || sels != 2 {
		t.Errorf("joins = %d, selections = %d", joins, sels)
	}
}

func TestParseUnion(t *testing.T) {
	q, err := Parse(`SELECT a.x FROM a UNION SELECT b.y FROM b UNION ALL SELECT c.z FROM c`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Selects) != 3 {
		t.Fatalf("selects = %d", len(q.Selects))
	}
}

func TestParseUnionArityMismatch(t *testing.T) {
	if _, err := Parse(`SELECT a.x FROM a UNION SELECT b.y, b.z FROM b`); err == nil {
		t.Error("expected arity error")
	}
}

func TestParseGroupByBecomesDistinct(t *testing.T) {
	q, err := Parse(`SELECT d.name FROM d GROUP BY d.name`)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Selects[0].Distinct {
		t.Error("GROUP BY should imply DISTINCT in the SPJU fragment")
	}
}

func TestParseRejectsSelfJoin(t *testing.T) {
	if _, err := Parse(`SELECT a.x FROM a, a`); err == nil {
		t.Error("expected self-join rejection")
	}
}

func TestParseRejectsUnqualifiedColumn(t *testing.T) {
	if _, err := Parse(`SELECT name FROM actors`); err == nil {
		t.Error("expected qualified-column error")
	}
}

func TestParseRejectsUnknownFromReference(t *testing.T) {
	if _, err := Parse(`SELECT b.x FROM a`); err == nil {
		t.Error("expected projection-not-in-FROM error")
	}
	if _, err := Parse(`SELECT a.x FROM a WHERE b.y = 1`); err == nil {
		t.Error("expected predicate-not-in-FROM error")
	}
}

func TestParseRejectsNonEquiColumnComparison(t *testing.T) {
	if _, err := Parse(`SELECT a.x FROM a, b WHERE a.x < b.y`); err == nil {
		t.Error("expected non-equi join rejection")
	}
}

func TestParseRejectsTrailingGarbage(t *testing.T) {
	if _, err := Parse(`SELECT a.x FROM a HAVING`); err == nil {
		t.Error("expected trailing-input error")
	}
}

func TestParseLike(t *testing.T) {
	q, err := Parse(`SELECT p.name FROM p WHERE p.name LIKE 'B%'`)
	if err != nil {
		t.Fatal(err)
	}
	p := q.Selects[0].Predicates[0]
	if p.Op != OpLike || p.RightValue.AsString() != "B%" {
		t.Errorf("predicate = %v", p)
	}
}

func TestParseOperatorVariants(t *testing.T) {
	ops := map[string]CompareOp{
		"=": OpEq, "!=": OpNe, "<>": OpNe,
		"<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
	}
	for sym, want := range ops {
		q, err := Parse(`SELECT a.x FROM a WHERE a.x ` + sym + ` 5`)
		if err != nil {
			t.Fatalf("%s: %v", sym, err)
		}
		if got := q.Selects[0].Predicates[0].Op; got != want {
			t.Errorf("op %s parsed as %v", sym, got)
		}
	}
}

func TestParseFloatAndStringLiterals(t *testing.T) {
	q, err := Parse(`SELECT a.x FROM a WHERE a.x = 2.5 AND a.y = "abc"`)
	if err != nil {
		t.Fatal(err)
	}
	ps := q.Selects[0].Predicates
	if ps[0].RightValue.Kind() != relation.KindFloat || ps[0].RightValue.AsFloat() != 2.5 {
		t.Errorf("float literal = %v", ps[0].RightValue)
	}
	if ps[1].RightValue.Kind() != relation.KindString || ps[1].RightValue.AsString() != "abc" {
		t.Errorf("string literal = %v", ps[1].RightValue)
	}
}

// TestParseExponentLiterals pins that float literals in exponent form, the
// form Value.String renders floats from 1e6 up and below 1e-4 in, parse and
// render back unchanged, while an "e" that starts no exponent stays outside
// the number.
func TestParseExponentLiterals(t *testing.T) {
	for lit, want := range map[string]float64{"1e+06": 1e6, "1.5e+21": 1.5e21, "2.5e-05": 2.5e-5} {
		sql := `SELECT a.x FROM a WHERE a.x = ` + lit
		q, err := Parse(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if v := q.Selects[0].Predicates[0].RightValue; v.Kind() != relation.KindFloat || v.AsFloat() != want {
			t.Errorf("%s: literal = %v, want float %v", lit, v, want)
		}
		if got := q.SQL(); got != sql {
			t.Errorf("%s renders as %q", sql, got)
		}
	}
	for _, sql := range []string{`SELECT a.x FROM a WHERE a.x = 1e`, `SELECT a.x FROM a WHERE a.x = 1e+`} {
		if _, err := Parse(sql); err == nil {
			t.Errorf("%s parsed, want an error", sql)
		}
	}
}

func TestSQLRoundTrip(t *testing.T) {
	inputs := []string{
		`SELECT DISTINCT actors.name FROM actors WHERE actors.age > 30`,
		`SELECT movies.title FROM movies, companies WHERE movies.company = companies.name AND companies.country = 'USA'`,
		`SELECT a.x FROM a UNION SELECT b.y FROM b`,
	}
	for _, in := range inputs {
		q, err := Parse(in)
		if err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		rendered := q.SQL()
		q2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("re-parse %q: %v", rendered, err)
		}
		if q2.SQL() != rendered {
			t.Errorf("round trip unstable:\n%q\n%q", rendered, q2.SQL())
		}
	}
}

func TestTablesDistinctSorted(t *testing.T) {
	q := MustParse(`SELECT a.x FROM c, a UNION SELECT b.y FROM b, a`)
	tables := q.Tables()
	want := []string{"a", "b", "c"}
	if len(tables) != 3 {
		t.Fatalf("tables = %v", tables)
	}
	for i := range want {
		if tables[i] != want[i] {
			t.Fatalf("tables = %v, want %v", tables, want)
		}
	}
}

func TestLexComments(t *testing.T) {
	toks, err := Lex("SELECT -- comment\n a.x FROM a")
	if err != nil {
		t.Fatal(err)
	}
	for _, tok := range toks {
		if strings.Contains(tok.Text, "comment") {
			t.Error("comment leaked into tokens")
		}
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := Lex("SELECT 'unterminated"); err == nil {
		t.Error("expected unterminated-string error")
	}
	if _, err := Lex("SELECT @"); err == nil {
		t.Error("expected bad-character error")
	}
}

func TestParseSemicolonTolerated(t *testing.T) {
	if _, err := Parse(`SELECT a.x FROM a;`); err != nil {
		t.Errorf("trailing semicolon should parse: %v", err)
	}
}
