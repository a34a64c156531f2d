package engine

import (
	"strings"
	"testing"

	"repro/internal/paperdb"
	"repro/internal/sqlparse"
)

func TestExplainChainJoin(t *testing.T) {
	db, _ := paperdb.New()
	plan, err := Explain(db, sqlparse.MustParse(paperdb.QInf), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"scan", "hash join", "project DISTINCT actors.name"} {
		if !strings.Contains(plan, want) {
			t.Errorf("missing %q in plan:\n%s", want, plan)
		}
	}
	// The year selection is pushed into the movies scan: 4/5 movies are 2007.
	if !strings.Contains(plan, "movies") {
		t.Errorf("plan missing movies scan:\n%s", plan)
	}
	if strings.Contains(plan, "cross join") {
		t.Errorf("connected query should not cross join:\n%s", plan)
	}
}

func TestExplainCrossJoin(t *testing.T) {
	db, _ := paperdb.New()
	plan, err := Explain(db, sqlparse.MustParse(`SELECT actors.name, companies.name FROM actors, companies`), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "cross join") {
		t.Errorf("disconnected query should cross join:\n%s", plan)
	}
}

func TestExplainUnionBranches(t *testing.T) {
	db, _ := paperdb.New()
	plan, err := Explain(db, sqlparse.MustParse(
		`SELECT actors.name FROM actors UNION SELECT companies.name FROM companies`), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "UNION branch 0") || !strings.Contains(plan, "UNION branch 1") {
		t.Errorf("plan missing branches:\n%s", plan)
	}
}

func TestExplainErrors(t *testing.T) {
	db, _ := paperdb.New()
	if _, err := Explain(db, sqlparse.MustParse(`SELECT nosuch.x FROM nosuch`), Options{}); err == nil {
		t.Error("expected unknown-relation error")
	}
}

func TestExplainShowsFilters(t *testing.T) {
	db, _ := paperdb.New()
	// A non-equi column comparison stays a residual filter.
	q := sqlparse.MustParse(`SELECT movies.title FROM movies, actors WHERE movies.year = 2007`)
	// Inject a cross-relation non-equi predicate via the AST (the parser
	// rejects them in SQL form, but the planner must still handle them).
	q.Selects[0].Predicates = append(q.Selects[0].Predicates, sqlparse.Predicate{
		Left:          sqlparse.ColumnRef{Relation: "movies", Column: "year"},
		Op:            sqlparse.OpGt,
		RightIsColumn: true,
		RightColumn:   sqlparse.ColumnRef{Relation: "actors", Column: "age"},
	})
	plan, err := Explain(db, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "filter movies.year > actors.age") {
		t.Errorf("plan missing residual filter:\n%s", plan)
	}
}

// TestExplainTupleSelection pins that the plan shows a requested tuple's
// selection, as EvaluateWithOptions runs it: QInf's actors scan keeps only
// Alice, so the greedy order starts there, while the movies scan keeps its
// year selection alone. A tuple of the wrong arity empties every scan.
func TestExplainTupleSelection(t *testing.T) {
	db, _ := paperdb.New()
	q := sqlparse.MustParse(paperdb.QInf)
	plan, err := Explain(db, q, Options{Tuple: []string{"Alice"}})
	if err != nil {
		t.Fatal(err)
	}
	for rel, want := range map[string]string{"actors": "1/4", "movies": "4/5", "roles": "8/8"} {
		if line := scanLine(plan, rel); !strings.Contains(line, want+" rows after pushdown") {
			t.Errorf("%s scan %q, want %s rows in plan:\n%s", rel, line, want, plan)
		}
	}
	for _, want := range []string{"tuple (Alice) pushed", "start with actors"} {
		if !strings.Contains(plan, want) {
			t.Errorf("missing %q in plan:\n%s", want, plan)
		}
	}
	plan, err = Explain(db, q, Options{Tuple: []string{"Alice", "Bob"}})
	if err != nil {
		t.Fatal(err)
	}
	if line := scanLine(plan, "movies"); !strings.Contains(line, " 0/5 rows") {
		t.Errorf("movies scan %q under a two-value tuple, want 0/5 rows in plan:\n%s", line, plan)
	}
}

// scanLine returns the plan's scan line of the relation.
func scanLine(plan, rel string) string {
	for _, line := range strings.Split(plan, "\n") {
		if f := strings.Fields(line); len(f) > 1 && f[0] == "scan" && f[1] == rel {
			return line
		}
	}
	return ""
}

// TestExplainPinnedText pins the whole plan text of QInf and of a 3-relation
// chain, with and without a requested tuple, so that the join order and the
// key predicates Explain prints stay those run executes.
func TestExplainPinnedText(t *testing.T) {
	db, _ := paperdb.New()
	const chain = `SELECT DISTINCT movies.title FROM movies, roles, actors
WHERE movies.title = roles.movie AND roles.actor = actors.name AND actors.age > 30`
	for _, tc := range []struct {
		name  string
		sql   string
		tuple []string
		want  string
	}{
		{"qinf", paperdb.QInf, nil, `  scan movies                  4/5 rows after pushdown
  scan actors                  4/4 rows after pushdown
  scan companies               3/4 rows after pushdown
  scan roles                   8/8 rows after pushdown
  start with companies
  hash join movies       on movies.company = companies.name
  hash join roles        on movies.title = roles.movie
  hash join actors       on actors.name = roles.actor
  project DISTINCT actors.name
`},
		{"chain", chain, nil, `  scan movies                  5/5 rows after pushdown
  scan roles                   8/8 rows after pushdown
  scan actors                  2/4 rows after pushdown
  start with actors
  hash join roles        on roles.actor = actors.name
  hash join movies       on movies.title = roles.movie
  project DISTINCT movies.title
`},
		{"chain_tuple", chain, []string{"Batman"}, `tuple (Batman) pushed into the projected columns' scans
  scan movies                  1/5 rows after pushdown
  scan roles                   8/8 rows after pushdown
  scan actors                  2/4 rows after pushdown
  start with movies
  hash join roles        on movies.title = roles.movie
  hash join actors       on roles.actor = actors.name
  project DISTINCT movies.title
`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := Explain(db, sqlparse.MustParse(tc.sql), Options{Tuple: tc.tuple})
			if err != nil {
				t.Fatal(err)
			}
			if plan != tc.want {
				t.Errorf("plan:\n%s\nwant:\n%s", plan, tc.want)
			}
		})
	}
}
