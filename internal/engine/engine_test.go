package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/paperdb"
	"repro/internal/relation"
	"repro/internal/sqlparse"
)

func tupleStrings(r *Result) []string {
	out := make([]string, len(r.Tuples))
	for i, t := range r.Tuples {
		out[i] = t.String()
	}
	return out
}

func mustEval(t *testing.T, db *relation.Database, sql string) *Result {
	t.Helper()
	q, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Evaluate(db, q)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestEvaluateQInfResults(t *testing.T) {
	db, _ := paperdb.New()
	res := mustEval(t, db, paperdb.QInf)
	got := tupleStrings(res)
	want := []string{"(Alice)", "(Bob)", "(David)"}
	if len(got) != len(want) {
		t.Fatalf("q_inf(D) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("q_inf(D) = %v, want %v", got, want)
		}
	}
}

func TestEvaluateQ1Results(t *testing.T) {
	db, _ := paperdb.New()
	res := mustEval(t, db, paperdb.Q1)
	if len(res.Tuples) != 3 {
		t.Fatalf("q1(D) = %v, want Superman, Aquaman, Spiderman", tupleStrings(res))
	}
	keys := res.WitnessKeys()
	for _, title := range []string{"Superman", "Aquaman", "Spiderman"} {
		want := (&OutputTuple{Values: []relation.Value{relation.Str(title)}}).Key()
		if !keys[want] {
			t.Errorf("missing movie %s in q1(D)", title)
		}
	}
}

func TestEvaluateQ2Results(t *testing.T) {
	db, _ := paperdb.New()
	res := mustEval(t, db, paperdb.Q2)
	got := tupleStrings(res)
	want := []string{"(Alice)", "(Carol)"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("q2(D) = %v, want %v", got, want)
	}
}

func TestAliceProvenanceMatchesPaper(t *testing.T) {
	// Example 2.1: Prov(D, q_inf, Alice) =
	// (a1∧m1∧c1∧r1) ∨ (a1∧m2∧c1∧r2) ∨ (a1∧m3∧c2∧r3), lineage of size 9.
	db, f := paperdb.New()
	res := mustEval(t, db, paperdb.QInf)
	var alice *OutputTuple
	for _, tp := range res.Tuples {
		if tp.Values[0].AsString() == "Alice" {
			alice = tp
		}
	}
	if alice == nil {
		t.Fatal("Alice not in q_inf(D)")
	}
	if len(alice.Prov.Monomials) != 3 {
		t.Fatalf("Alice has %d derivations: %v", len(alice.Prov.Monomials), alice.Prov)
	}
	lineage := alice.Lineage()
	if len(lineage) != 9 {
		t.Fatalf("lineage size = %d, want 9 (%v)", len(lineage), lineage)
	}
	wantIDs := map[relation.FactID]bool{
		f.A[0].ID: true,
		f.M[0].ID: true, f.M[1].ID: true, f.M[2].ID: true,
		f.C[0].ID: true, f.C[1].ID: true,
		f.R[0].ID: true, f.R[1].ID: true, f.R[2].ID: true,
	}
	for _, id := range lineage {
		if !wantIDs[id] {
			t.Errorf("unexpected lineage fact %d (%v)", id, db.Fact(id))
		}
	}
}

func TestEvaluateUnionMergesProvenance(t *testing.T) {
	db, _ := paperdb.New()
	// Union of "actors over 40" and "actors in 2007 USA movies" both produce
	// Alice; her provenance must OR the two derivations.
	sql := `SELECT actors.name FROM actors WHERE actors.age > 40
	        UNION ` + paperdb.QInf
	res := mustEval(t, db, sql)
	var alice *OutputTuple
	for _, tp := range res.Tuples {
		if tp.Values[0].AsString() == "Alice" {
			alice = tp
		}
	}
	if alice == nil {
		t.Fatal("Alice missing from union")
	}
	// Single-fact derivation (a1) absorbs the three join derivations.
	if len(alice.Prov.Monomials) != 1 || len(alice.Prov.Monomials[0]) != 1 {
		t.Errorf("union provenance not minimized: %v", alice.Prov)
	}
}

func TestEvaluateEmptyResult(t *testing.T) {
	db, _ := paperdb.New()
	res := mustEval(t, db, `SELECT movies.title FROM movies WHERE movies.year = 1999`)
	if len(res.Tuples) != 0 {
		t.Errorf("expected empty result, got %v", tupleStrings(res))
	}
}

func TestEvaluateCrossProductDisconnected(t *testing.T) {
	db, _ := paperdb.New()
	res := mustEval(t, db, `SELECT actors.name, companies.name FROM actors, companies WHERE actors.age > 40 AND companies.country = 'France'`)
	if len(res.Tuples) != 1 {
		t.Fatalf("cross product = %v", tupleStrings(res))
	}
	if got := res.Tuples[0].String(); got != "(Alice, StudioCanal)" {
		t.Errorf("tuple = %s", got)
	}
}

func TestEvaluateUnknownRelation(t *testing.T) {
	db, _ := paperdb.New()
	q := sqlparse.MustParse(`SELECT nosuch.x FROM nosuch`)
	if _, err := Evaluate(db, q); err == nil {
		t.Error("expected unknown-relation error")
	}
}

func TestEvaluateUnknownColumn(t *testing.T) {
	db, _ := paperdb.New()
	q := sqlparse.MustParse(`SELECT actors.salary FROM actors`)
	if _, err := Evaluate(db, q); err == nil {
		t.Error("expected unknown-column error")
	}
}

func TestEvaluateMaxRowsLimit(t *testing.T) {
	db, _ := paperdb.New()
	q := sqlparse.MustParse(`SELECT actors.name, movies.title, companies.name FROM actors, movies, companies`)
	_, err := EvaluateWithOptions(db, q, Options{MaxRows: 10})
	if err == nil {
		t.Error("expected row-limit error")
	}
}

func TestWitnessKeysPaperExample24(t *testing.T) {
	// Example 2.4: |witnesses(q_inf) ∩ witnesses(q2)| / |union| = 1/4.
	db, _ := paperdb.New()
	a := mustEval(t, db, paperdb.QInf).WitnessKeys()
	b := mustEval(t, db, paperdb.Q2).WitnessKeys()
	inter, union := 0, len(b)
	for k := range a {
		if b[k] {
			inter++
		} else {
			union++
		}
	}
	if inter != 1 || union != 4 {
		t.Errorf("intersection = %d, union = %d; want 1, 4", inter, union)
	}
}

// randomDatabase builds a small random three-table star schema.
func randomDatabase(rng *rand.Rand) *relation.Database {
	db := relation.NewDatabase()
	add := func(s *relation.Schema) {
		if _, err := db.AddRelation(s); err != nil {
			panic(err)
		}
	}
	add(relation.MustSchema("t1",
		relation.Column{Name: "id", Type: relation.KindInt},
		relation.Column{Name: "v", Type: relation.KindInt}))
	add(relation.MustSchema("t2",
		relation.Column{Name: "fk", Type: relation.KindInt},
		relation.Column{Name: "w", Type: relation.KindInt}))
	add(relation.MustSchema("t3",
		relation.Column{Name: "fk", Type: relation.KindInt},
		relation.Column{Name: "u", Type: relation.KindInt}))
	for i := 0; i < 3+rng.Intn(6); i++ {
		db.MustInsert("t1", relation.Int(int64(rng.Intn(5))), relation.Int(int64(rng.Intn(4))))
	}
	for i := 0; i < 3+rng.Intn(8); i++ {
		db.MustInsert("t2", relation.Int(int64(rng.Intn(5))), relation.Int(int64(rng.Intn(4))))
	}
	for i := 0; i < 3+rng.Intn(8); i++ {
		db.MustInsert("t3", relation.Int(int64(rng.Intn(5))), relation.Int(int64(rng.Intn(4))))
	}
	return db
}

func randomQuery(rng *rand.Rand) string {
	ops := []string{"=", "<", ">", "<=", ">=", "!="}
	sql := `SELECT t1.id FROM t1, t2`
	preds := []string{"t1.id = t2.fk"}
	if rng.Intn(2) == 0 {
		sql = `SELECT t1.id, t3.u FROM t1, t2, t3`
		preds = append(preds, "t2.fk = t3.fk")
	}
	for i := 0; i < rng.Intn(3); i++ {
		preds = append(preds, fmt.Sprintf("t2.w %s %d", ops[rng.Intn(len(ops))], rng.Intn(4)))
	}
	sql += " WHERE " + preds[0]
	for _, p := range preds[1:] {
		sql += " AND " + p
	}
	if rng.Intn(3) == 0 {
		sql += " UNION " + sql[:len(sql)]
	}
	return sql
}

func TestEvaluateAgainstNaiveOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 150; trial++ {
		db := randomDatabase(rng)
		sql := randomQuery(rng)
		q, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatalf("parse %q: %v", sql, err)
		}
		fast, err := Evaluate(db, q)
		if err != nil {
			t.Fatalf("evaluate %q: %v", sql, err)
		}
		slow, err := EvaluateNaive(db, q)
		if err != nil {
			t.Fatalf("naive %q: %v", sql, err)
		}
		if len(fast.Tuples) != len(slow.Tuples) {
			t.Fatalf("trial %d: %q: %d vs %d tuples", trial, sql, len(fast.Tuples), len(slow.Tuples))
		}
		for i := range fast.Tuples {
			if fast.Tuples[i].Key() != slow.Tuples[i].Key() {
				t.Fatalf("trial %d: %q: tuple %d differs: %v vs %v",
					trial, sql, i, fast.Tuples[i], slow.Tuples[i])
			}
			if fast.Tuples[i].Prov.Key() != slow.Tuples[i].Prov.Key() {
				t.Fatalf("trial %d: %q: provenance of %v differs:\n%v\n%v",
					trial, sql, fast.Tuples[i], fast.Tuples[i].Prov, slow.Tuples[i].Prov)
			}
		}
	}
}

func TestOutputTupleKeyDistinguishes(t *testing.T) {
	a := &OutputTuple{Values: []relation.Value{relation.Str("x"), relation.Str("y")}}
	b := &OutputTuple{Values: []relation.Value{relation.Str("x\x1fy")}}
	if a.Key() == b.Key() {
		// The separator makes this astronomically unlikely; treat collision
		// as a bug if it ever fires.
		t.Error("tuple keys collide across arities")
	}
}

// TestEvaluateCrossProductAllocsLinear bounds the allocations of grouping
// many derivations under few output tuples: a two-relation cross product
// projected onto one column gives each of the two tuples 300 derivations.
// Deduplicating each new derivation against every earlier one allocated a
// monomial key per comparison, about 200 allocations per joined row here;
// collecting derivations and deduplicating them once takes about 10.
func TestEvaluateCrossProductAllocsLinear(t *testing.T) {
	db := relation.NewDatabase()
	for _, s := range []*relation.Schema{
		relation.MustSchema("a", relation.Column{Name: "name", Type: relation.KindString}),
		relation.MustSchema("b", relation.Column{Name: "id", Type: relation.KindInt}),
	} {
		if _, err := db.AddRelation(s); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"x", "x", "y", "y"} {
		db.MustInsert("a", relation.Str(name))
	}
	const nb = 150
	for i := 0; i < nb; i++ {
		db.MustInsert("b", relation.Int(int64(i)))
	}
	q := sqlparse.MustParse(`SELECT a.name FROM a, b`)
	var res *Result
	allocs := testing.AllocsPerRun(3, func() {
		var err error
		if res, err = Evaluate(db, q); err != nil {
			t.Fatal(err)
		}
	})
	if len(res.Tuples) != 2 || len(res.Tuples[0].Prov.Monomials) != 2*nb {
		t.Fatalf("result %v with %d derivations, want 2 tuples of %d", tupleStrings(res), len(res.Tuples[0].Prov.Monomials), 2*nb)
	}
	const rows = 4 * nb
	if perRow := allocs / rows; perRow > 25 {
		t.Errorf("Evaluate made %.0f allocations per joined row, want at most 25", perRow)
	}
}
