package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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
	// t3.u, which queries project, mixes kinds that render alike: the integer
	// 2 and the float 2 are Key-equal, the string "2" is not.
	for i := 0; i < 3+rng.Intn(8); i++ {
		u := rng.Intn(4)
		kinds := []relation.Value{relation.Int(int64(u)), relation.Float(float64(u)), relation.Str(fmt.Sprint(u))}
		db.MustInsert("t3", relation.Int(int64(rng.Intn(5))), kinds[rng.Intn(len(kinds))])
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
		for _, want := range fast.Tuples {
			checkTupleEvaluation(t, db, q, fast, rendering(want))
		}
	}
}

// rendering returns the strings an output tuple renders as, the form in
// which a caller requests it.
func rendering(t *OutputTuple) []string {
	out := make([]string, len(t.Values))
	for i, v := range t.Values {
		out[i] = v.String()
	}
	return out
}

// firstRendering returns the first tuple of r, in Key order, that renders as
// tuple, or nil.
func firstRendering(r *Result, tuple []string) *OutputTuple {
	for _, t := range r.Tuples {
		if slices.Equal(rendering(t), tuple) {
			return t
		}
	}
	return nil
}

// checkTupleEvaluation evaluates q with Options.Tuple set to tuple and
// compares the result with the full result: every tuple it holds is a
// full-result tuple with the same provenance (no output group was split),
// every full-result tuple that renders as tuple is among them, and the first
// that renders as tuple is the full result's first. It returns the
// restricted result.
func checkTupleEvaluation(t *testing.T, db *relation.Database, q *sqlparse.Query, full *Result, tuple []string) *Result {
	t.Helper()
	got, err := EvaluateWithOptions(db, q, Options{Tuple: tuple})
	if err != nil {
		t.Fatalf("%s: evaluate tuple %q: %v", q.SQL(), tuple, err)
	}
	fullByKey := make(map[string]*OutputTuple, len(full.Tuples))
	for _, ft := range full.Tuples {
		fullByKey[ft.Key()] = ft
	}
	for _, gt := range got.Tuples {
		ft, ok := fullByKey[gt.Key()]
		if !ok {
			t.Fatalf("%s: tuple %q evaluated %v, which full evaluation does not produce", q.SQL(), tuple, gt)
		}
		if gt.Prov.Key() != ft.Prov.Key() {
			t.Fatalf("%s: tuple %q: provenance of %v is %v, full evaluation gives %v", q.SQL(), tuple, gt, gt.Prov, ft.Prov)
		}
	}
	kept := got.WitnessKeys()
	for _, ft := range full.Tuples {
		if slices.Equal(rendering(ft), tuple) && !kept[ft.Key()] {
			t.Fatalf("%s: tuple %q dropped %v", q.SQL(), tuple, ft)
		}
	}
	a, b := firstRendering(full, tuple), firstRendering(got, tuple)
	if a == nil || b == nil || a.Key() != b.Key() {
		t.Fatalf("%s: first tuple rendering as %q is %v, full evaluation's is %v", q.SQL(), tuple, b, a)
	}
	return got
}

// TestRenderingsOfCoversEveryValue checks the candidates a requested string
// selects by, over every kind and the numeric edge cases: each value must be
// Key-equal to a candidate of its own rendering, so the selection keeps every
// fact that renders as requested, and every candidate must render as the
// string, so strings that only parse to a number ("05", "+5", "1e6", "Inf")
// select no number.
func TestRenderingsOfCoversEveryValue(t *testing.T) {
	vals := []relation.Value{
		relation.Null(), relation.Bool(true), relation.Bool(false),
		relation.Str(""), relation.Str("NULL"), relation.Str("5"), relation.Str("05"), relation.Str("+5"),
		relation.Str("1e6"), relation.Str("Inf"), relation.Str("nan"),
		relation.Int(math.MinInt64), relation.Int(math.MaxInt64), relation.Int(1 << 53), relation.Int(1<<53 + 1),
		relation.Float(math.Copysign(0, -1)), relation.Float(math.NaN()), relation.Float(math.Inf(1)), relation.Float(math.Inf(-1)),
		relation.Float(1e6), relation.Float(5.5),
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		vals = append(vals, relation.Int(rng.Int63()-rng.Int63()), relation.Int(int64(rng.Intn(2000)-1000)),
			relation.Float(math.Float64frombits(rng.Uint64())), relation.Float(rng.NormFloat64()*1e6))
	}
	for _, v := range vals {
		s := v.String()
		candidates := renderingsOf(s)
		if !slices.ContainsFunc(candidates, v.KeyEqual) {
			t.Errorf("%s %v: no candidate of %q is Key-equal to it: %v", v.Kind(), v, s, candidates)
		}
		for _, c := range candidates {
			if c.String() != s {
				t.Errorf("candidate %s %v of %q renders as %q", c.Kind(), c, s, c.String())
			}
		}
	}
}

// TestEvaluateTupleKeepsGroupsWhole pins Options.Tuple on values that render
// alike. The integer 5 and the float 5 are Key-equal, so their derivations
// (from both UNION branches) form one output tuple; the string "5" forms
// another, and so do NULL and the string "NULL". Requesting "5" or "NULL"
// must keep both of its groups whole and merge neither. The integer 1000000
// and the float 1e6 are Key-equal too but render differently, so a
// selection by rendering alone would split their tuple. A tuple of the
// wrong arity must select nothing, branch by branch.
func TestEvaluateTupleKeepsGroupsWhole(t *testing.T) {
	db := relation.NewDatabase()
	for _, s := range []*relation.Schema{
		relation.MustSchema("a", relation.Column{Name: "k", Type: relation.KindInt}, relation.Column{Name: "v", Type: relation.KindString}),
		relation.MustSchema("b", relation.Column{Name: "k", Type: relation.KindInt}),
		relation.MustSchema("c", relation.Column{Name: "w", Type: relation.KindString}),
	} {
		if _, err := db.AddRelation(s); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range [][2]relation.Value{
		{relation.Int(1), relation.Int(5)},
		{relation.Int(2), relation.Float(5)},
		{relation.Int(3), relation.Str("5")},
		{relation.Int(1), relation.Null()},
		{relation.Int(2), relation.Str("NULL")},
		{relation.Int(3), relation.Int(6)},
		{relation.Int(1), relation.Int(1000000)},
	} {
		db.MustInsert("a", r[0], r[1])
	}
	for _, k := range []int64{1, 2, 3, 2} {
		db.MustInsert("b", relation.Int(k))
	}
	for _, w := range []relation.Value{relation.Float(5), relation.Str("NULL"), relation.Null(), relation.Str("5"), relation.Int(7), relation.Float(1e6), relation.Float(5.5)} {
		db.MustInsert("c", w)
	}
	q := sqlparse.MustParse(`SELECT a.v FROM a, b WHERE a.k = b.k UNION SELECT c.w FROM c`)
	full, err := Evaluate(db, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		tuple string
		// derivations of each group that renders as tuple, in Key order
		derivations []int
	}{
		{"5", []int{4, 2}},    // 5 (a's Int and Float, b twice for k=2, c's Float); "5"
		{"NULL", []int{2, 3}}, // NULL; "NULL"
		{"1000000", []int{2}}, // a's 1000000 and c's 1e+06
		{"5.5", []int{1}},     // a float that no integer renders as
	} {
		got := checkTupleEvaluation(t, db, q, full, []string{tc.tuple})
		var derivations []int
		for _, gt := range got.Tuples {
			derivations = append(derivations, len(gt.Prov.Monomials))
		}
		if fmt.Sprint(derivations) != fmt.Sprint(tc.derivations) {
			t.Errorf("tuple %q: groups %v with %v derivations, want %v", tc.tuple, tupleStrings(got), derivations, tc.derivations)
		}
	}

	for _, tuple := range [][]string{{}, {"5", "5"}} {
		got, err := EvaluateWithOptions(db, q, Options{Tuple: tuple})
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Tuples) != 0 {
			t.Errorf("tuple %q of the wrong arity: %v, want no tuples", tuple, tupleStrings(got))
		}
	}
	// A branch of another arity adds no rows; the others still do. The
	// parser rejects such a UNION, so the second branch is widened in the AST.
	q.Selects[1].Projections = append(q.Selects[1].Projections, q.Selects[1].Projections[0])
	got, err := EvaluateWithOptions(db, q, Options{Tuple: []string{"5"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Tuples) != 2 || len(got.Tuples[0].Prov.Monomials) != 3 || len(got.Tuples[1].Prov.Monomials) != 1 {
		t.Errorf("tuple 5 with a two-column second branch: %v, want the first branch's 5 (3 derivations) and \"5\" (1)", tupleStrings(got))
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
