package similarity

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/engine"
	"repro/internal/paperdb"
	"repro/internal/relation"
	"repro/internal/shapley"
	"repro/internal/sqlparse"
)

func TestSyntaxPaperExample23(t *testing.T) {
	// Example 2.3: sim_s(q_inf, q1) = 5/8.
	qinf := sqlparse.MustParse(paperdb.QInf)
	q1 := sqlparse.MustParse(paperdb.Q1)
	if got, want := Syntax(qinf, q1), 5.0/8.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("sim_s(q_inf, q1) = %v, want %v", got, want)
	}
}

func TestSyntaxIdentityAndBounds(t *testing.T) {
	qinf := sqlparse.MustParse(paperdb.QInf)
	if got := Syntax(qinf, qinf); got != 1 {
		t.Errorf("self similarity = %v", got)
	}
	other := sqlparse.MustParse(`SELECT x.a FROM x WHERE x.b = 1`)
	if got := Syntax(qinf, other); got != 0 {
		t.Errorf("disjoint queries similarity = %v", got)
	}
}

func TestSyntaxSymmetric(t *testing.T) {
	qinf := sqlparse.MustParse(paperdb.QInf)
	q2 := sqlparse.MustParse(paperdb.Q2)
	if Syntax(qinf, q2) != Syntax(q2, qinf) {
		t.Error("syntax similarity not symmetric")
	}
}

func TestWitnessPaperExample24(t *testing.T) {
	// Example 2.4: sim_w(q_inf, q2) = 1/4 and sim_w(q_inf, q1) = 0.
	db, _ := paperdb.New()
	eval := func(sql string) map[string]bool {
		res, err := engine.Evaluate(db, sqlparse.MustParse(sql))
		if err != nil {
			t.Fatal(err)
		}
		return res.WitnessKeys()
	}
	winf, w1, w2 := eval(paperdb.QInf), eval(paperdb.Q1), eval(paperdb.Q2)
	if got := Witness(winf, w2); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("sim_w(q_inf, q2) = %v, want 0.25", got)
	}
	if got := Witness(winf, w1); got != 0 {
		t.Errorf("sim_w(q_inf, q1) = %v, want 0 (different projections)", got)
	}
	if got := Witness(winf, winf); got != 1 {
		t.Errorf("self witness similarity = %v", got)
	}
}

func TestWitnessEmptySets(t *testing.T) {
	if Witness(nil, nil) != 0 {
		t.Error("empty vs empty should be 0")
	}
	if Witness(map[string]bool{"a": true}, nil) != 0 {
		t.Error("nonempty vs empty should be 0")
	}
}

func TestKendallTauIdentical(t *testing.T) {
	s := shapley.Values{1: 0.5, 2: 0.3, 3: 0.2}
	if got := KendallTau(s, s); got != 0 {
		t.Errorf("distance to self = %v", got)
	}
}

func TestKendallTauReversed(t *testing.T) {
	a := shapley.Values{1: 3, 2: 2, 3: 1}
	b := shapley.Values{1: 1, 2: 2, 3: 3}
	if got := KendallTau(a, b); got != 1 {
		t.Errorf("fully reversed distance = %v, want 1", got)
	}
}

func TestKendallTauDisjointSupports(t *testing.T) {
	// Rankings over disjoint fact sets: cross pairs are fully discordant,
	// within-set pairs are half-discordant (ordered in one, tied in the other).
	a := shapley.Values{1: 2, 2: 1}
	b := shapley.Values{3: 2, 4: 1}
	// Pairs: (1,2): ordered in a, tied in b -> 0.5. (3,4): 0.5.
	// (1,3),(1,4),(2,3),(2,4): strictly opposite -> 1 each.
	// Total = 5, pairs = C(4,2) = 6 -> 5/6.
	if got, want := KendallTau(a, b), 5.0/6.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("disjoint distance = %v, want %v", got, want)
	}
}

func TestKendallTauBoundsAndSymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() shapley.Values {
			v := shapley.Values{}
			for i := 0; i < 1+rng.Intn(6); i++ {
				v[relation.FactID(rng.Intn(8))] = float64(rng.Intn(5)) / 4
			}
			return v
		}
		a, b := mk(), mk()
		d1, d2 := KendallTau(a, b), KendallTau(b, a)
		return d1 >= 0 && d1 <= 1 && math.Abs(d1-d2) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// kendallTauReference is KendallTau as first written, with four map lookups
// per fact pair: the oracle the slice-based version must match bit for bit.
func kendallTauReference(s1, s2 shapley.Values) float64 {
	universe := make(map[relation.FactID]bool, len(s1)+len(s2))
	for id := range s1 {
		universe[id] = true
	}
	for id := range s2 {
		universe[id] = true
	}
	u := len(universe)
	if u < 2 {
		return 0
	}
	facts := make([]relation.FactID, 0, u)
	for id := range universe {
		facts = append(facts, id)
	}
	sort.Slice(facts, func(i, j int) bool { return facts[i] < facts[j] })
	total := 0.0
	for i := 0; i < len(facts); i++ {
		for j := i + 1; j < len(facts); j++ {
			d1 := s1[facts[i]] - s1[facts[j]]
			d2 := s2[facts[i]] - s2[facts[j]]
			switch {
			case d1*d2 < 0:
				total += 1
			case (d1 == 0) != (d2 == 0):
				total += 0.5
			}
		}
	}
	pairs := float64(u) * float64(u-1) / 2
	return total / pairs
}

// TestKendallTauMatchesReference compares KendallTau with the reference bit
// for bit on random partial rankings: overlapping, disjoint and empty
// supports, tied scores, explicit zero scores, and universes large enough
// that rounding in the pair sum shows.
func TestKendallTauMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	mk := func(lo, n, ids, levels int) shapley.Values {
		v := shapley.Values{}
		for i := 0; i < n; i++ {
			v[relation.FactID(lo+rng.Intn(ids))] = float64(rng.Intn(levels)-levels/2) / 7
		}
		return v
	}
	for trial := 0; trial < 500; trial++ {
		ids, levels := 1+rng.Intn(60), 1+rng.Intn(6)
		n1, n2 := rng.Intn(ids+1), rng.Intn(ids+1)
		lo2 := 0
		if trial%3 == 0 {
			lo2 = ids // disjoint supports
		}
		a, b := mk(0, n1, ids, levels), mk(lo2, n2, ids, levels)
		for _, pair := range [][2]shapley.Values{{a, b}, {b, a}, {a, a}} {
			got, want := KendallTau(pair[0], pair[1]), kendallTauReference(pair[0], pair[1])
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d: KendallTau(%v, %v) = %v, reference %v", trial, pair[0], pair[1], got, want)
			}
		}
	}
}

// tupleRankings evaluates a query and computes the exact Shapley ranking of
// every output tuple.
func tupleRankings(t *testing.T, sql string) []TupleRanking {
	t.Helper()
	db, _ := paperdb.New()
	res, err := engine.Evaluate(db, sqlparse.MustParse(sql))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]TupleRanking, 0, len(res.Tuples))
	for _, tp := range res.Tuples {
		vals, _, err := shapley.Exact(tp.Prov)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, TupleRanking{TupleKey: tp.Key(), Scores: vals})
	}
	return out
}

func TestRankBasedProjectionVariant(t *testing.T) {
	// Section 3.2 / Example 3.1: q3 differs from q_inf only in the projection
	// clause, so their computations are identical and each output tuple of q3
	// aligns perfectly with one tuple of q_inf: sim_r(q_inf, q3) = 1, even
	// though sim_w(q_inf, q3) = 0.
	rinf := tupleRankings(t, paperdb.QInf)
	r3 := tupleRankings(t, paperdb.Q3)
	if got := RankBased(rinf, r3); math.Abs(got-1) > 1e-12 {
		t.Errorf("sim_r(q_inf, q3) = %v, want 1", got)
	}
}

func TestRankBasedSelfSimilarity(t *testing.T) {
	rinf := tupleRankings(t, paperdb.QInf)
	if got := RankBased(rinf, rinf); math.Abs(got-1) > 1e-12 {
		t.Errorf("self rank similarity = %v, want 1", got)
	}
}

func TestRankBasedEmpty(t *testing.T) {
	rinf := tupleRankings(t, paperdb.QInf)
	if RankBased(rinf, nil) != 0 || RankBased(nil, rinf) != 0 || RankBased(nil, nil) != 0 {
		t.Error("empty result sets should give 0")
	}
}

func TestRankBasedSymmetric(t *testing.T) {
	rinf := tupleRankings(t, paperdb.QInf)
	r2 := tupleRankings(t, paperdb.Q2)
	a, b := RankBased(rinf, r2), RankBased(r2, rinf)
	if math.Abs(a-b) > 1e-12 {
		t.Errorf("rank similarity not symmetric: %v vs %v", a, b)
	}
}

func TestRankBasedBetweenZeroAndOne(t *testing.T) {
	queries := []string{paperdb.QInf, paperdb.Q1, paperdb.Q2, paperdb.Q3}
	rankings := make([][]TupleRanking, len(queries))
	for i, q := range queries {
		rankings[i] = tupleRankings(t, q)
	}
	for i := range rankings {
		for j := range rankings {
			got := RankBased(rankings[i], rankings[j])
			if got < 0 || got > 1+1e-12 {
				t.Errorf("sim_r(q%d, q%d) = %v out of [0,1]", i, j, got)
			}
		}
	}
}

func TestRankBasedDistinguishesUnrelatedQueries(t *testing.T) {
	// q1 ranks movie facts, q2 ranks actor facts over a different
	// computation: their rank similarity should be well below the perfect
	// alignment of q_inf vs q3.
	rinf := tupleRankings(t, paperdb.QInf)
	r1 := tupleRankings(t, paperdb.Q1)
	aligned := RankBased(rinf, tupleRankings(t, paperdb.Q3))
	unrelated := RankBased(rinf, r1)
	if unrelated >= aligned {
		t.Errorf("sim_r(q_inf,q1) = %v should be below sim_r(q_inf,q3) = %v", unrelated, aligned)
	}
}
