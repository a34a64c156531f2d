package dataset

import (
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/shapley"
	"repro/internal/sqlparse"
)

func smallConfig(kind Kind) Config {
	cfg := DefaultConfig(kind)
	cfg.NumQueries = 12
	cfg.MaxCasesPerQuery = 6
	return cfg
}

func buildSmall(t *testing.T, kind Kind) *Corpus {
	t.Helper()
	c, err := Build(smallConfig(kind))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGenIMDBShape(t *testing.T) {
	db := GenIMDB(7, Scale{Base: 1})
	for _, rel := range []string{"companies", "movies", "actors", "roles"} {
		r, ok := db.Relation(rel)
		if !ok {
			t.Fatalf("missing relation %q", rel)
		}
		if len(r.Facts) < 2 {
			t.Errorf("relation %q nearly empty: %d facts", rel, len(r.Facts))
		}
	}
	// Referential integrity: every role references an existing movie/actor.
	movies := map[string]bool{}
	mr, _ := db.Relation("movies")
	for _, f := range mr.Facts {
		movies[f.Values[0].AsString()] = true
	}
	rr, _ := db.Relation("roles")
	for _, f := range rr.Facts {
		if !movies[f.Values[0].AsString()] {
			t.Fatalf("dangling role movie %q", f.Values[0].AsString())
		}
	}
}

func TestGenAcademicShape(t *testing.T) {
	db := GenAcademic(7, Scale{Base: 1})
	for _, rel := range []string{"organization", "author", "conference", "domain", "domain_conference", "publication", "writes"} {
		if _, ok := db.Relation(rel); !ok {
			t.Fatalf("missing relation %q", rel)
		}
	}
	// Every author's org exists.
	orgs := map[string]bool{}
	or, _ := db.Relation("organization")
	for _, f := range or.Facts {
		orgs[f.Values[0].AsString()] = true
	}
	ar, _ := db.Relation("author")
	for _, f := range ar.Facts {
		if !orgs[f.Values[1].AsString()] {
			t.Fatalf("dangling author org %q", f.Values[1].AsString())
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := GenIMDB(42, Scale{Base: 1})
	b := GenIMDB(42, Scale{Base: 1})
	if a.NumFacts() != b.NumFacts() {
		t.Fatalf("fact counts differ: %d vs %d", a.NumFacts(), b.NumFacts())
	}
	for i := 0; i < a.NumFacts(); i++ {
		fa, fb := a.Fact(relation.FactID(i)), b.Fact(relation.FactID(i))
		if fa.String() != fb.String() {
			t.Fatalf("fact %d differs: %v vs %v", i, fa, fb)
		}
	}
}

func TestBuildCorpusIMDB(t *testing.T) {
	c := buildSmall(t, IMDB)
	if len(c.Queries) != 12 {
		t.Fatalf("queries = %d", len(c.Queries))
	}
	total := len(c.Train) + len(c.Dev) + len(c.Test)
	if total != 12 {
		t.Fatalf("split sizes %d+%d+%d != 12", len(c.Train), len(c.Dev), len(c.Test))
	}
	if len(c.Train) == 0 || len(c.Dev) == 0 || len(c.Test) == 0 {
		t.Fatalf("empty split: %d/%d/%d", len(c.Train), len(c.Dev), len(c.Test))
	}
	for _, q := range c.Queries {
		if len(q.Result.Tuples) == 0 {
			t.Errorf("query %d has no results: %s", q.ID, q.SQL)
		}
		if len(q.Cases) == 0 {
			t.Errorf("query %d has no labeled cases: %s", q.ID, q.SQL)
		}
		for _, cs := range q.Cases {
			if len(cs.Gold) == 0 {
				t.Errorf("query %d: case without Shapley labels", q.ID)
			}
			if s := cs.Gold.Sum(); math.Abs(s-1) > 1e-6 {
				t.Errorf("query %d: Shapley sum = %v", q.ID, s)
			}
		}
	}
}

func TestBuildCorpusAcademic(t *testing.T) {
	c := buildSmall(t, Academic)
	if len(c.Queries) != 12 {
		t.Fatalf("queries = %d", len(c.Queries))
	}
	// At least one query should join several tables.
	maxTables := 0
	for _, q := range c.Queries {
		if q.NumTables > maxTables {
			maxTables = q.NumTables
		}
	}
	if maxTables < 3 {
		t.Errorf("workload too flat: max joined tables = %d", maxTables)
	}
}

func TestCorpusQueriesReEvaluate(t *testing.T) {
	// Stored SQL must round-trip through the parser and reproduce the stored
	// result set.
	c := buildSmall(t, IMDB)
	for _, q := range c.Queries[:5] {
		parsed, err := sqlparse.Parse(q.SQL)
		if err != nil {
			t.Fatalf("re-parse %q: %v", q.SQL, err)
		}
		res, err := engine.Evaluate(c.DB, parsed)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tuples) != len(q.Result.Tuples) {
			t.Errorf("query %d: %d vs %d tuples on re-evaluation", q.ID, len(res.Tuples), len(q.Result.Tuples))
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	a := buildSmall(t, IMDB)
	b := buildSmall(t, IMDB)
	for i := range a.Queries {
		if a.Queries[i].SQL != b.Queries[i].SQL {
			t.Fatalf("query %d differs:\n%s\n%s", i, a.Queries[i].SQL, b.Queries[i].SQL)
		}
	}
	for i := range a.Train {
		if a.Train[i] != b.Train[i] {
			t.Fatal("train split differs")
		}
	}
}

func TestStats(t *testing.T) {
	c := buildSmall(t, IMDB)
	all := append(append(append([]int(nil), c.Train...), c.Dev...), c.Test...)
	s := c.Stats(all)
	if s.Queries != 12 || s.Results == 0 || s.Facts == 0 {
		t.Errorf("stats = %+v", s)
	}
	// Facts must be at least results (every tuple has ≥1 contributing fact).
	if s.Facts < s.Results {
		t.Errorf("facts %d < results %d", s.Facts, s.Results)
	}
}

func TestTrainFactIDs(t *testing.T) {
	c := buildSmall(t, IMDB)
	seen := c.TrainFactIDs()
	if len(seen) == 0 {
		t.Fatal("no train facts")
	}
	// Every ID must be a real fact.
	for id := range seen {
		if c.DB.Fact(id) == nil {
			t.Fatalf("unknown fact %d", id)
		}
	}
}

func TestSimilarityCache(t *testing.T) {
	c := buildSmall(t, IMDB)
	sc := NewSimilarityCache(c)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			syn, wit, rnk := sc.Syntax(i, j), sc.Witness(i, j), sc.Rank(i, j)
			for name, v := range map[string]float64{"syntax": syn, "witness": wit, "rank": rnk} {
				if v < 0 || v > 1+1e-9 {
					t.Errorf("%s(%d,%d) = %v out of range", name, i, j, v)
				}
			}
			if sc.Syntax(j, i) != syn || sc.Witness(j, i) != wit || sc.Rank(j, i) != rnk {
				t.Errorf("cache not symmetric at (%d,%d)", i, j)
			}
		}
	}
	if sc.Syntax(2, 2) != 1 {
		t.Errorf("self syntax similarity = %v", sc.Syntax(2, 2))
	}
	if got := sc.ByMetric("witness")(0, 1); got != sc.Witness(0, 1) {
		t.Error("ByMetric(witness) mismatch")
	}
	if got := sc.ByMetric("rank")(0, 1); got != sc.Rank(0, 1) {
		t.Error("ByMetric(rank) mismatch")
	}
	if got := sc.ByMetric("syntax")(0, 1); got != sc.Syntax(0, 1) {
		t.Error("ByMetric(syntax) mismatch")
	}
}

// TestSimilarityCacheConcurrentPrecompute fills a cache on 4 workers and
// checks every pair and metric bitwise against serial lookups on a fresh
// cache; a second Precompute must then hit on every lookup and miss on none.
// ci.sh runs the package under the race detector, which checks the lock.
func TestSimilarityCacheConcurrentPrecompute(t *testing.T) {
	c := buildSmall(t, IMDB)
	run := obs.NewRun("simcache-test", obs.NewRegistry(), nil, nil)
	obs.Install(run)
	defer obs.Uninstall()
	idx := make([]int, len(c.Queries))
	for i := range idx {
		idx[i] = i
	}
	metrics := []string{"syntax", "witness", "rank"}
	sc := NewSimilarityCache(c)
	sc.Precompute(4, idx)
	serial := NewSimilarityCache(c)
	for _, i := range idx {
		for _, j := range idx {
			for _, metric := range metrics {
				got, want := sc.ByMetric(metric)(i, j), serial.ByMetric(metric)(i, j)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s(%d,%d) = %v after Precompute, %v serially", metric, i, j, got, want)
				}
			}
		}
	}
	before := run.Reg.Snapshot().Counters
	sc.Precompute(4, idx)
	after := run.Reg.Snapshot().Counters
	pairs := len(idx) * (len(idx) + 1) / 2
	if hits := after["dataset.simcache.hits"] - before["dataset.simcache.hits"]; hits != int64(pairs*len(metrics)) {
		t.Errorf("second Precompute hit %d times, want %d", hits, pairs*len(metrics))
	}
	if misses := after["dataset.simcache.misses"] - before["dataset.simcache.misses"]; misses != 0 {
		t.Errorf("second Precompute missed %d times, want 0", misses)
	}
}

func TestGoldMatchesFreshShapley(t *testing.T) {
	// Spot check: recompute a case's Shapley values from its provenance.
	c := buildSmall(t, Academic)
	q := c.Queries[0]
	cs := q.Cases[0]
	fresh, _, err := shapley.Exact(cs.Tuple.Prov)
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh) != len(cs.Gold) {
		t.Fatalf("sizes differ: %d vs %d", len(fresh), len(cs.Gold))
	}
	for id, want := range cs.Gold {
		if math.Abs(fresh[id]-want) > 1e-12 {
			t.Errorf("fact %d: %v vs %v", id, fresh[id], want)
		}
	}
}
