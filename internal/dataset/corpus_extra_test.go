package dataset

import (
	"testing"
)

func TestCasesPreferMultiDerivationTuples(t *testing.T) {
	// The labeling pipeline prioritizes tuples with ≥2 derivations (the ones
	// with a non-trivial Shapley profile); whenever a query has such tuples
	// left unlabeled, no trivial tuple may occupy a case slot before them.
	c := buildSmall(t, IMDB)
	for _, q := range c.Queries {
		multi := 0
		for _, tp := range q.Result.Tuples {
			if len(tp.Prov.Monomials) >= 2 {
				multi++
			}
		}
		if multi == 0 {
			continue
		}
		// Count labeled multi-derivation cases.
		labeledMulti := 0
		for _, cs := range q.Cases {
			if len(cs.Tuple.Prov.Monomials) >= 2 {
				labeledMulti++
			}
		}
		want := multi
		if want > c.Config.MaxCasesPerQuery {
			want = c.Config.MaxCasesPerQuery
		}
		// Lineage-size cutoffs may exclude some candidates, so allow slack,
		// but a query with multi-derivation tuples must label at least one.
		if labeledMulti == 0 {
			t.Errorf("query %d: %d multi-derivation tuples available, none labeled", q.ID, multi)
		}
		_ = want
	}
}

func TestSplitSizesFollowProtocol(t *testing.T) {
	cfg := DefaultConfig(Academic)
	cfg.NumQueries = 30
	c, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Train) != 21 { // 70%
		t.Errorf("train = %d, want 21", len(c.Train))
	}
	if len(c.Dev) != 3 { // 10%
		t.Errorf("dev = %d, want 3", len(c.Dev))
	}
	if len(c.Test) != 6 { // remainder
		t.Errorf("test = %d, want 6", len(c.Test))
	}
	// Splits partition the query set.
	seen := map[int]int{}
	for _, idx := range [][]int{c.Train, c.Dev, c.Test} {
		for _, qi := range idx {
			seen[qi]++
		}
	}
	if len(seen) != 30 {
		t.Errorf("splits cover %d of 30 queries", len(seen))
	}
	for qi, n := range seen {
		if n != 1 {
			t.Errorf("query %d appears in %d splits", qi, n)
		}
	}
}

func TestWorkloadQueriesAreDistinct(t *testing.T) {
	c := buildSmall(t, Academic)
	seen := map[string]bool{}
	for _, q := range c.Queries {
		if seen[q.SQL] {
			t.Errorf("duplicate query: %s", q.SQL)
		}
		seen[q.SQL] = true
	}
}

func TestWorkloadIncludesUnions(t *testing.T) {
	// At the default union probability (~20%), 40+ queries should include at
	// least one UNION; use a larger corpus to make this robust.
	cfg := DefaultConfig(IMDB)
	cfg.NumQueries = 40
	c, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	unions := 0
	for _, q := range c.Queries {
		if len(q.Query.Selects) > 1 {
			unions++
		}
	}
	if unions == 0 {
		t.Error("workload contains no UNION queries")
	}
}

func TestScaleControlsDatabaseSize(t *testing.T) {
	small := GenIMDB(5, 0.5)
	big := GenIMDB(5, 2)
	if small.NumFacts() >= big.NumFacts() {
		t.Errorf("scale ignored: %d vs %d facts", small.NumFacts(), big.NumFacts())
	}
}
