package serve

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/provenance"
	"repro/internal/relation"
)

// dnf builds a DNF from monomials given as fact-ID lists, in the order given.
func dnf(monomials ...[]relation.FactID) *provenance.DNF {
	d := &provenance.DNF{}
	for _, m := range monomials {
		d.Monomials = append(d.Monomials, provenance.NewMonomial(m...))
	}
	return d
}

// TestMemoVerifiesMonomials stores one answer under a key and looks the key
// up with lineages that differ from the stored one: each is a miss, so a hash
// match alone never answers. The stored lineage, in either monomial order, is
// a hit, and a different lineage stored under the same key does not replace
// it.
func TestMemoVerifiesMonomials(t *testing.T) {
	m := memo{limit: memoBytes}
	k := memoKey{hash: 42, budget: rankExactNodes}
	stored := dnf([]relation.FactID{1, 2}, []relation.FactID{3})
	facts := []RankedFact{{ID: 3, Fact: "c", Score: 0.5}, {ID: 1, Fact: "a", Score: 0.25}, {ID: 2, Fact: "b", Score: 0.25}}
	m.put(k, stored, engineExact, facts)

	for name, other := range map[string]*provenance.DNF{
		"another fact":        dnf([]relation.FactID{1, 2}, []relation.FactID{4}),
		"other grouping":      dnf([]relation.FactID{1}, []relation.FactID{2, 3}),
		"a monomial fewer":    dnf([]relation.FactID{1, 2}),
		"a monomial more":     dnf([]relation.FactID{1, 2}, []relation.FactID{3}, []relation.FactID{4}),
		"a repeated monomial": dnf([]relation.FactID{1, 2}, []relation.FactID{1, 2}),
		"false":               dnf(),
	} {
		if e := m.get(k, other); e != nil {
			t.Errorf("%s: %v hit the entry of %v under the same key", name, other, stored)
		}
	}
	for _, same := range []*provenance.DNF{stored, dnf([]relation.FactID{3}, []relation.FactID{2, 1})} {
		if e := m.get(k, same); e == nil || e.engine != engineExact || !reflect.DeepEqual(e.facts, facts) {
			t.Errorf("%v missed the entry of %v, or returned another answer: %+v", same, stored, e)
		}
	}

	m.put(k, dnf([]relation.FactID{4}), engineProxy, []RankedFact{{ID: 4, Fact: "d", Score: 1}})
	if e := m.get(k, stored); e == nil || e.engine != engineExact {
		t.Errorf("a colliding lineage replaced the stored one: %+v", e)
	}
	if entries, _ := m.stats(); entries != 1 {
		t.Errorf("memo holds %d entries after one store and one colliding store, want 1", entries)
	}
}

// TestMemoMonomialOrder answers a lineage of several derivations, then the
// same lineage with its monomials reversed, at the default budget and at 0.
// The second answer must come from the memo (serve.memo.hits) and equal both
// the first and the uncached answer of the reversed lineage, bit for bit.
func TestMemoMonomialOrder(t *testing.T) {
	run := obs.NewRun("memo-order-test", obs.NewRegistry(), nil, nil)
	obs.Install(run)
	defer obs.Uninstall()
	s := New(Config{Workers: 1, QueueCap: 1}, fixture(t), nil)
	all, err := selfTestCases(s, 64)
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(all, func(c selfTestCase) bool { return len(c.prov.Monomials) > 1 })
	if i < 0 {
		t.Fatal("no test case has a lineage of several derivations")
	}
	prov := all[i].prov
	reversed := &provenance.DNF{Monomials: slices.Clone(prov.Monomials)}
	slices.Reverse(reversed.Monomials)
	ctx := context.Background()
	for n, budget := range []int{rankExactNodes, 0} {
		s.exactNodes = budget
		first, eng := s.answer(ctx, prov)
		got, gotEng := s.answer(ctx, reversed)
		vals, wantEng := s.compute(ctx, reversed)
		if want := s.rankedFacts(vals); gotEng != eng || eng != wantEng || !reflect.DeepEqual(got, first) || !reflect.DeepEqual(got, want) {
			t.Errorf("budget %d: reversed lineage answered %v by %q, first %v by %q, uncached %v by %q",
				budget, got, gotEng, first, eng, want, wantEng)
		}
		if got := run.Reg.Snapshot().Counters["serve.memo.hits"]; got != int64(n+1) {
			t.Errorf("budget %d: serve.memo.hits = %d, want %d: the reversed lineage missed", budget, got, n+1)
		}
	}
}

// TestMemoEvictsOldest stores answers of growing size into a memo bounded
// at about three of them. After every store the retained bytes stay within
// the bound, and the memo holds exactly the newest answers that fit: the
// oldest go first.
func TestMemoEvictsOldest(t *testing.T) {
	type stored struct {
		k     memoKey
		prov  *provenance.DNF
		facts []RankedFact
		size  int
	}
	var all []stored
	for i := 0; i < 12; i++ {
		var ms [][]relation.FactID
		for j := 0; j <= i%4; j++ {
			ms = append(ms, []relation.FactID{relation.FactID(10*i + j)})
		}
		prov := dnf(ms...)
		facts := []RankedFact{{ID: int32(10 * i), Fact: strings.Repeat("x", 8*i), Score: 1}}
		all = append(all, stored{memoKey{hash: uint64(i), budget: rankExactNodes}, prov, facts, entrySize(prov.Monomials, facts)})
	}
	limit := all[9].size + all[10].size + all[11].size
	m := memo{limit: limit}
	for i, st := range all {
		m.put(st.k, st.prov, engineExact, st.facts)
		// The newest answers that fit, oldest excluded first.
		keep, sum := i+1, 0
		for keep > 0 && sum+all[keep-1].size <= limit {
			keep--
			sum += all[keep].size
		}
		entries, bytes := m.stats()
		if bytes > limit || bytes != sum || entries != i+1-keep {
			t.Fatalf("after store %d: %d entries, %d bytes; want %d entries, %d bytes within %d", i, entries, bytes, i+1-keep, sum, limit)
		}
		for j, old := range all[:i+1] {
			if hit := m.get(old.k, old.prov) != nil; hit != (j >= keep) {
				t.Errorf("after store %d: answer %d held %v, want %v", i, j, hit, j >= keep)
			}
		}
	}
}

// TestMemoSkipsAnswersOverBound sets the bound one byte below a lineage's
// answer. The lineage is answered correctly, twice, yet never stored, and a
// smaller answer stored before it stays.
func TestMemoSkipsAnswersOverBound(t *testing.T) {
	s := New(Config{Workers: 1, QueueCap: 1}, fixture(t), nil)
	cases, err := selfTestCases(s, 64)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sizes := make([]int, len(cases))
	for i, c := range cases {
		vals, _ := s.compute(ctx, c.prov)
		sizes[i] = entrySize(c.prov.Monomials, s.rankedFacts(vals))
	}
	small, large := 0, 0
	for i, size := range sizes {
		if size < sizes[small] {
			small = i
		}
		if size > sizes[large] {
			large = i
		}
	}
	if sizes[small] == sizes[large] {
		t.Fatal("every test case's answer has the same size")
	}
	s.memo.limit = sizes[large] - 1
	s.answer(ctx, cases[small].prov)
	vals, wantEng := s.compute(ctx, cases[large].prov)
	want := s.rankedFacts(vals)
	for i := 0; i < 2; i++ {
		if got, eng := s.answer(ctx, cases[large].prov); eng != wantEng || !reflect.DeepEqual(got, want) {
			t.Errorf("answer %d over the bound = %v by %q, want %v by %q", i+1, got, eng, want, wantEng)
		}
	}
	if entries, bytes := s.memo.stats(); entries != 1 || bytes != sizes[small] {
		t.Errorf("memo holds %d entries of %d bytes, want only the smaller answer's %d", entries, bytes, sizes[small])
	}
}

// TestAnswerMemoConcurrent answers overlapping lineages from several
// goroutines at once through a memo bounded at about half of their answers,
// so answers are looked up, stored and evicted concurrently (ci runs it
// under -race, ten times). At the default budget and at 0, where every exact
// attempt is refused, every answer must equal the uncached reference, and
// the memo must end within its bound, having evicted.
func TestAnswerMemoConcurrent(t *testing.T) {
	for _, budget := range []int{rankExactNodes, 0} {
		t.Run(fmt.Sprintf("budget%d", budget), func(t *testing.T) {
			s := New(Config{Workers: 1, QueueCap: 1}, fixture(t), nil)
			s.exactNodes = budget
			cases, err := selfTestCases(s, 8)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			want := make([][]RankedFact, len(cases))
			engines := make([]string, len(cases))
			sizes := map[memoKey]int{}
			for i, c := range cases {
				vals, eng := s.compute(ctx, c.prov)
				want[i], engines[i] = s.rankedFacts(vals), eng
				sizes[memoKey{hash: lineageHash(c.prov), budget: budget}] = entrySize(c.prov.Monomials, want[i])
			}
			total, largest := 0, 0
			for _, size := range sizes {
				total += size
				largest = max(largest, size)
			}
			s.memo.limit = max(largest, total/2)
			if len(sizes) < 2 || total <= s.memo.limit {
				t.Fatalf("%d distinct lineages of %d bytes fit in a bound of %d: nothing to evict", len(sizes), total, s.memo.limit)
			}

			const goroutines, rounds = 4, 3
			var wg sync.WaitGroup
			wg.Add(goroutines)
			for g := 0; g < goroutines; g++ {
				go func(g int) {
					defer wg.Done()
					for r := 0; r < rounds*len(cases); r++ {
						c := (g + r) % len(cases) // each goroutine starts at another case
						if got, eng := s.answer(ctx, cases[c].prov); eng != engines[c] || !reflect.DeepEqual(got, want[c]) {
							t.Errorf("goroutine %d, case %d: answer %v by %q, want %v by %q", g, c, got, eng, want[c], engines[c])
							return
						}
					}
				}(g)
			}
			wg.Wait()
			if entries, bytes := s.memo.stats(); bytes > s.memo.limit || entries >= len(sizes) {
				t.Errorf("memo holds %d of %d lineages in %d bytes, bound %d: want fewer than all, within the bound",
					entries, len(sizes), bytes, s.memo.limit)
			}
		})
	}
}

// benchFacts keeps BenchmarkAnswer's result live.
var benchFacts []RankedFact

// BenchmarkAnswer times Server.answer per lineage over the lineages of 1–5
// facts of the default IMDB corpus, the sizes of the benchmark's rank_short
// workload. "hit" answers each from a warmed memo; "miss" scores and renders
// each through a memo that stores nothing, as every request did before the
// memo.
func BenchmarkAnswer(b *testing.B) {
	corpus, err := dataset.Build(dataset.DefaultConfig(dataset.IMDB))
	if err != nil {
		b.Fatal(err)
	}
	var lineages []*provenance.DNF
	for _, entry := range corpus.Queries {
		for _, tuple := range entry.Result.Tuples {
			if n := len(tuple.Prov.Lineage()); n >= 1 && n <= 5 {
				lineages = append(lineages, tuple.Prov)
			}
		}
	}
	for _, bc := range []struct {
		name  string
		limit int
	}{{"hit", memoBytes}, {"miss", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			s := New(Config{Workers: 1, QueueCap: 1}, corpus, nil)
			s.memo.limit = bc.limit
			ctx := context.Background()
			for _, prov := range lineages {
				s.answer(ctx, prov)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchFacts, _ = s.answer(ctx, lineages[i%len(lineages)])
			}
		})
	}
}
