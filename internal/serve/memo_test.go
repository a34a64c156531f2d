package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/dataset"
	"repro/internal/obs"
)

// TestMemoRequestKey stores one answer under a request's key and looks up
// requests that differ from it only in how the tuple splits its bytes, in
// one byte of the SQL, in where the SQL ends and the tuple begins, in a
// trailing empty value or in the exact budget: each is a miss. The same
// request, rebuilt from fresh strings, is a hit, and a second store under
// its key keeps the first answer.
func TestMemoRequestKey(t *testing.T) {
	m := memo{limit: memoBytes}
	req := RankRequest{SQL: "SELECT r.a FROM r", Tuple: []string{"a", "bc"}}
	stored := &memoEntry{query: req.SQL, tuple: "(a, bc)", engine: engineExact, facts: []RankedFact{{ID: 1, Fact: "r(a)", Score: 1}}}
	m.put(string(requestKey(rankExactNodes, req)), stored)

	same := RankRequest{SQL: strings.Clone(req.SQL), Tuple: []string{strings.Clone("a"), strings.Clone("bc")}}
	if got := m.get(requestKey(rankExactNodes, same)); got != stored {
		t.Errorf("the same request missed: %+v", got)
	}
	for name, other := range map[string]struct {
		budget int
		req    RankRequest
	}{
		"tuple split":           {rankExactNodes, RankRequest{SQL: req.SQL, Tuple: []string{"ab", "c"}}},
		"values merged":         {rankExactNodes, RankRequest{SQL: req.SQL, Tuple: []string{"abc"}}},
		"a trailing empty":      {rankExactNodes, RankRequest{SQL: req.SQL, Tuple: []string{"a", "bc", ""}}},
		"no tuple":              {rankExactNodes, RankRequest{SQL: req.SQL}},
		"one SQL byte":          {rankExactNodes, RankRequest{SQL: "SELECT r.b FROM r", Tuple: req.Tuple}},
		"SQL/tuple boundary":    {rankExactNodes, RankRequest{SQL: req.SQL + "a", Tuple: []string{"bc"}}},
		"tuple/SQL boundary":    {rankExactNodes, RankRequest{SQL: req.SQL[:len(req.SQL)-1], Tuple: []string{"ra", "bc"}}},
		"another budget":        {0, req},
		"another budget, alike": {rankExactNodes + 1, req},
	} {
		if got := m.get(requestKey(other.budget, other.req)); got != nil {
			t.Errorf("%s: budget %d, %+v hit the entry of %+v", name, other.budget, other.req, req)
		}
	}
	m.put(string(requestKey(rankExactNodes, same)), &memoEntry{engine: engineProxy}) // a concurrent miss storing second
	if got := m.get(requestKey(rankExactNodes, req)); got != stored {
		t.Errorf("a second store under the key replaced the first: %+v", got)
	}
	if entries, _ := m.stats(); entries != 1 {
		t.Errorf("memo holds %d entries after two stores under one key, want 1", entries)
	}
}

// TestMemoRepeatedRequest answers a fixture request twice through
// Server.answer: the second answer comes from the memo (serve.memo.hits).
// The same query with a trailing space, which shares its lineage and its
// answer, is a request of its own: the memo keys requests, not lineages.
func TestMemoRepeatedRequest(t *testing.T) {
	run := obs.NewRun("memo-repeat-test", obs.NewRegistry(), nil, nil)
	obs.Install(run)
	defer obs.Uninstall()
	s := New(Config{Workers: 1, QueueCap: 1}, fixture(t), nil)
	cases, err := selfTestCases(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	first, _, err := s.answer(ctx, cases[0].req)
	if err != nil {
		t.Fatal(err)
	}
	if again, _, err := s.answer(ctx, cases[0].req); err != nil || again != first {
		t.Errorf("the repeated request was not answered from the memo: %+v, %v", again, err)
	}
	spaced, _, err := s.answer(ctx, RankRequest{SQL: cases[0].req.SQL + " ", Tuple: cases[0].req.Tuple})
	if err != nil {
		t.Fatal(err)
	}
	if spaced == first || spaced.query != first.query || spaced.tuple != first.tuple || spaced.engine != first.engine || !reflect.DeepEqual(spaced.facts, first.facts) {
		t.Errorf("the query with a trailing space was answered %+v from the memo or differently, the query %+v", spaced, first)
	}
	if got := run.Reg.Snapshot().Counters["serve.memo.hits"]; got != 1 {
		t.Errorf("serve.memo.hits = %d, want 1: only the repeated request hits", got)
	}
	if entries, _ := s.memo.stats(); entries != 2 {
		t.Errorf("memo holds %d entries after two distinct requests, want 2", entries)
	}
}

// TestMemoEntrySize pins what an entry counts: its key, its two renderings,
// each fact's RankedFact and text, and entryOverhead, which on 64-bit
// platforms is the 80-byte entry, a map slot of 57 bytes, a FIFO slot of 32
// and 40 bytes of allocation rounding (its derivation is at entryOverhead).
func TestMemoEntrySize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the pinned sizes are those of 64-bit platforms")
	}
	if got, want := entryOverhead, 80+57+32+40; got != want {
		t.Errorf("entryOverhead = %d, want %d", got, want)
	}
	e := &memoEntry{query: "SELECT r.a FROM r", tuple: "(a)", engine: engineProxy,
		facts: []RankedFact{{ID: 1, Fact: "r(a)", Score: 2}, {ID: 2, Fact: "r(bb)", Score: 1}}}
	if got, want := entrySize("0123456789", e), 10+17+3+(32+4)+(32+5)+entryOverhead; got != want {
		t.Errorf("entrySize = %d, want %d", got, want)
	}
}

// TestMemoEvictsOldest stores answers of growing size into a memo bounded
// at about three of them. After every store the retained bytes stay within
// the bound, and the memo holds exactly the newest answers that fit: the
// oldest go first.
func TestMemoEvictsOldest(t *testing.T) {
	type stored struct {
		key string
		e   *memoEntry
	}
	var all []stored
	for i := 0; i < 12; i++ {
		req := RankRequest{SQL: fmt.Sprintf("SELECT r.a FROM r WHERE r.b = %d", i), Tuple: []string{strings.Repeat("t", i%4)}}
		e := &memoEntry{query: req.SQL, tuple: "(" + req.Tuple[0] + ")", engine: engineExact,
			facts: []RankedFact{{ID: int32(i), Fact: strings.Repeat("x", 8*i), Score: 1}}}
		key := string(requestKey(rankExactNodes, req))
		e.size = entrySize(key, e)
		all = append(all, stored{key, e})
	}
	limit := all[9].e.size + all[10].e.size + all[11].e.size
	m := memo{limit: limit}
	for i, st := range all {
		fifo, before := m.order[:cap(m.order)], len(m.order) // the FIFO's array before the store
		m.put(st.key, st.e)
		// The newest answers that fit, oldest excluded first.
		keep, sum := i+1, 0
		for keep > 0 && sum+all[keep-1].e.size <= limit {
			keep--
			sum += all[keep].e.size
		}
		entries, bytes := m.stats()
		if bytes > limit || bytes != sum || entries != i+1-keep {
			t.Fatalf("after store %d: %d entries, %d bytes; want %d entries, %d bytes within %d", i, entries, bytes, i+1-keep, sum, limit)
		}
		for j, old := range all[:i+1] {
			if hit := m.get([]byte(old.key)) != nil; hit != (j >= keep) {
				t.Errorf("after store %d: answer %d held %v, want %v", i, j, hit, j >= keep)
			}
		}
		if evicted := before + 1 - entries; len(m.order) != entries || slices.ContainsFunc(fifo[:evicted], func(k string) bool { return k != "" }) {
			t.Fatalf("after store %d: the FIFO holds %d keys for %d entries, or its array keeps an evicted key: %q", i, len(m.order), entries, fifo[:evicted])
		}
	}
}

// TestMemoSkipsAnswersOverBound sets the bound one byte below a request's
// answer. The request is answered correctly, twice, yet never stored, and a
// smaller answer stored before it stays.
func TestMemoSkipsAnswersOverBound(t *testing.T) {
	s := New(Config{Workers: 1, QueueCap: 1}, fixture(t), nil)
	cases, err := selfTestCases(s, 64)
	if err != nil {
		t.Fatal(err)
	}
	want, sizes := uncachedAnswers(t, s, cases)
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
	ctx := context.Background()
	if _, _, err := s.answer(ctx, cases[small].req); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if got, _, err := s.answer(ctx, cases[large].req); err != nil || !sameAnswer(got, want[large]) {
			t.Errorf("answer %d over the bound = %+v (%v), want %+v", i+1, got, err, want[large])
		}
	}
	if entries, bytes := s.memo.stats(); entries != 1 || bytes != sizes[small] {
		t.Errorf("memo holds %d entries of %d bytes, want only the smaller answer's %d", entries, bytes, sizes[small])
	}
}

// uncachedAnswers answers every case on a copy of s whose memo stores
// nothing, and returns the answers with the bytes each would count in the
// memo under s's exact budget.
func uncachedAnswers(t *testing.T, s *Server, cases []selfTestCase) ([]*memoEntry, []int) {
	t.Helper()
	ref := New(Config{Workers: 1, QueueCap: 1}, s.corpus, nil)
	ref.exactNodes = s.exactNodes
	ref.memo.limit = 0
	answers := make([]*memoEntry, len(cases))
	sizes := make([]int, len(cases))
	for i, c := range cases {
		a, _, err := ref.answer(context.Background(), c.req)
		if err != nil {
			t.Fatal(err)
		}
		answers[i], sizes[i] = a, entrySize(string(requestKey(s.exactNodes, c.req)), a)
	}
	return answers, sizes
}

// sameAnswer reports whether two answers carry the same renderings, engine
// and facts.
func sameAnswer(a, b *memoEntry) bool {
	return a != nil && b != nil && a.query == b.query && a.tuple == b.tuple && a.engine == b.engine && reflect.DeepEqual(a.facts, b.facts)
}

// TestAnswerMemoConcurrent answers overlapping requests from several
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
			want, sizes := uncachedAnswers(t, s, cases)
			total, largest := 0, 0
			for _, size := range sizes {
				total += size
				largest = max(largest, size)
			}
			s.memo.limit = max(largest, total/2)
			if len(sizes) < 2 || total <= s.memo.limit {
				t.Fatalf("%d distinct requests of %d bytes fit in a bound of %d: nothing to evict", len(sizes), total, s.memo.limit)
			}

			ctx := context.Background()
			const goroutines, rounds = 4, 3
			var wg sync.WaitGroup
			wg.Add(goroutines)
			for g := 0; g < goroutines; g++ {
				go func(g int) {
					defer wg.Done()
					for r := 0; r < rounds*len(cases); r++ {
						c := (g + r) % len(cases) // each goroutine starts at another case
						if got, _, err := s.answer(ctx, cases[c].req); err != nil || !sameAnswer(got, want[c]) {
							t.Errorf("goroutine %d, case %d: answer %+v (%v), want %+v", g, c, got, err, want[c])
							return
						}
					}
				}(g)
			}
			wg.Wait()
			if entries, bytes := s.memo.stats(); bytes > s.memo.limit || entries >= len(sizes) {
				t.Errorf("memo holds %d of %d requests in %d bytes, bound %d: want fewer than all, within the bound",
					entries, len(sizes), bytes, s.memo.limit)
			}
		})
	}
}

// benchEntry keeps BenchmarkAnswer's result live.
var benchEntry *memoEntry

// BenchmarkAnswer times Server.answer per request over the bodies of two
// benchmark workloads, rebuilt as bench/workload.go picks them:
// rank_short's 487 requests for IMDB tuples of 1–5 facts and rank_long's 24
// for Academic tuples of 16 or more facts, at evenly spaced ranks of their
// size order. "hit" answers each from a warmed memo: the key's build and its
// lookup. "miss" locates, scores, renders and stores each, the memo emptied
// before every pass: what every request of a log without repeats pays.
func BenchmarkAnswer(b *testing.B) {
	for _, w := range []struct {
		name string
		kind dataset.Kind
		keep func(facts int) bool
		n    int // bodies at evenly spaced ranks of the size order; 0 keeps all
	}{
		{"rank_short", dataset.IMDB, func(facts int) bool { return facts <= 5 }, 0},
		{"rank_long", dataset.Academic, func(facts int) bool { return facts >= 16 }, 24},
	} {
		corpus, err := dataset.Build(dataset.DefaultConfig(w.kind))
		if err != nil {
			b.Fatal(err)
		}
		reqs := benchRequests(corpus, w.keep, w.n)
		for _, bc := range []struct {
			name string
			hit  bool
		}{{"hit", true}, {"miss", false}} {
			b.Run(w.name+"/"+bc.name, func(b *testing.B) {
				s := New(Config{Workers: 1, QueueCap: 1}, corpus, nil)
				ctx := context.Background()
				for _, req := range reqs {
					if _, _, err := s.answer(ctx, req); err != nil {
						b.Fatal(err)
					}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if !bc.hit && i%len(reqs) == 0 {
						s.memo = memo{limit: memoBytes}
					}
					benchEntry, _, _ = s.answer(ctx, reqs[i%len(reqs)])
				}
			})
		}
	}
}

// benchRequests renders one request per output tuple of the corpus whose
// lineage size keep accepts, skipping a rendering its query already gave,
// and takes n of them at evenly spaced ranks of the order by lineage size,
// query and tuple (all when n is 0).
func benchRequests(corpus *dataset.Corpus, keep func(facts int) bool, n int) []RankRequest {
	type body struct {
		req   RankRequest
		facts int
	}
	var all []body
	for _, entry := range corpus.Queries {
		seen := map[string]bool{}
		for _, tuple := range entry.Result.Tuples {
			req := RankRequest{SQL: entry.SQL, Tuple: make([]string, len(tuple.Values))}
			for i, v := range tuple.Values {
				req.Tuple[i] = v.String()
			}
			data, _ := json.Marshal(req)
			if facts := len(tuple.Prov.Lineage()); keep(facts) && !seen[string(data)] {
				all = append(all, body{req, facts})
			}
			seen[string(data)] = true
		}
	}
	slices.SortStableFunc(all, func(a, b body) int { return a.facts - b.facts })
	if n == 0 || n >= len(all) {
		n = len(all)
	}
	out := make([]RankRequest, n)
	for i := range out {
		out[i] = all[(2*i+1)*len(all)/(2*n)].req
	}
	return out
}
