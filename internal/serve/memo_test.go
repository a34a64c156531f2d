package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/dataset"
	"repro/internal/obs"
)

// bodyKey is the memo key of body under budget, read as handleRank reads
// it.
func bodyKey(budget int, body []byte) []byte {
	key, _ := readKey(budget, bytes.NewReader(body), int64(len(body))) // a bytes.Reader fails with io.EOF alone
	return key
}

// TestReadKey reads one body under every kind of declared length: unknown,
// too short, exact and the largest allowed. Each key must hold the budget's
// varint and the whole body, and a declared length past keyPresize must not
// size the buffer beyond it before the body arrives.
func TestReadKey(t *testing.T) {
	body := strings.Repeat("x", 600) // past readKey's 512-byte start when the length is unknown
	for _, size := range []int64{-1, 1, int64(len(body)), maxBodyBytes} {
		key, err := readKey(rankExactNodes, strings.NewReader(body), size)
		if err != nil {
			t.Fatal(err)
		}
		if budget, n := binary.Varint(key); budget != rankExactNodes || string(key[n:]) != body || !bytes.Equal(keyBody(key), []byte(body)) {
			t.Errorf("declared %d: key %q, want the budget %d and the body", size, key, rankExactNodes)
		}
		if size == maxBodyBytes && cap(key) > binary.MaxVarintLen64+keyPresize+1 {
			t.Errorf("declared %d: a %d-byte body got a buffer of %d bytes, want at most keyPresize", size, len(body), cap(key))
		}
	}
}

// TestMemoRequestKey answers a fixture request's body through Server.answer
// and looks up bodies that differ from it. The same bytes, rebuilt from a
// fresh slice, hit, and a second store under their key keeps the first
// answer. A body with one byte changed, at its start, in its middle or at
// its end, or cut short, misses, and so does the same body under another
// exact budget. The same request spelled differently, with its fields
// reordered or with whitespace added, is answered as an entry of its own
// with byte-identical bytes.
func TestMemoRequestKey(t *testing.T) {
	s := New(Config{Workers: 1, QueueCap: 1}, fixture(t), nil)
	cases, err := selfTestCases(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	body := cases[0].body
	ctx := context.Background()
	stored, _, err := s.answer(ctx, bodyKey(rankExactNodes, body))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.memo.get(bodyKey(rankExactNodes, bytes.Clone(body))); got != stored {
		t.Errorf("the same bytes missed: %+v", got)
	}
	for _, i := range []int{0, len(body) / 2, len(body) - 1} {
		changed := bytes.Clone(body)
		changed[i] ^= 1
		if got := s.memo.get(bodyKey(rankExactNodes, changed)); got != nil {
			t.Errorf("%q, byte %d changed, hit the entry of %q", changed, i, body)
		}
	}
	if got := s.memo.get(bodyKey(rankExactNodes, body[:len(body)-1])); got != nil {
		t.Errorf("%q cut short hit the entry of %q", body[:len(body)-1], body)
	}
	for _, budget := range []int{0, rankExactNodes + 1} {
		if got := s.memo.get(bodyKey(budget, body)); got != nil {
			t.Errorf("budget %d hit the entry of budget %d", budget, rankExactNodes)
		}
	}
	s.memo.put(string(bodyKey(rankExactNodes, body)), &memoEntry{engine: engineProxy}) // a concurrent miss storing second
	if got := s.memo.get(bodyKey(rankExactNodes, body)); got != stored {
		t.Errorf("a second store under the key replaced the first: %+v", got)
	}

	reordered, err := json.Marshal(struct {
		Tuple []string `json:"tuple"`
		SQL   string   `json:"sql"`
	}{cases[0].req.Tuple, cases[0].req.SQL})
	if err != nil {
		t.Fatal(err)
	}
	var spaced bytes.Buffer
	if err := json.Indent(&spaced, body, "", "  "); err != nil {
		t.Fatal(err)
	}
	for name, other := range map[string][]byte{"reordered": reordered, "spaced": spaced.Bytes()} {
		got, _, err := s.answer(ctx, bodyKey(rankExactNodes, other))
		if err != nil || got == stored || !bytes.Equal(got.body, stored.body) {
			t.Errorf("%s body %q answered %q (%v) from the memo or differently, %q answered %q", name, other, got.body, err, body, stored.body)
		}
	}
	if entries, _ := s.memo.stats(); entries != 3 {
		t.Errorf("memo holds %d entries after three spellings of one request, want 3", entries)
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
	first, _, err := s.answer(ctx, bodyKey(s.exactNodes, cases[0].body))
	if err != nil {
		t.Fatal(err)
	}
	if again, _, err := s.answer(ctx, bodyKey(s.exactNodes, cases[0].body)); err != nil || again != first {
		t.Errorf("the repeated request was not answered from the memo: %+v, %v", again, err)
	}
	body, err := json.Marshal(RankRequest{SQL: cases[0].req.SQL + " ", Tuple: cases[0].req.Tuple})
	if err != nil {
		t.Fatal(err)
	}
	spaced, _, err := s.answer(ctx, bodyKey(s.exactNodes, body))
	if err != nil {
		t.Fatal(err)
	}
	if spaced == first || !sameAnswer(spaced, first) {
		t.Errorf("the query with a trailing space was answered %q from the memo or differently, the query %q", spaced.body, first.body)
	}
	if got := run.Reg.Snapshot().Counters["serve.memo.hits"]; got != 1 {
		t.Errorf("serve.memo.hits = %d, want 1: only the repeated request hits", got)
	}
	if entries, _ := s.memo.stats(); entries != 2 {
		t.Errorf("memo holds %d entries after two distinct requests, want 2", entries)
	}
}

// TestMemoEntrySize pins what an entry counts: its key, its body and
// entryOverhead, which on 64-bit platforms is the 48-byte entry, a map slot
// of 57 bytes, a FIFO slot of 20 and 24 bytes of allocation rounding (its
// derivation is at entryOverhead).
func TestMemoEntrySize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the pinned sizes are those of 64-bit platforms")
	}
	if got, want := entryOverhead, 48+57+20+24; got != want {
		t.Errorf("entryOverhead = %d, want %d", got, want)
	}
	e := &memoEntry{engine: engineProxy, body: []byte(`{"query":"SELECT r.a FROM r","tuple":"(a)","engine":"proxy","facts":[]}` + "\n")}
	if got, want := entrySize("0123456789", e), 10+72+entryOverhead; got != want {
		t.Errorf("entrySize = %d, want %d", got, want)
	}
}

// TestAnswerHitAllocs pins what a memo hit allocates: reading the body into
// its key and answering from the memo take one allocation, the key.
func TestAnswerHitAllocs(t *testing.T) {
	s := New(Config{Workers: 1, QueueCap: 1}, fixture(t), nil)
	cases, err := selfTestCases(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	body := bytes.NewReader(cases[0].body)
	hit := func() {
		body.Reset(cases[0].body)
		key, err := readKey(s.exactNodes, body, body.Size())
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.answer(ctx, key); err != nil {
			t.Fatal(err)
		}
	}
	hit() // the miss that stores the answer
	if allocs := testing.AllocsPerRun(100, hit); allocs > 1 {
		t.Errorf("a memo hit allocates %v times, want at most 1", allocs)
	}
}

// reusedWriter is an http.ResponseWriter that keeps its header map across
// requests and records only the status, so a test can reuse one writer.
type reusedWriter struct {
	header http.Header
	status int
}

func (w *reusedWriter) Header() http.Header { return w.header }

func (w *reusedWriter) WriteHeader(code int) { w.status = code }

func (w *reusedWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return len(p), nil
}

// TestHandlerHitAllocs pins what a /rank memo hit allocates through the
// whole Server.Handler, with the request and the writer reused: 12
// allocations, among them the trace context and its ID, the status writer,
// the request's context, the body's key, the response headers and the copy
// of the trace's stages into the ring. Recording the stages allocates
// nothing.
func TestHandlerHitAllocs(t *testing.T) {
	s := New(Config{Workers: 1, QueueCap: 1}, fixture(t), nil)
	cases, err := selfTestCases(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	body := bytes.NewReader(cases[0].body)
	req := httptest.NewRequest(http.MethodPost, "/rank", body)
	w := &reusedWriter{header: http.Header{}}
	hit := func() {
		body.Reset(cases[0].body)
		w.status = 0
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("/rank -> %d", w.status)
		}
	}
	hit() // the miss that stores the answer
	if allocs := testing.AllocsPerRun(100, hit); allocs > 12 {
		t.Errorf("a /rank memo hit through the handler allocates %v times, want at most 12", allocs)
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
		body := fmt.Sprintf(`{"sql":"SELECT r.a FROM r WHERE r.b = %d","tuple":[%q]}`, i, strings.Repeat("t", i%4))
		e := &memoEntry{engine: engineExact, body: []byte(strings.Repeat("x", 8*i))}
		key := string(bodyKey(rankExactNodes, []byte(body)))
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
	if _, _, err := s.answer(ctx, bodyKey(s.exactNodes, cases[small].body)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if got, _, err := s.answer(ctx, bodyKey(s.exactNodes, cases[large].body)); err != nil || !sameAnswer(got, want[large]) {
			t.Errorf("answer %d over the bound = %+v (%v), want %q", i+1, got, err, want[large].body)
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
		key := bodyKey(s.exactNodes, c.body)
		a, _, err := ref.answer(context.Background(), key)
		if err != nil {
			t.Fatal(err)
		}
		answers[i], sizes[i] = a, entrySize(string(key), a)
	}
	return answers, sizes
}

// sameAnswer reports whether two answers carry the same engine and bytes.
func sameAnswer(a, b *memoEntry) bool {
	return a != nil && b != nil && a.engine == b.engine && bytes.Equal(a.body, b.body)
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

			keys := make([][]byte, len(cases))
			for i, c := range cases {
				keys[i] = bodyKey(budget, c.body)
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
						if got, _, err := s.answer(ctx, keys[c]); err != nil || !sameAnswer(got, want[c]) {
							t.Errorf("goroutine %d, case %d: answer %+v (%v), want %q", g, c, got, err, want[c].body)
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
// benchmark workloads (benchWorkloads). "hit" reads each body into its key
// and answers it from a warmed memo: the key's read and its lookup. "miss"
// reads, decodes, locates, scores, renders, encodes and stores each, the
// memo emptied before every pass: what every request of a log without
// repeats pays.
func BenchmarkAnswer(b *testing.B) {
	workloads, err := benchWorkloads()
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range workloads {
		for _, bc := range []struct {
			name string
			hit  bool
		}{{"hit", true}, {"miss", false}} {
			b.Run(w.name+"/"+bc.name, func(b *testing.B) {
				s := New(Config{Workers: 1, QueueCap: 1}, w.corpus, nil)
				ctx := context.Background()
				var body bytes.Reader
				answer := func(i int) (*memoEntry, error) {
					body.Reset(w.bodies[i%len(w.bodies)])
					key, err := readKey(s.exactNodes, &body, body.Size())
					if err != nil {
						return nil, err
					}
					a, _, err := s.answer(ctx, key)
					return a, err
				}
				for i := range w.bodies {
					if _, err := answer(i); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if !bc.hit && i%len(w.bodies) == 0 {
						s.memo = memo{limit: memoBytes}
					}
					benchEntry, _ = answer(i)
				}
			})
		}
	}
}

// BenchmarkHandlerHit times a /rank request answered from the memo through
// the whole handler, in process: the instrument wrapper, the body's read
// into its key, admission, the turn, the lookup and the one write of the
// stored bytes, into an httptest.ResponseRecorder, over the bodies of
// benchWorkloads.
func BenchmarkHandlerHit(b *testing.B) {
	workloads, err := benchWorkloads()
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range workloads {
		b.Run(w.name, func(b *testing.B) {
			h := New(Config{Workers: 1, QueueCap: 1}, w.corpus, nil).Handler()
			rank := func(i int) {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/rank", bytes.NewReader(w.bodies[i%len(w.bodies)])))
				if rec.Code != http.StatusOK {
					b.Fatalf("/rank -> %d: %s", rec.Code, rec.Body)
				}
			}
			for i := range w.bodies {
				rank(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rank(i)
			}
		})
	}
}

// benchWorkload is one benchmark workload's corpus and /rank bodies.
type benchWorkload struct {
	name   string
	corpus *dataset.Corpus
	bodies [][]byte
}

// benchWorkloads rebuilds, once per test binary, the bodies of two
// benchmark workloads as bench/workload.go picks them: rank_short's 487
// requests for IMDB tuples of 1–5 facts and rank_long's 24 for Academic
// tuples of 16 or more facts, at evenly spaced ranks of their size order.
var benchWorkloads = sync.OnceValues(func() ([]benchWorkload, error) {
	var out []benchWorkload
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
			return nil, err
		}
		out = append(out, benchWorkload{w.name, corpus, benchBodies(corpus, w.keep, w.n)})
	}
	return out, nil
})

// benchBodies renders one request body per output tuple of the corpus whose
// lineage size keep accepts, skipping a body its query already gave, and
// takes n of them at evenly spaced ranks of the order by lineage size,
// query and tuple (all when n is 0).
func benchBodies(corpus *dataset.Corpus, keep func(facts int) bool, n int) [][]byte {
	type body struct {
		data  []byte
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
				all = append(all, body{data, facts})
			}
			seen[string(data)] = true
		}
	}
	slices.SortStableFunc(all, func(a, b body) int { return a.facts - b.facts })
	if n == 0 || n >= len(all) {
		n = len(all)
	}
	out := make([][]byte, n)
	for i := range out {
		out[i] = all[(2*i+1)*len(all)/(2*n)].data
	}
	return out
}
