package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/shapley"
)

// The fixture builds once per test binary: every server test shares the same
// corpus, differing only in serving configuration.
var (
	fixOnce   sync.Once
	fixCorpus *dataset.Corpus
	fixErr    error
)

func fixture(t *testing.T) *dataset.Corpus {
	t.Helper()
	fixOnce.Do(func() {
		cfg := dataset.DefaultConfig(dataset.IMDB)
		cfg.NumQueries = 12
		cfg.MaxCasesPerQuery = 4
		fixCorpus, fixErr = dataset.Build(cfg)
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixCorpus
}

// startServer builds and starts a server on an ephemeral port, registering
// shutdown as cleanup.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	return startServerBudget(t, cfg, rankExactNodes)
}

// startServerBudget is startServer with /rank's exact budget set before
// Start. At 0 the proxy answers every request, which the tests of the proxy
// path need: at the default budget every fixture lineage compiles exactly.
func startServerBudget(t *testing.T, cfg Config, exactNodes int) *Server {
	t.Helper()
	return startServerOn(t, cfg, fixture(t), exactNodes)
}

// startServerOn is startServerBudget over another corpus than the fixture.
func startServerOn(t *testing.T, cfg Config, corpus *dataset.Corpus, exactNodes int) *Server {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	s := New(cfg, corpus, nil)
	s.exactNodes = exactNodes
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s
}

func postRank(client *http.Client, base string, body []byte) (*RankResponse, int, error) {
	resp, err := client.Post(base+"/rank", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode, nil
	}
	var rr RankResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		return nil, resp.StatusCode, err
	}
	return &rr, resp.StatusCode, nil
}

// TestServeParitySequential is the determinism gate from the package doc:
// /rank answers served to concurrent requests must be bit-identical to
// Server.compute's sequential reference, engine included, at 1, 2 and 3
// workers. Each grid point sends its requests in client batches of `batch`
// concurrent requests and starts the next batch `window` after the previous
// one was answered, so the sweep covers one request in flight at a time,
// bursts that take every compile turn, and bursts that queue behind busy
// turns. One grid point serves at budget 0, so the sweep holds proxy
// answers and concurrent refusals as well as exact answers; the reference
// comes from a separate server at the same budget, around its memo, so no
// answer is checked against a remembered one. Every case is sent three
// times, so the sweep holds answers from the memo too, and checkRank
// requires each ranking in Values.Ranking order, under the request's query
// and tuple renderings.
func TestServeParitySequential(t *testing.T) {
	for _, tc := range []struct {
		batch, workers int
		window         time.Duration
		budget         int
	}{
		{1, 1, 0, rankExactNodes}, // one request in flight at a time
		{1, 3, 0, rankExactNodes},
		{4, 1, 0, rankExactNodes}, // bursts queue behind the one turn
		{4, 3, 0, rankExactNodes},
		{4, 1, 500 * time.Microsecond, rankExactNodes},
		{4, 2, 500 * time.Microsecond, rankExactNodes},
		{8, 1, 2 * time.Millisecond, rankExactNodes},
		{8, 2, 0, 0}, // every answer the proxy's
		{8, 3, 2 * time.Millisecond, rankExactNodes},
		{16, 1, 2 * time.Millisecond, rankExactNodes}, // almost every request in flight at once
	} {
		name := fmt.Sprintf("batch%d_w%d_win%v", tc.batch, tc.workers, tc.window)
		if tc.budget != rankExactNodes {
			name += fmt.Sprintf("_budget%d", tc.budget)
		}
		t.Run(name, func(t *testing.T) {
			s := startServerBudget(t, Config{Workers: tc.workers, QueueCap: 64}, tc.budget)
			cases, err := selfTestCases(s, 6)
			if err != nil {
				t.Fatal(err)
			}
			ref := New(Config{}, s.corpus, nil)
			ref.exactNodes = tc.budget
			want := make([]shapley.Values, len(cases))
			engines := make([]string, len(cases))
			for i, c := range cases {
				want[i], engines[i] = ref.compute(context.Background(), c.prov)
			}

			client := &http.Client{}
			defer client.CloseIdleConnections()
			const rounds = 3 // every case several times
			n := rounds * len(cases)
			errs := make([]error, n)
			for lo := 0; lo < n; lo += tc.batch {
				if lo > 0 {
					time.Sleep(tc.window)
				}
				hi := min(lo+tc.batch, n)
				var wg sync.WaitGroup
				wg.Add(hi - lo)
				for i := lo; i < hi; i++ {
					go func(i int) {
						defer wg.Done()
						c := i % len(cases)
						_, errs[i] = checkRank(client, s.URL(), cases[c], engines[c], want[c])
					}(i)
				}
				wg.Wait()
			}
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestServeDrainOnShutdown verifies no admitted request is dropped. With
// every compile turn held, n requests are admitted and wait for one; Shutdown
// begins and must keep waiting, then the turns come back, and all n must
// answer 200 with their full ranking before Shutdown returns.
func TestServeDrainOnShutdown(t *testing.T) {
	run := obs.NewRun("drain-test", obs.NewRegistry(), nil, nil)
	obs.Install(run)
	defer obs.Uninstall()
	s := New(Config{Addr: "127.0.0.1:0", Workers: 2, QueueCap: 64}, fixture(t), nil)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	cases, err := selfTestCases(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	for len(s.turns) < cap(s.turns) {
		s.turns <- struct{}{}
	}

	const n = 12
	errs := make([]error, n)
	client := &http.Client{}
	defer client.CloseIdleConnections()
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			c := i % len(cases)
			rr, code, err := postRank(client, s.URL(), cases[c].body)
			switch {
			case err != nil:
				errs[i] = fmt.Errorf("request %d: %v", i, err)
			case code != http.StatusOK:
				errs[i] = fmt.Errorf("request %d -> %d, want 200", i, code)
			case len(rr.Facts) != len(cases[c].prov.Lineage()):
				errs[i] = fmt.Errorf("request %d: %d facts, want %d", i, len(rr.Facts), len(cases[c].prov.Lineage()))
			}
		}(i)
	}
	deadline := time.Now().Add(30 * time.Second)
	for run.Reg.Snapshot().Counters["serve.queue.admitted"] < n {
		if time.Now().After(deadline) {
			t.Fatal("requests were not all admitted within 30s")
		}
		time.Sleep(time.Millisecond)
	}
	shut := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shut <- s.Shutdown(ctx)
	}()
	select {
	case err := <-shut:
		t.Fatalf("Shutdown returned (%v) while %d admitted requests waited for a turn", err, n)
	case <-time.After(50 * time.Millisecond):
	}
	for range cap(s.turns) {
		<-s.turns
	}
	if err := <-shut; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestServeBackpressure verifies the HTTP overload contract deterministically:
// with every admission slot held, /rank must answer 429 with a Retry-After
// header, not block, and must not evaluate the query, because admission
// precedes evaluation.
func TestServeBackpressure(t *testing.T) {
	run := obs.NewRun("backpressure-test", obs.NewRegistry(), nil, nil)
	obs.Install(run)
	defer obs.Uninstall()
	s := New(Config{Workers: 1, QueueCap: 1}, fixture(t), nil)
	for i := 0; i < cap(s.slots); i++ {
		if !s.admit(httptest.NewRecorder()) {
			t.Fatalf("admission %d refused", i+1)
		}
	}

	cases, err := selfTestCases(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/rank", bytes.NewReader(cases[0].body))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("every slot held -> %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	if got := run.Reg.Snapshot().Histograms["serve.stage.evaluate_ms"].Count; got != 0 {
		t.Errorf("a rejected request was evaluated: serve.stage.evaluate_ms recorded %d observations", got)
	}
}

// TestServeSlowRequestCounted sets the slow-request threshold below any
// request's latency and logs at debug level, so every request writes one
// access line and one slow line. It sends /rank and /explain at the default
// exact budget, then /rank at budget 0. Each must count once in
// serve.req.slow, and each of its two lines must carry the response's
// X-Trace-Id, the evaluate, queue-wait, batch-wait and score durations, and
// the engine that answered.
func TestServeSlowRequestCounted(t *testing.T) {
	var logs bytes.Buffer
	run := obs.NewRun("slow-test", obs.NewRegistry(), nil, obs.NewLogger(&logs, obs.LevelDebug))
	obs.Install(run)
	defer obs.Uninstall()
	s := New(Config{Workers: 1, QueueCap: 1, SlowMS: 1e-6}, fixture(t), nil)
	cases, err := selfTestCases(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, req := range []struct {
		path   string
		budget int
		engine string
	}{
		{"/rank", rankExactNodes, engineExact},
		{"/explain", rankExactNodes, engineExact},
		{"/rank", 0, engineProxy}, // last: the server remembers the refusal
	} {
		s.exactNodes = req.budget
		logs.Reset()
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, req.path, bytes.NewReader(cases[0].body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s -> %d", req.path, rec.Code)
		}
		if got := run.Reg.Snapshot().Counters["serve.req.slow"]; got != int64(i+1) {
			t.Errorf("serve.req.slow = %d after %d requests over the threshold, want %d", got, i+1, i+1)
		}
		kinds := map[string]int{}
		for _, line := range strings.Split(logs.String(), "\n") {
			kind, doc, ok := strings.Cut(strings.TrimPrefix(line, "serve: "), " {")
			if !ok || (kind != "access" && kind != "slow") {
				continue
			}
			kinds[kind]++
			var fields map[string]any
			if err := json.Unmarshal([]byte("{"+doc), &fields); err != nil {
				t.Fatalf("%s %s line is not JSON: %v: %s", req.path, kind, err, line)
			}
			if got, want := fields["trace_id"], rec.Header().Get(obs.TraceHeader); got != want {
				t.Errorf("%s %s line has trace_id %v, the response %q", req.path, kind, got, want)
			}
			for _, key := range []string{"evaluate_ms", "queue_wait_ms", "batch_wait_ms", "score_ms"} {
				if _, ok := fields[key].(float64); !ok {
					t.Errorf("%s %s line lacks %s: %s", req.path, kind, key, line)
				}
			}
			if got := fields["engine"]; got != req.engine {
				t.Errorf("%s %s line names engine %v, want %q", req.path, kind, got, req.engine)
			}
		}
		if kinds["access"] != 1 || kinds["slow"] != 1 {
			t.Errorf("%s wrote %d access and %d slow lines, want 1 each:\n%s", req.path, kinds["access"], kinds["slow"], logs.String())
		}
	}
}

// TestLogRequestQuietAllocs pins the access log's cost when nothing prints
// it: with a run installed at quiet or info level, a request under the
// -slow-ms threshold, or with no threshold, must not build the JSON line.
func TestLogRequestQuietAllocs(t *testing.T) {
	tc := obs.NewTraceContext("")
	tc.AddStage("evaluate", tc.Begin(), time.Millisecond)
	sw := &statusWriter{status: http.StatusOK, engine: engineExact}
	for _, level := range []obs.Level{obs.LevelQuiet, obs.LevelInfo} {
		var logs bytes.Buffer
		obs.Install(obs.NewRun("alloc-test", obs.NewRegistry(), nil, obs.NewLogger(&logs, level)))
		for _, slowMS := range []float64{0, 1000} {
			s := &Server{cfg: Config{SlowMS: slowMS}}
			if allocs := testing.AllocsPerRun(100, func() { s.logRequest("rank", tc, sw, 1.5) }); allocs != 0 {
				t.Errorf("level %d, slow-ms %v: %v allocs per request, want 0", level, slowMS, allocs)
			}
		}
		obs.Uninstall()
		if logs.Len() != 0 {
			t.Errorf("level %d: wrote %q", level, logs.String())
		}
	}
}

// TestSelfTest runs the ci e2e gate in-process: concurrent TCP traffic,
// bitwise parity, endpoint and metrics checks. At the default budget the
// exact engine answers every fixture request, at 0 the proxy does.
func TestSelfTest(t *testing.T) {
	for _, budget := range []int{rankExactNodes, 0} {
		t.Run(fmt.Sprintf("budget%d", budget), func(t *testing.T) {
			s := startServerBudget(t, DefaultConfig(), budget)
			if err := SelfTest(s, 8); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestServeExactSelector pins which engine answers /rank and /explain. At the
// default budget every fixture lineage compiles, so each answer must say
// "exact" and list shapley.Exact's values in Values.Ranking order, bit for
// bit. At budget 0 each must say "proxy" and list shapley.CNFProxy's values
// in the same order, and the model must not rank: core.rank.lineages stays
// where it was. serve.rank.<engine> counts every answer.
func TestServeExactSelector(t *testing.T) {
	for _, tc := range []struct {
		engine string
		budget int
	}{{engineExact, rankExactNodes}, {engineProxy, 0}} {
		t.Run(tc.engine, func(t *testing.T) {
			run := obs.NewRun("selector-test", obs.NewRegistry(), nil, nil)
			obs.Install(run)
			defer obs.Uninstall()
			s := startServerBudget(t, Config{Workers: 2, QueueCap: 64}, tc.budget)
			cases, err := selfTestCases(s, 6)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]shapley.Values, len(cases))
			for i, c := range cases {
				if tc.engine == engineProxy {
					want[i] = shapley.CNFProxy(c.prov)
				} else if want[i], _, err = shapley.Exact(c.prov); err != nil {
					t.Fatal(err)
				}
			}
			lineages := run.Reg.Snapshot().Counters["core.rank.lineages"]

			client := &http.Client{}
			defer client.CloseIdleConnections()
			answers := 0
			for _, endpoint := range []string{"/rank", "/explain"} {
				for c := range cases {
					resp, err := client.Post(s.URL()+endpoint, "application/json", bytes.NewReader(cases[c].body))
					if err != nil {
						t.Fatal(err)
					}
					var er ExplainResponse // a /rank answer decodes with an empty plan
					err = json.NewDecoder(resp.Body).Decode(&er)
					resp.Body.Close()
					if err != nil || resp.StatusCode != http.StatusOK {
						t.Fatalf("%s case %d -> %d, decode err %v", endpoint, c, resp.StatusCode, err)
					}
					if er.Engine != tc.engine {
						t.Fatalf("%s case %d answered by %q, want %q", endpoint, c, er.Engine, tc.engine)
					}
					order := want[c].Ranking()
					if len(er.Facts) != len(order) {
						t.Fatalf("%s case %d: %d facts, want %d", endpoint, c, len(er.Facts), len(order))
					}
					for k, f := range er.Facts {
						if relation.FactID(f.ID) != order[k] || f.Score != want[c][order[k]] {
							t.Fatalf("%s case %d rank %d: fact %d scored %v, want fact %d scored %v",
								endpoint, c, k, f.ID, f.Score, order[k], want[c][order[k]])
						}
					}
					answers++
				}
			}

			counters := run.Reg.Snapshot().Counters
			for _, engine := range []string{engineExact, engineProxy} {
				got, wantN := counters["serve.rank."+engine], int64(0)
				if engine == tc.engine {
					wantN = int64(answers)
				}
				if got != wantN {
					t.Errorf("serve.rank.%s = %d after %d %s answers, want %d", engine, got, answers, tc.engine, wantN)
				}
			}
			if got := counters["core.rank.lineages"]; got != lineages {
				t.Errorf("core.rank.lineages moved from %d to %d: the model ranked a /rank or /explain request", lineages, got)
			}
		})
	}
}

// TestServeRejectsOversizedBody pins the request-size bound: a /rank body
// larger than maxBodyBytes is answered 413 without ever being admitted, while
// a normal request on the same server still is.
func TestServeRejectsOversizedBody(t *testing.T) {
	run := obs.NewRun("body-limit-test", obs.NewRegistry(), nil, nil)
	obs.Install(run)
	defer obs.Uninstall()
	s := startServer(t, Config{Workers: 1, QueueCap: 4})
	admitted := func() int64 { return run.Reg.Snapshot().Counters["serve.queue.admitted"] }

	big := append([]byte(`{"sql": "`), bytes.Repeat([]byte("a"), maxBodyBytes)...)
	big = append(big, `", "tuple": []}`...)
	before := admitted()
	_, code, err := postRank(http.DefaultClient, s.URL(), big)
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body -> %d, want 413", code)
	}
	if got := admitted(); got != before {
		t.Errorf("oversized body was admitted: serve.queue.admitted %d -> %d", before, got)
	}

	cases, err := selfTestCases(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, code, err := postRank(http.DefaultClient, s.URL(), cases[0].body); err != nil || code != http.StatusOK {
		t.Fatalf("normal body after the oversized one: code %d err %v", code, err)
	}
	if got := admitted(); got != before+1 {
		t.Errorf("serve.queue.admitted = %d after one normal request, want %d", got, before+1)
	}
}

// TestServeContentLength sends a rank_long body (benchWorkloads), whose
// answer is over the 2 KiB net/http buffers before it chunks a response of
// unset length, over real TCP twice. The miss and the hit must each come
// back with a Content-Length equal to the body's length and no
// Transfer-Encoding, and both bodies must be byte-identical to
// json.Encoder's encoding of the answer computed around the memo.
func TestServeContentLength(t *testing.T) {
	run := obs.NewRun("content-length-test", obs.NewRegistry(), nil, nil)
	obs.Install(run)
	defer obs.Uninstall()
	workloads, err := benchWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	long := workloads[1]
	s := startServerOn(t, Config{Workers: 1, QueueCap: 1}, long.corpus, rankExactNodes)
	body := long.bodies[0]

	var req RankRequest
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	q, target, _, err := s.locate(req)
	if err != nil {
		t.Fatal(err)
	}
	vals, eng := s.compute(context.Background(), target.Prov)
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(RankResponse{Query: q.SQL(), Tuple: target.String(), Engine: eng, Facts: s.rankedFacts(vals)}); err != nil {
		t.Fatal(err)
	}
	if want.Len() <= 2048 {
		t.Fatalf("the answer is %d bytes, want one over 2 KiB", want.Len())
	}

	client := &http.Client{}
	defer client.CloseIdleConnections()
	for _, attempt := range []string{"miss", "hit"} {
		resp, err := client.Post(s.URL()+"/rank", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s -> %d, read err %v", attempt, resp.StatusCode, err)
		}
		if resp.ContentLength != int64(len(got)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: Content-Length %d, Transfer-Encoding %q for a body of %d bytes, want its length and no encoding",
				attempt, resp.ContentLength, resp.TransferEncoding, len(got))
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s answered\n%s\nwant json.Encoder's\n%s", attempt, got, want.Bytes())
		}
	}
	if got := run.Reg.Snapshot().Counters["serve.memo.hits"]; got != 1 {
		t.Errorf("serve.memo.hits = %d after a request and its repeat, want 1", got)
	}
}

// TestServeLocateErrors pins the error answers of a miss on /rank and
// /explain: a malformed JSON body, unparsable SQL and an unknown relation
// answer 400, a tuple absent from the result 404, and so do a request
// without a tuple and a tuple with one value too few or one too many, which
// the tuple evaluation must reject by arity instead of indexing past the
// projection list. Every answer carries a JSON error body. The valid request
// is answered first, and every error case is sent twice: both answers carry
// the same status, and the memo, which holds the valid answer, stores no
// error.
func TestServeLocateErrors(t *testing.T) {
	s := New(Config{Workers: 1, QueueCap: 1}, fixture(t), nil)
	cases, err := selfTestCases(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	valid := cases[0].req
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/rank", bytes.NewReader(cases[0].body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("the valid request -> %d: %s", rec.Code, rec.Body)
	}
	if entries, _ := s.memo.stats(); entries != 1 {
		t.Fatalf("memo holds %d entries after the valid request, want 1", entries)
	}
	marshal := func(req RankRequest) []byte {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	for _, tc := range []struct {
		name  string
		body  []byte
		code  int
		error string // a substring of the error body
	}{
		{"malformed_json", []byte(`{"sql": "SELECT`), http.StatusBadRequest, "decode request"},
		{"unparsable", marshal(RankRequest{SQL: "SELEC nothing", Tuple: valid.Tuple}), http.StatusBadRequest, "parse"},
		{"unknown_relation", marshal(RankRequest{SQL: "SELECT nosuch.x FROM nosuch", Tuple: []string{"x"}}), http.StatusBadRequest, "unknown relation"},
		{"absent_tuple", marshal(RankRequest{SQL: valid.SQL, Tuple: append(make([]string, len(valid.Tuple)-1), "no such value")}), http.StatusNotFound, "not found"},
		{"missing_tuple", marshal(RankRequest{SQL: valid.SQL}), http.StatusNotFound, "not found"},
		{"one_value_too_few", marshal(RankRequest{SQL: valid.SQL, Tuple: valid.Tuple[:len(valid.Tuple)-1]}), http.StatusNotFound, "not found"},
		{"one_value_too_many", marshal(RankRequest{SQL: valid.SQL, Tuple: append(append([]string(nil), valid.Tuple...), valid.Tuple[0])}), http.StatusNotFound, "not found"},
	} {
		for _, path := range []string{"/rank", "/explain"} {
			t.Run(tc.name+"_"+path[1:], func(t *testing.T) {
				for attempt := 1; attempt <= 2; attempt++ {
					rec := httptest.NewRecorder()
					s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(tc.body)))
					if rec.Code != tc.code {
						t.Fatalf("attempt %d -> %d, want %d: %s", attempt, rec.Code, tc.code, rec.Body)
					}
					if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
						t.Errorf("attempt %d: Content-Type %q, want application/json", attempt, ct)
					}
					var er errorResponse
					if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || !strings.Contains(er.Error, tc.error) {
						t.Errorf("attempt %d: error body %q (decode err %v), want an error mentioning %q", attempt, rec.Body, err, tc.error)
					}
					if entries, _ := s.memo.stats(); entries != 1 {
						t.Errorf("attempt %d: memo holds %d entries, want only the valid answer", attempt, entries)
					}
				}
			})
		}
	}
}

// TestLocateMatchesFullEvaluation requests every output tuple of every query
// of the default IMDB and Academic corpora by its rendering. locate evaluates
// only that tuple; it must resolve to the tuple that full evaluation plus a
// first-match scan in Key order gives, with the same values and the same
// provenance.
func TestLocateMatchesFullEvaluation(t *testing.T) {
	for _, kind := range []dataset.Kind{dataset.IMDB, dataset.Academic} {
		t.Run(kind.String(), func(t *testing.T) {
			corpus, err := dataset.Build(dataset.DefaultConfig(kind))
			if err != nil {
				t.Fatal(err)
			}
			s := &Server{corpus: corpus} // locate reads only the corpus's database
			tuples := 0
			for _, entry := range corpus.Queries {
				for _, ft := range entry.Result.Tuples {
					req := RankRequest{SQL: entry.SQL, Tuple: make([]string, len(ft.Values))}
					for i, v := range ft.Values {
						req.Tuple[i] = v.String()
					}
					var want *engine.OutputTuple
					for _, c := range entry.Result.Tuples {
						if tupleMatches(c, req.Tuple) {
							want = c
							break
						}
					}
					_, got, code, err := s.locate(req)
					if err != nil {
						t.Fatalf("query %d tuple %q: %d %v", entry.ID, req.Tuple, code, err)
					}
					for i := range want.Values {
						if got.Values[i] != want.Values[i] {
							t.Fatalf("query %d tuple %q: located %v, full evaluation %v", entry.ID, req.Tuple, got, want)
						}
					}
					if got.Prov.Key() != want.Prov.Key() {
						t.Fatalf("query %d tuple %v: provenance %v, full evaluation %v", entry.ID, want, got.Prov, want.Prov)
					}
					tuples++
				}
			}
			if tuples == 0 {
				t.Fatal("the corpus has no output tuples")
			}
			t.Logf("%d tuples located", tuples)
		})
	}
}
