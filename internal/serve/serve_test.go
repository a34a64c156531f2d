package serve

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/shapley"
)

// The fixture trains once per test binary: every server test shares the same
// corpus and model, differing only in serving configuration.
var (
	fixOnce   sync.Once
	fixCorpus *dataset.Corpus
	fixModel  *core.Model
	fixErr    error
)

func tinyModelConfig(seed int64) core.ModelConfig {
	return core.ModelConfig{
		Name: "serve-tiny", Dim: 16, Heads: 2, Layers: 1, FFNHidden: 32,
		MaxSeqLen: 48, VocabSize: 800,
		PretrainMetrics: core.AllMetrics(), PretrainEpochs: 1, PretrainPairsPerEpoch: 40, PretrainLR: 2e-3,
		FinetuneEpochs: 1, FinetuneSamplesPerEpoch: 120, FinetuneLR: 2e-3,
		BatchSize: 16, TargetScale: 10, Seed: seed,
	}
}

func fixture(t *testing.T) (*dataset.Corpus, *core.Model) {
	t.Helper()
	fixOnce.Do(func() {
		cfg := dataset.DefaultConfig(dataset.IMDB)
		cfg.NumQueries = 12
		cfg.MaxCasesPerQuery = 4
		fixCorpus, fixErr = dataset.Build(cfg)
		if fixErr != nil {
			return
		}
		fixModel, _, fixErr = core.Train(fixCorpus, dataset.NewSimilarityCache(fixCorpus), tinyModelConfig(5), nil)
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixCorpus, fixModel
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
	corpus, model := fixture(t)
	cfg.Addr = "127.0.0.1:0"
	s := New(cfg, corpus, model)
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

// similarCase is one prepared /similar request.
type similarCase struct {
	a, b string
	body []byte
}

// similarCases prepares n /similar requests, each pairing one query of the
// server's corpus with the next.
func similarCases(t *testing.T, s *Server, n int) []similarCase {
	t.Helper()
	qs := s.corpus.Queries
	out := make([]similarCase, n)
	for i := range out {
		a, b := qs[i%len(qs)].SQL, qs[(i+1)%len(qs)].SQL
		body, err := json.Marshal(SimilarRequest{SQLA: a, SQLB: b})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = similarCase{a: a, b: b, body: body}
	}
	return out
}

// similarReference predicts every prepared pair exactly as a per-request
// deployment would: one fresh replica, one request at a time.
func similarReference(model *core.Model, cases []similarCase) []map[string]float64 {
	ref := model.CloneForWorker()
	want := make([]map[string]float64, len(cases))
	for i, c := range cases {
		want[i] = ref.PredictSimilarities(c.a, c.b)
	}
	return want
}

// postSimilar posts one /similar request and returns its similarities; it
// fails on any status but 200.
func postSimilar(client *http.Client, base string, body []byte) (map[string]float64, error) {
	resp, err := client.Post(base+"/similar", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("similar -> %d", resp.StatusCode)
	}
	var sr SimilarResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return nil, err
	}
	return sr.Similarities, nil
}

// sameSimilarities requires a served answer to hold the reference's metrics
// with bit-identical values (float64 JSON round-trips exactly).
func sameSimilarities(got, want map[string]float64) error {
	if len(want) == 0 || len(got) != len(want) {
		return fmt.Errorf("served %d similarities, the reference %d (want at least one)", len(got), len(want))
	}
	for metric, w := range want {
		if g, ok := got[metric]; !ok || g != w {
			return fmt.Errorf("%s: served %v (present %v), sequential %v", metric, g, ok, w)
		}
	}
	return nil
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
// /similar answers served to concurrent requests must be bit-identical to a
// sequential replica's at 1, 2 and 3 workers. Each grid point sends its
// requests in client batches of `batch` concurrent requests and starts the
// next batch `window` after the previous one was answered, so the sweep
// covers one request in flight at a time, bursts that occupy every replica,
// and bursts that queue behind busy replicas.
func TestServeParitySequential(t *testing.T) {
	_, model := fixture(t)
	for _, tc := range []struct {
		batch, workers int
		window         time.Duration
	}{
		{1, 1, 0}, // one request in flight at a time
		{1, 3, 0},
		{4, 1, 0}, // bursts queue behind the one replica
		{4, 3, 0},
		{4, 1, 500 * time.Microsecond},
		{4, 2, 500 * time.Microsecond},
		{8, 1, 2 * time.Millisecond},
		{8, 3, 2 * time.Millisecond},
		{16, 1, 2 * time.Millisecond}, // almost every request in flight at once
	} {
		name := fmt.Sprintf("batch%d_w%d_win%v", tc.batch, tc.workers, tc.window)
		t.Run(name, func(t *testing.T) {
			s := startServer(t, Config{Workers: tc.workers, QueueCap: 64})
			cases := similarCases(t, s, 6)
			want := similarReference(model, cases)

			client := &http.Client{}
			defer client.CloseIdleConnections()
			check := func(c int) error {
				got, err := postSimilar(client, s.URL(), cases[c].body)
				if err != nil {
					return err
				}
				return sameSimilarities(got, want[c])
			}
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
						errs[i] = check(i % len(cases))
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
// every replica held, n requests are admitted and wait for one; Shutdown
// begins and must keep waiting, then the replicas come back, and all n must
// answer 200 with their full ranking before Shutdown returns.
func TestServeDrainOnShutdown(t *testing.T) {
	run := obs.NewRun("drain-test", obs.NewRegistry(), nil, nil)
	obs.Install(run)
	defer obs.Uninstall()
	corpus, model := fixture(t)
	s := New(Config{Addr: "127.0.0.1:0", Workers: 2, QueueCap: 64}, corpus, model)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	cases, err := selfTestCases(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	held := make([]*replica, 0, cap(s.replicas))
	for len(held) < cap(s.replicas) {
		held = append(held, <-s.replicas)
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
		t.Fatalf("Shutdown returned (%v) while %d admitted requests waited for a replica", err, n)
	case <-time.After(50 * time.Millisecond):
	}
	for _, r := range held {
		s.replicas <- r
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

// TestServeHotSwap reloads a different checkpoint through /admin/reload and
// verifies subsequent /similar answers are bit-identical to the new model's
// sequential predictions (and no longer match the old model's), on replicas
// that served the old model before the swap.
func TestServeHotSwap(t *testing.T) {
	corpus, _ := fixture(t)
	s := startServer(t, Config{Workers: 2, QueueCap: 64})
	cases := similarCases(t, s, 2)
	oldWant := similarReference(fixModel, cases)

	// Sequential requests take the two replicas in turn, so both serve the
	// old weights first and the swap must re-clone them.
	client := &http.Client{}
	defer client.CloseIdleConnections()
	similar := func(i int) (int, map[string]float64) {
		t.Helper()
		c := i % len(cases)
		got, err := postSimilar(client, s.URL(), cases[c].body)
		if err != nil {
			t.Fatal(err)
		}
		return c, got
	}
	for i := 0; i < 2*len(cases); i++ {
		c, got := similar(i)
		if err := sameSimilarities(got, oldWant[c]); err != nil {
			t.Fatalf("case %d before reload: %v", c, err)
		}
	}

	// A second model: same architecture, different seed — different weights.
	// Fine-tuning only is fast, and its untrained similarity heads still
	// answer /similar.
	cfg2 := tinyModelConfig(23)
	cfg2.PretrainEpochs = 0
	m2, _, err := core.Train(corpus, dataset.NewSimilarityCache(corpus), cfg2, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "m2.gob")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	body, err := json.Marshal(ReloadRequest{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(s.URL()+"/admin/reload", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload -> %s", resp.Status)
	}

	newWant := similarReference(s.state().model, cases)
	for i := 0; i < 2*len(cases); i++ {
		c, got := similar(i)
		if err := sameSimilarities(got, newWant[c]); err != nil {
			t.Fatalf("case %d after reload: %v", c, err)
		}
		if sameSimilarities(got, oldWant[c]) == nil {
			t.Errorf("case %d: similarities identical to the old model — swap had no effect", c)
		}
	}
}

// TestServeReloadRejectsNonFiniteWeights posts /admin/reload with the
// fixture model's checkpoint after setting one weight (the first position
// embedding) to NaN. The daemon must answer 400 and keep serving the old
// model, on /similar, at the same generation.
func TestServeReloadRejectsNonFiniteWeights(t *testing.T) {
	s := startServer(t, Config{Workers: 2, QueueCap: 64})
	cases := similarCases(t, s, 2)
	want := similarReference(fixModel, cases)
	client := &http.Client{}
	defer client.CloseIdleConnections()
	similarAll := func(when string) {
		t.Helper()
		for c := range cases {
			got, err := postSimilar(client, s.URL(), cases[c].body)
			if err == nil {
				err = sameSimilarities(got, want[c])
			}
			if err != nil {
				t.Fatalf("case %d %s the reload: %v", c, when, err)
			}
		}
	}
	similarAll("before")

	var buf bytes.Buffer
	if err := fixModel.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// The fields of core's checkpoint payload; gob matches them by name.
	var ckpt struct {
		Version int
		Cfg     core.ModelConfig
		Words   []string
		Weights [][]float64
	}
	if err := gob.NewDecoder(&buf).Decode(&ckpt); err != nil {
		t.Fatal(err)
	}
	ckpt.Weights[1][0] = math.NaN() // emb.pos, position 0
	path := filepath.Join(t.TempDir(), "nan.gob")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(f).Encode(&ckpt); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	gen := s.gen.Load()
	body, err := json.Marshal(ReloadRequest{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(s.URL()+"/admin/reload", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(msg, []byte("emb.pos")) {
		t.Fatalf("reload of a NaN checkpoint -> %s %s, want 400 naming emb.pos", resp.Status, msg)
	}
	if got := s.gen.Load(); got != gen {
		t.Errorf("generation moved from %d to %d on a refused reload", gen, got)
	}
	similarAll("after")
}

// TestServeBackpressure verifies the HTTP overload contract deterministically:
// with every admission slot held, /rank must answer 429 with a Retry-After
// header, not block, and must not evaluate the query, because admission
// precedes evaluation.
func TestServeBackpressure(t *testing.T) {
	run := obs.NewRun("backpressure-test", obs.NewRegistry(), nil, nil)
	obs.Install(run)
	defer obs.Uninstall()
	corpus, model := fixture(t)
	s := New(Config{Workers: 1, QueueCap: 1}, corpus, model)
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
// access line and one slow line. It sends /rank at the default exact budget,
// /rank at budget 0 and one /similar. Each must count once in serve.req.slow,
// and each of its two lines must carry the response's X-Trace-Id, the
// evaluate, queue-wait, batch-wait and score durations, and the engine that
// answered on /rank only.
func TestServeSlowRequestCounted(t *testing.T) {
	var logs bytes.Buffer
	run := obs.NewRun("slow-test", obs.NewRegistry(), nil, obs.NewLogger(&logs, obs.LevelDebug))
	obs.Install(run)
	defer obs.Uninstall()
	corpus, model := fixture(t)
	s := New(Config{Workers: 1, QueueCap: 1, SlowMS: 1e-6}, corpus, model)
	cases, err := selfTestCases(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	similar, err := json.Marshal(SimilarRequest{SQLA: cases[0].sql, SQLB: cases[0].sql})
	if err != nil {
		t.Fatal(err)
	}
	for i, req := range []struct {
		path   string
		body   []byte
		budget int
		engine string // "" when the line must carry no engine
	}{
		{"/rank", cases[0].body, rankExactNodes, engineExact},
		{"/rank", cases[0].body, 0, engineProxy},
		{"/similar", similar, rankExactNodes, ""},
	} {
		s.exactNodes = req.budget
		logs.Reset()
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, req.path, bytes.NewReader(req.body)))
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
			if got, ok := fields["engine"]; req.engine == "" && ok {
				t.Errorf("%s %s line names engine %v, want none", req.path, kind, got)
			} else if req.engine != "" && got != req.engine {
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

// TestAnswerRefusalsConcurrent answers the same lineages at budget 0 from
// several goroutines at once, so the refusal memory's slots are read and
// written concurrently (ci runs it under -race, ten times): every answer must
// still be the proxy's, bit for bit.
func TestAnswerRefusalsConcurrent(t *testing.T) {
	corpus, model := fixture(t)
	s := New(Config{Workers: 1, QueueCap: 1}, corpus, model)
	s.exactNodes = 0
	cases, err := selfTestCases(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, c := range cases {
				got, eng := s.answer(context.Background(), c.prov)
				if want := shapley.CNFProxy(c.prov); eng != engineProxy || !reflect.DeepEqual(got, want) {
					t.Errorf("answer = %v by %q, want %v by %q", got, eng, want, engineProxy)
				}
			}
		}()
	}
	wg.Wait()
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

// TestServeLocateErrors pins locate's error answers on /rank and /explain:
// unparsable SQL and an unknown relation answer 400, a tuple absent from the
// result 404, and so do a request without a tuple and a tuple with one value
// too few or one too many, which the tuple evaluation must reject by arity
// instead of indexing past the projection list. Every answer carries a JSON
// error body.
func TestServeLocateErrors(t *testing.T) {
	corpus, model := fixture(t)
	s := New(Config{Workers: 1, QueueCap: 1}, corpus, model)
	cases, err := selfTestCases(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	var valid RankRequest
	if err := json.Unmarshal(cases[0].body, &valid); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		req   RankRequest
		code  int
		error string // a substring of the error body
	}{
		{"unparsable", RankRequest{SQL: "SELEC nothing", Tuple: valid.Tuple}, http.StatusBadRequest, "parse"},
		{"unknown_relation", RankRequest{SQL: "SELECT nosuch.x FROM nosuch", Tuple: []string{"x"}}, http.StatusBadRequest, "unknown relation"},
		{"absent_tuple", RankRequest{SQL: valid.SQL, Tuple: append(make([]string, len(valid.Tuple)-1), "no such value")}, http.StatusNotFound, "not found"},
		{"missing_tuple", RankRequest{SQL: valid.SQL}, http.StatusNotFound, "not found"},
		{"one_value_too_few", RankRequest{SQL: valid.SQL, Tuple: valid.Tuple[:len(valid.Tuple)-1]}, http.StatusNotFound, "not found"},
		{"one_value_too_many", RankRequest{SQL: valid.SQL, Tuple: append(append([]string(nil), valid.Tuple...), valid.Tuple[0])}, http.StatusNotFound, "not found"},
	} {
		for _, path := range []string{"/rank", "/explain"} {
			t.Run(tc.name+"_"+path[1:], func(t *testing.T) {
				body, err := json.Marshal(tc.req)
				if err != nil {
					t.Fatal(err)
				}
				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
				if rec.Code != tc.code {
					t.Fatalf("-> %d, want %d: %s", rec.Code, tc.code, rec.Body)
				}
				if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
					t.Errorf("Content-Type %q, want application/json", ct)
				}
				var er errorResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || !strings.Contains(er.Error, tc.error) {
					t.Errorf("error body %q (decode err %v), want an error mentioning %q", rec.Body, err, tc.error)
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
