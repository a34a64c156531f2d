package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
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
	corpus, model := fixture(t)
	cfg.Addr = "127.0.0.1:0"
	s := New(cfg, corpus, model)
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

// sequentialReference scores every prepared case exactly as a per-request
// deployment would: one replica, one request at a time, core.RankOn.
func sequentialReference(t *testing.T, model *core.Model, cases []selfTestCase) []shapley.Values {
	t.Helper()
	ref := model.CloneForWorker()
	want := make([]shapley.Values, len(cases))
	for i, c := range cases {
		want[i] = ref.Rank(c.in)
	}
	return want
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
// scores served to concurrent requests must be bit-identical to sequential
// core.RankOn at 1, 2 and 3 workers. Each grid point sends its requests in
// client batches of `batch` concurrent requests and starts the next batch
// `window` after the previous one was answered, so the sweep covers one
// request in flight at a time, bursts that occupy every replica, and bursts
// that queue behind busy replicas.
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
			cases, err := selfTestCases(s, 6)
			if err != nil {
				t.Fatal(err)
			}
			want := sequentialReference(t, model, cases)

			client := &http.Client{}
			defer client.CloseIdleConnections()
			check := func(c int) error {
				rr, code, err := postRank(client, s.URL(), cases[c].body)
				if err != nil {
					return err
				}
				if code != http.StatusOK {
					return fmt.Errorf("rank -> %d", code)
				}
				if len(rr.Facts) != len(want[c]) {
					return fmt.Errorf("got %d facts, want %d", len(rr.Facts), len(want[c]))
				}
				for _, f := range rr.Facts {
					if got, ref := f.Score, want[c][relation.FactID(f.ID)]; got != ref {
						return fmt.Errorf("fact %d: served %v != sequential %v", f.ID, got, ref)
					}
				}
				return nil
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
	want := sequentialReference(t, model, cases)
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
			case len(rr.Facts) != len(want[c]):
				errs[i] = fmt.Errorf("request %d: %d facts, want %d", i, len(rr.Facts), len(want[c]))
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
// verifies subsequent scores are bit-identical to the new model's sequential
// ranking (and no longer match the old model's), on replicas that scored on
// the old model before the swap.
func TestServeHotSwap(t *testing.T) {
	corpus, _ := fixture(t)
	s := startServer(t, Config{Workers: 2, QueueCap: 64})
	cases, err := selfTestCases(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	oldWant := sequentialReference(t, fixModel, cases)

	// Sequential requests take the two replicas in turn, so both score on the
	// old weights first and the swap must re-clone them.
	client := &http.Client{}
	defer client.CloseIdleConnections()
	rank := func(i int) (int, *RankResponse) {
		t.Helper()
		c := i % len(cases)
		rr, code, err := postRank(client, s.URL(), cases[c].body)
		if err != nil || code != http.StatusOK {
			t.Fatalf("rank: code %d err %v", code, err)
		}
		return c, rr
	}
	for i := 0; i < 2*len(cases); i++ {
		c, rr := rank(i)
		for _, fact := range rr.Facts {
			if id := relation.FactID(fact.ID); fact.Score != oldWant[c][id] {
				t.Fatalf("fact %d before reload: served %v, old model %v", fact.ID, fact.Score, oldWant[c][id])
			}
		}
	}

	// A second model: same architecture, different seed — different weights.
	cfg2 := tinyModelConfig(23)
	cfg2.PretrainEpochs, cfg2.PretrainMetrics = 0, nil // fine-tune only: fast, still serveable
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

	newWant := sequentialReference(t, s.state().model, cases)
	for i := 0; i < 2*len(cases); i++ {
		c, rr := rank(i)
		sawDiff := false
		for _, fact := range rr.Facts {
			id := relation.FactID(fact.ID)
			if fact.Score != newWant[c][id] {
				t.Fatalf("fact %d: served %v, new model %v", fact.ID, fact.Score, newWant[c][id])
			}
			if fact.Score != oldWant[c][id] {
				sawDiff = true
			}
		}
		if !sawDiff {
			t.Errorf("case %d: scores identical to the old model — swap had no effect", c)
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
// request's latency: one /rank must count once in serve.req.slow.
func TestServeSlowRequestCounted(t *testing.T) {
	run := obs.NewRun("slow-test", obs.NewRegistry(), nil, nil)
	obs.Install(run)
	defer obs.Uninstall()
	corpus, model := fixture(t)
	s := New(Config{Workers: 1, QueueCap: 1, SlowMS: 1e-6}, corpus, model)
	cases, err := selfTestCases(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/rank", bytes.NewReader(cases[0].body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("rank -> %d", rec.Code)
	}
	if got := run.Reg.Snapshot().Counters["serve.req.slow"]; got != 1 {
		t.Errorf("serve.req.slow = %d after one request over the threshold, want 1", got)
	}
}

// TestSelfTest runs the ci e2e gate in-process: concurrent TCP traffic,
// bitwise parity, endpoint and metrics checks.
func TestSelfTest(t *testing.T) {
	s := startServer(t, DefaultConfig())
	if err := SelfTest(s, 8); err != nil {
		t.Fatal(err)
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
