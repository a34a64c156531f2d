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

// TestServeDrainOnShutdown verifies no admitted request is dropped: requests
// racing a Shutdown either complete with 200 or are rejected at admission
// (429/503) — never cut off mid-flight.
func TestServeDrainOnShutdown(t *testing.T) {
	_, model := fixture(t)
	corpus := fixCorpus
	s := New(Config{Addr: "127.0.0.1:0", Workers: 2, QueueCap: 64}, corpus, model)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}

	cases, err := selfTestCases(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	const n = 12
	codes := make([]int, n)
	errs := make([]error, n)
	client := &http.Client{}
	defer client.CloseIdleConnections()
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			rr, code, err := postRank(client, s.URL(), cases[i%len(cases)].body)
			codes[i], errs[i] = code, err
			if err == nil && code == http.StatusOK && len(rr.Facts) == 0 {
				errs[i] = fmt.Errorf("request %d: 200 with empty ranking", i)
			}
		}(i)
	}
	// Let some requests get in flight, then drain.
	time.Sleep(2 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			// A connection refused after the listener closed is acceptable; a
			// decode error or truncated response is not.
			t.Logf("request %d: %v (code %d)", i, errs[i], codes[i])
			continue
		}
		switch codes[i] {
		case http.StatusOK, http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Errorf("request %d: unexpected status %d", i, codes[i])
		}
	}
}

// TestServeHotSwap reloads a different checkpoint through /admin/reload and
// verifies subsequent scores are bit-identical to the new model's sequential
// ranking (and no longer match the old model's).
func TestServeHotSwap(t *testing.T) {
	corpus, _ := fixture(t)
	s := startServer(t, Config{Workers: 2, QueueCap: 64})
	cases, err := selfTestCases(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	oldWant := sequentialReference(t, fixModel, cases)

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
	client := &http.Client{}
	defer client.CloseIdleConnections()
	for c := range cases {
		rr, code, err := postRank(client, s.URL(), cases[c].body)
		if err != nil || code != http.StatusOK {
			t.Fatalf("rank after reload: code %d err %v", code, err)
		}
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
// with the queue pre-filled and no dispatcher running, /rank must answer 429
// with a Retry-After header, not block.
func TestServeBackpressure(t *testing.T) {
	corpus, model := fixture(t)
	s := New(Config{Addr: "127.0.0.1:0", Workers: 1, QueueCap: 1}, corpus, model)
	// Not started: no dispatcher will ever empty the queue.
	if err := s.b.submit(&job{done: make(chan struct{})}); err != nil {
		t.Fatal(err)
	}

	cases, err := selfTestCases(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/rank", bytes.NewReader(cases[0].body))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("full queue -> %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
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
// larger than maxBodyBytes is answered 413 without ever reaching the
// admission queue, while a normal request on the same server still is.
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
		t.Errorf("oversized body reached the queue: serve.queue.admitted %d -> %d", before, got)
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
