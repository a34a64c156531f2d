package serve

import (
	"bytes"
	"context"
	"crypto/tls"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"repro/internal/obs"
	"repro/internal/provenance"
	"repro/internal/relation"
	"repro/internal/shapley"
)

// SelfTest is the end-to-end gate behind `cmd/serve -selftest` (scripts/ci.sh
// runs it): it fires n concurrent /rank requests over real TCP connections at
// the running server and checks every response bit-for-bit against the engine
// the server picks for its lineage: exact Shapley values when the lineage
// compiles within the exact budget, shapley.CNFProxy otherwise, with the
// matching "engine" field. It then exercises /healthz and /metrics, and fails
// if the metrics snapshot shows no serve activity. The server keeps running;
// the caller owns shutdown.
func SelfTest(s *Server, n int) error {
	if n < 1 {
		n = 1
	}
	cases, err := selfTestCases(s, n)
	if err != nil {
		return err
	}

	// Sequential reference pass, before any traffic.
	want := make([]shapley.Values, len(cases))
	engines := make([]string, len(cases))
	for i, c := range cases {
		want[i], engines[i] = s.answer(context.Background(), c.prov)
	}

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: n,
		TLSClientConfig:     insecureTLSFor(s.URL()),
	}}
	defer client.CloseIdleConnections()
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			c := i % len(cases)
			errs[i] = checkRank(client, s.URL(), cases[c].body, engines[c], want[c])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	if err := checkHealthz(client, s.URL()); err != nil {
		return err
	}
	return checkMetrics(client, s.URL(), int64(n))
}

// insecureTLSFor returns a verification-skipping TLS config for https base
// URLs (self-signed local daemons) and nil for plain http.
func insecureTLSFor(baseURL string) *tls.Config {
	if !strings.HasPrefix(baseURL, "https://") {
		return nil
	}
	return &tls.Config{InsecureSkipVerify: true}
}

// selfTestCase is one prepared request with the provenance of its tuple.
type selfTestCase struct {
	body []byte
	prov *provenance.DNF
}

// selfTestCases prepares up to n distinct (query, tuple) requests from the
// corpus's test split.
func selfTestCases(s *Server, n int) ([]selfTestCase, error) {
	var out []selfTestCase
	for _, qi := range s.corpus.Test {
		q := s.corpus.Queries[qi]
		for _, cs := range q.Cases {
			tuple := make([]string, len(cs.Tuple.Values))
			for i, v := range cs.Tuple.Values {
				tuple[i] = v.String()
			}
			body, err := json.Marshal(RankRequest{SQL: q.SQL, Tuple: tuple})
			if err != nil {
				return nil, err
			}
			out = append(out, selfTestCase{body: body, prov: cs.Tuple.Prov})
			if len(out) >= n {
				return out, nil
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("serve: selftest needs a corpus with test cases")
	}
	return out, nil
}

// checkRank posts one /rank request, requires the expected engine and
// compares every returned score bitwise against the sequential reference
// (float64 JSON round-trips exactly).
func checkRank(client *http.Client, base string, body []byte, engine string, want shapley.Values) error {
	resp, err := client.Post(base+"/rank", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("selftest: rank request: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("selftest: rank -> %s: %s", resp.Status, msg)
	}
	var rr RankResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		return fmt.Errorf("selftest: decode rank response: %w", err)
	}
	if rr.Engine != engine {
		return fmt.Errorf("selftest: rank answered with engine %q, want %q", rr.Engine, engine)
	}
	if len(rr.Facts) != len(want) {
		return fmt.Errorf("selftest: rank returned %d facts, the %s reference %d", len(rr.Facts), engine, len(want))
	}
	for _, f := range rr.Facts {
		w, ok := want[relation.FactID(f.ID)]
		if !ok {
			return fmt.Errorf("selftest: rank returned fact %d outside the lineage", f.ID)
		}
		if f.Score != w {
			return fmt.Errorf("selftest: fact %d scored %v over HTTP, %v by the %s reference (served scores must be bit-identical)", f.ID, f.Score, w, engine)
		}
	}
	return nil
}

// checkHealthz asserts the health document of a serving (non-draining) daemon:
// alive and ready.
func checkHealthz(client *http.Client, base string) error {
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		return fmt.Errorf("selftest: healthz: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("selftest: healthz -> %s", resp.Status)
	}
	var h struct {
		Live  bool `json:"live"`
		Ready bool `json:"ready"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return fmt.Errorf("selftest: decode healthz: %w", err)
	}
	if !h.Live || !h.Ready {
		return fmt.Errorf("selftest: healthz live=%v ready=%v, want both true on a serving daemon", h.Live, h.Ready)
	}
	return nil
}

// checkMetrics asserts the /metrics snapshot recorded the traffic just sent:
// at least n rank requests, at least one scoring, and a score stage per
// request. Skipped without a live registry (the snapshot is then legitimately
// empty).
func checkMetrics(client *http.Client, base string, n int64) error {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return fmt.Errorf("selftest: metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("selftest: metrics -> %s", resp.Status)
	}
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return fmt.Errorf("selftest: decode metrics: %w", err)
	}
	if obs.Metrics() == nil {
		return nil
	}
	if got := snap.Counters["serve.req.rank"]; got < n {
		return fmt.Errorf("selftest: serve.req.rank = %d, want >= %d", got, n)
	}
	if h, ok := snap.Histograms["serve.batch.size"]; !ok || h.Count < 1 {
		return fmt.Errorf("selftest: serve.batch.size histogram recorded no scoring")
	}
	if h, ok := snap.Histograms["serve.stage.score_ms"]; !ok || h.Count < n {
		var got int64
		if ok {
			got = h.Count
		}
		return fmt.Errorf("selftest: serve.stage.score_ms recorded %d stages, want >= %d (trace decomposition missing)", got, n)
	}
	return nil
}
