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
// the running server, twice, and checks every response bit-for-bit against
// the engine the server picks for its lineage: exact Shapley values when the
// lineage compiles within the exact budget, shapley.CNFProxy otherwise, in
// Values.Ranking order, with the matching "engine" field and the request's
// query and tuple renderings. The first round fills the memo and the second
// is answered from it, so memo answers are checked too, and each second
// round body must be byte-identical to the first round's. It then exercises
// /healthz and /metrics, and fails if the metrics snapshot shows no serve
// activity or no memo answer. The server keeps running; the caller owns
// shutdown.
func SelfTest(s *Server, n int) error {
	if n < 1 {
		n = 1
	}
	cases, err := selfTestCases(s, n)
	if err != nil {
		return err
	}

	// Sequential reference pass, before any traffic and around the memo, so
	// that no answer is checked against a remembered one.
	want := make([]shapley.Values, len(cases))
	engines := make([]string, len(cases))
	for i, c := range cases {
		want[i], engines[i] = s.compute(context.Background(), c.prov)
	}

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: n,
		TLSClientConfig:     insecureTLSFor(s.URL()),
	}}
	defer client.CloseIdleConnections()
	const rounds = 2
	first := make([][]byte, n) // the first round's bodies
	for round := range rounds {
		errs := make([]error, n)
		var wg sync.WaitGroup
		wg.Add(n)
		for i := 0; i < n; i++ {
			go func(i int) {
				defer wg.Done()
				c := i % len(cases)
				body, err := checkRank(client, s.URL(), cases[c], engines[c], want[c])
				switch {
				case err != nil:
					errs[i] = err
				case round == 0:
					first[i] = body
				case !bytes.Equal(body, first[i]):
					errs[i] = fmt.Errorf("selftest: rank answered %q from the memo, %q before", body, first[i])
				}
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
	}

	if err := checkHealthz(client, s.URL()); err != nil {
		return err
	}
	return checkMetrics(client, s.URL(), rounds*int64(n))
}

// insecureTLSFor returns a verification-skipping TLS config for https base
// URLs (self-signed local daemons) and nil for plain http.
func insecureTLSFor(baseURL string) *tls.Config {
	if !strings.HasPrefix(baseURL, "https://") {
		return nil
	}
	return &tls.Config{InsecureSkipVerify: true}
}

// selfTestCase is one prepared request with the provenance of its tuple and
// the query and tuple renderings its answer must carry.
type selfTestCase struct {
	req   RankRequest
	body  []byte
	prov  *provenance.DNF
	query string // sqlparse.Parse(req.SQL).SQL()
	tuple string // the located tuple's String()
}

// selfTestCases prepares up to n distinct (query, tuple) requests from the
// corpus's test split. Each is located around the memo for its renderings.
func selfTestCases(s *Server, n int) ([]selfTestCase, error) {
	var out []selfTestCase
	for _, qi := range s.corpus.Test {
		q := s.corpus.Queries[qi]
		for _, cs := range q.Cases {
			tuple := make([]string, len(cs.Tuple.Values))
			for i, v := range cs.Tuple.Values {
				tuple[i] = v.String()
			}
			req := RankRequest{SQL: q.SQL, Tuple: tuple}
			body, err := json.Marshal(req)
			if err != nil {
				return nil, err
			}
			parsed, target, _, err := s.locate(req)
			if err != nil {
				return nil, fmt.Errorf("serve: selftest case %q: %w", tuple, err)
			}
			out = append(out, selfTestCase{req: req, body: body, prov: cs.Tuple.Prov, query: parsed.SQL(), tuple: target.String()})
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

// checkRank posts one case's /rank request, requires the expected engine
// and the case's query and tuple renderings, and compares the returned facts
// against the sequential reference: the same facts in Values.Ranking order,
// each score bitwise (float64 JSON round-trips exactly). It returns the
// response body.
func checkRank(client *http.Client, base string, c selfTestCase, engine string, want shapley.Values) ([]byte, error) {
	resp, err := client.Post(base+"/rank", "application/json", bytes.NewReader(c.body))
	if err != nil {
		return nil, fmt.Errorf("selftest: rank request: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("selftest: read rank response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("selftest: rank -> %s: %s", resp.Status, body)
	}
	var rr RankResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		return nil, fmt.Errorf("selftest: decode rank response: %w", err)
	}
	if rr.Engine != engine {
		return nil, fmt.Errorf("selftest: rank answered with engine %q, want %q", rr.Engine, engine)
	}
	if rr.Query != c.query || rr.Tuple != c.tuple {
		return nil, fmt.Errorf("selftest: rank answered query %q tuple %q, want %q and %q", rr.Query, rr.Tuple, c.query, c.tuple)
	}
	order := want.Ranking()
	if len(rr.Facts) != len(order) {
		return nil, fmt.Errorf("selftest: rank returned %d facts, the %s reference %d", len(rr.Facts), engine, len(order))
	}
	for k, f := range rr.Facts {
		if id := order[k]; relation.FactID(f.ID) != id || f.Score != want[id] {
			return nil, fmt.Errorf("selftest: rank %d is fact %d scored %v over HTTP, fact %d scored %v by the %s reference (served rankings must be bit-identical)",
				k, f.ID, f.Score, id, want[id], engine)
		}
	}
	return body, nil
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
// at least n rank requests, at least one scoring, a score stage per request,
// and at least one answer from the memo. Skipped without a live registry
// (the snapshot is then legitimately empty).
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
	if got := snap.Counters["serve.memo.hits"]; got < 1 {
		return fmt.Errorf("selftest: serve.memo.hits = %d, want >= 1 (no repeated request was answered from the memo)", got)
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
