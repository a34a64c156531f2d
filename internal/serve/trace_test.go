package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/provenance"
	"repro/internal/shapley"
)

// ringTraces polls the server's trace ring until it holds at least n traces
// for the given endpoint (the ring is written after the response bytes are
// out, so the client can observe its response before the trace lands).
func ringTraces(t *testing.T, s *Server, endpoint string, n int) []obs.RequestTrace {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var got []obs.RequestTrace
		for _, tr := range s.ring.Snapshot() {
			if tr.Endpoint == endpoint {
				got = append(got, tr)
			}
		}
		if len(got) >= n {
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace ring holds %d %s traces, want %d", len(got), endpoint, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func stageNames(tr obs.RequestTrace) map[string]bool {
	out := make(map[string]bool, len(tr.Stages))
	for _, st := range tr.Stages {
		out[st.Name] = true
	}
	return out
}

// checkInScore requires the named stage inside the trace's score stage.
// Offsets and durations are truncated to whole microseconds, so the inner
// stage may end up to 1 µs past the outer one.
func checkInScore(t *testing.T, tr obs.RequestTrace, name string) {
	t.Helper()
	var score, inner *obs.Stage
	for i := range tr.Stages {
		switch tr.Stages[i].Name {
		case "score":
			score = &tr.Stages[i]
		case name:
			inner = &tr.Stages[i]
		}
	}
	if score == nil || inner == nil {
		t.Errorf("%s trace %s lacks stage score or %s (has %v)", tr.Endpoint, tr.TraceID, name, stageNames(tr))
		return
	}
	if inner.StartUS < score.StartUS || inner.StartUS+inner.DurUS > score.StartUS+score.DurUS+1 {
		t.Errorf("%s trace %s: %s %+v lies outside score %+v", tr.Endpoint, tr.TraceID, name, *inner, *score)
	}
}

// TestTraceIDThreadsThroughStages is the end-to-end trace check: client trace
// IDs survive the handler → compile turn boundary. Concurrent requests
// carrying distinct X-Trace-Id headers are scored on different turns, yet
// each response echoes its own ID and each ring trace carries that request's
// full stage decomposition — evaluate, queue-wait, batch-wait, score (with
// the exact attempt's shapley.exact stage inside it) and write — with the
// per-stage histograms populated on the live registry, one evaluate
// observation per /rank or /explain request. A missing, oversized or
// malformed inbound ID gets a minted one instead.
func TestTraceIDThreadsThroughStages(t *testing.T) {
	run := obs.NewRun("trace-test", obs.NewRegistry(), nil, nil)
	obs.Install(run)
	defer obs.Uninstall()

	s := startServer(t, Config{Workers: 2, QueueCap: 64})
	cases, err := selfTestCases(s, 4)
	if err != nil {
		t.Fatal(err)
	}

	const n = 8
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("%016x", 0xabc000+i)
	}
	client := &http.Client{}
	defer client.CloseIdleConnections()
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			req, err := http.NewRequest(http.MethodPost, s.URL()+"/rank", bytes.NewReader(cases[i%len(cases)].body))
			if err != nil {
				errs[i] = err
				return
			}
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set(obs.TraceHeader, ids[i])
			resp, err := client.Do(req)
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			_, _ = io.Copy(io.Discard, resp.Body)
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("rank -> %d", resp.StatusCode)
				return
			}
			if got := resp.Header.Get(obs.TraceHeader); got != ids[i] {
				errs[i] = fmt.Errorf("response echoed trace ID %q, want %q", got, ids[i])
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Every request's trace must be in the ring with the full decomposition.
	traces := ringTraces(t, s, "rank", n)
	byID := make(map[string]obs.RequestTrace, len(traces))
	for _, tr := range traces {
		byID[tr.TraceID] = tr
	}
	for _, id := range ids {
		tr, ok := byID[id]
		if !ok {
			t.Fatalf("trace %s missing from the ring", id)
		}
		names := stageNames(tr)
		for _, want := range []string{"evaluate", "queue_wait", "batch_wait", "score", "write"} {
			if !names[want] {
				t.Errorf("trace %s lacks stage %q (has %v)", id, want, names)
			}
		}
		checkInScore(t, tr, "shapley.exact")
		if tr.Status != http.StatusOK || tr.TotalUS < 0 {
			t.Errorf("trace %s: status %d total %dus", id, tr.Status, tr.TotalUS)
		}
	}

	// The stage histograms observed every request on the live registry.
	snap := run.Reg.Snapshot()
	for _, h := range []string{
		"serve.stage.queue_wait_ms", "serve.stage.batch_wait_ms",
		"serve.stage.score_ms", "serve.stage.write_ms",
	} {
		if got := snap.Histograms[h].Count; got < n {
			t.Errorf("%s recorded %d observations, want >= %d", h, got, n)
		}
	}
	if got := snap.Histograms["serve.stage.evaluate_ms"].Count; got != n {
		t.Errorf("serve.stage.evaluate_ms recorded %d observations after %d requests, want one each", got, n)
	}

	// /explain shares the evaluate stage and the exact attempt.
	resp, err := client.Post(s.URL()+"/explain", "application/json", bytes.NewReader(cases[0].body))
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain -> %d", resp.StatusCode)
	}
	explainTrace := ringTraces(t, s, "explain", 1)[0]
	if names := stageNames(explainTrace); !names["evaluate"] {
		t.Errorf("explain trace lacks stage \"evaluate\" (has %v)", names)
	}
	checkInScore(t, explainTrace, "shapley.exact")
	if got := run.Reg.Snapshot().Histograms["serve.stage.evaluate_ms"].Count; got != n+1 {
		t.Errorf("serve.stage.evaluate_ms recorded %d observations after %d requests, want one each", got, n+1)
	}

	// A request without a usable inbound ID gets a minted, echoed ID: no
	// header, a 900 KiB ID (under net/http's 1 MiB header limit) and an ID
	// with a space. No inbound ID other than the clients' valid ones may
	// reach the ring.
	hex16 := regexp.MustCompile(`^[0-9a-f]{16}$`)
	known := make(map[string]bool, n+3)
	for _, id := range ids {
		known[id] = true
	}
	for _, id := range []string{"", strings.Repeat("a", 900<<10), "abc def"} {
		req, err := http.NewRequest(http.MethodPost, s.URL()+"/rank", bytes.NewReader(cases[0].body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(obs.TraceHeader, id)
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		got := resp.Header.Get(obs.TraceHeader)
		if resp.StatusCode != http.StatusOK || !hex16.MatchString(got) {
			t.Errorf("inbound ID of %d bytes -> %d with trace ID %.40q, want 200 with a minted 16-hex ID",
				len(id), resp.StatusCode, got)
		}
		known[got] = true
	}
	for _, tr := range ringTraces(t, s, "rank", n+3) {
		if !known[tr.TraceID] {
			t.Errorf("ring holds trace ID %.40q (%d bytes), neither a client's nor a minted one", tr.TraceID, len(tr.TraceID))
		}
	}
}

// TestServeRemembersRefusals sends one lineage of several derivations twice
// at budget 0, set before the first request. The first request's exact
// attempt is refused and the proxy answers; the second skips the attempt. So
// the first trace holds shapley.exact and shapley.proxy, the second only
// shapley.proxy, both inside score, shapley.exact.refused counts one refusal,
// and the two answers are identical. The same lineage with its monomials in
// reverse order must skip the attempt too: the refusal memory hashes a
// lineage independently of its monomials' order.
func TestServeRemembersRefusals(t *testing.T) {
	run := obs.NewRun("refusal-test", obs.NewRegistry(), nil, nil)
	obs.Install(run)
	defer obs.Uninstall()
	s := New(Config{Workers: 1, QueueCap: 1}, fixture(t), nil)
	s.exactNodes = 0
	all, err := selfTestCases(s, 64)
	if err != nil {
		t.Fatal(err)
	}
	var c selfTestCase
	for _, c = range all {
		if len(c.prov.Monomials) > 1 {
			break
		}
	}
	if len(c.prov.Monomials) < 2 {
		t.Fatal("no test case has a lineage of several derivations")
	}
	var answers [2]string
	for i := range answers {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/rank", bytes.NewReader(c.body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d -> %d: %s", i+1, rec.Code, rec.Body)
		}
		answers[i] = rec.Body.String()
	}
	if answers[0] != answers[1] || !strings.Contains(answers[0], `"engine":"proxy"`) {
		t.Errorf("answers differ or are not the proxy's:\n%s\n%s", answers[0], answers[1])
	}
	traces := ringTraces(t, s, "rank", 2)
	for i, want := range []map[string]bool{
		{"shapley.exact": true, "shapley.proxy": true},
		{"shapley.exact": false, "shapley.proxy": true},
	} {
		names := stageNames(traces[i])
		for stage, present := range want {
			if names[stage] != present {
				t.Errorf("request %d: stage %s present %v, want %v (has %v)", i+1, stage, names[stage], present, names)
			}
		}
		checkInScore(t, traces[i], "shapley.proxy")
	}
	if got := run.Reg.Snapshot().Counters["shapley.exact.refused"]; got != 1 {
		t.Errorf("shapley.exact.refused = %d after two requests for one lineage, want 1", got)
	}

	reversed := &provenance.DNF{Monomials: slices.Clone(c.prov.Monomials)}
	slices.Reverse(reversed.Monomials)
	got, eng := s.answer(context.Background(), reversed)
	if want := shapley.CNFProxy(c.prov); eng != engineProxy || !reflect.DeepEqual(got, want) {
		t.Errorf("reversed lineage: answer = %v by %q, want %v by %q", got, eng, want, engineProxy)
	}
	if got := run.Reg.Snapshot().Counters["shapley.exact.refused"]; got != 1 {
		t.Errorf("shapley.exact.refused = %d after the lineage with its monomials reversed, want 1", got)
	}
}

// TestDebugTraceEndpoint checks both renderings of /debug/trace: the default
// Chrome trace-event document (valid JSON, complete events carrying trace IDs)
// and ?format=raw (the ring's RequestTrace records).
func TestDebugTraceEndpoint(t *testing.T) {
	s := startServer(t, DefaultConfig())
	cases, err := selfTestCases(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{}
	defer client.CloseIdleConnections()
	if _, code, err := postRank(client, s.URL(), cases[0].body); err != nil || code != http.StatusOK {
		t.Fatalf("rank: code %d err %v", code, err)
	}
	ringTraces(t, s, "rank", 1)

	resp, err := client.Get(s.URL() + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("/debug/trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("/debug/trace emitted no events after a served request")
	}
	sawRank := false
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("event %q has ph %q, want X", ev.Name, ev.Ph)
		}
		if ev.Name == "rank" {
			sawRank = true
			if id, _ := ev.Args["trace_id"].(string); id == "" {
				t.Error("rank event missing trace_id arg")
			}
		}
	}
	if !sawRank {
		t.Error("no rank request event in the Chrome trace")
	}

	raw, err := client.Get(s.URL() + "/debug/trace?format=raw")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Body.Close()
	var trs []obs.RequestTrace
	if err := json.NewDecoder(raw.Body).Decode(&trs); err != nil {
		t.Fatalf("raw trace dump: %v", err)
	}
	if len(trs) == 0 || trs[len(trs)-1].Endpoint != "rank" {
		t.Errorf("raw dump = %+v, want the served rank trace", trs)
	}
}

// TestHealthzReadiness pins the liveness/readiness split: plain /healthz stays
// 200 on a draining server (the process is alive), while ?probe=readiness
// flips to 503 the moment draining begins — the load-balancer signal.
func TestHealthzReadiness(t *testing.T) {
	s := New(DefaultConfig(), fixture(t), nil)

	get := func(path string) (int, map[string]any) {
		t.Helper()
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		var body map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("healthz body: %v", err)
		}
		return rec.Code, body
	}

	code, body := get("/healthz")
	if code != http.StatusOK || body["live"] != true || body["ready"] != true {
		t.Fatalf("serving healthz: code %d body %v", code, body)
	}
	if _, ok := body["workers"]; !ok {
		t.Error("healthz body missing workers")
	}
	if _, ok := body["queue_depth"]; !ok {
		t.Error("healthz body missing queue_depth")
	}
	if code, _ := get("/healthz?probe=readiness"); code != http.StatusOK {
		t.Fatalf("readiness probe on serving daemon -> %d, want 200", code)
	}

	s.draining.Store(true)
	if code, body := get("/healthz"); code != http.StatusOK || body["live"] != true {
		t.Errorf("draining liveness -> %d (%v), want 200/live", code, body)
	}
	code, body = get("/healthz?probe=readiness")
	if code != http.StatusServiceUnavailable {
		t.Errorf("draining readiness -> %d, want 503", code)
	}
	if body["ready"] != false || body["draining"] != true {
		t.Errorf("draining body = %v, want ready=false draining=true", body)
	}
}

// TestMetricsPrometheus drives one request and scrapes /metrics in both
// formats: the Prometheus rendering must carry the 0.0.4 content type, the
// per-stage histograms with _bucket/_sum/_count and a terminal +Inf bucket,
// and every live metric name must pass the naming lint — the acceptance gate.
func TestMetricsPrometheus(t *testing.T) {
	run := obs.NewRun("prom-test", obs.NewRegistry(), nil, nil)
	obs.Install(run)
	defer obs.Uninstall()

	s := startServer(t, DefaultConfig())
	cases, err := selfTestCases(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{}
	defer client.CloseIdleConnections()
	if _, code, err := postRank(client, s.URL(), cases[0].body); err != nil || code != http.StatusOK {
		t.Fatalf("rank: code %d err %v", code, err)
	}

	resp, err := client.Get(s.URL() + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("content type %q, want the 0.0.4 exposition type", ct)
	}
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE serve_stage_score_ms histogram",
		"serve_stage_score_ms_bucket{le=\"+Inf\"}",
		"serve_stage_score_ms_sum",
		"serve_stage_score_ms_count",
		"serve_req_rank 1",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}

	snap := run.Reg.Snapshot()
	if errs := obs.LintSnapshot(&snap); len(errs) != 0 {
		t.Errorf("live registry fails the naming lint: %v", errs)
	}
}
