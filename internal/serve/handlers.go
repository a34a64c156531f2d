package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/provenance"
	"repro/internal/shapley"
	"repro/internal/sqlparse"
)

// RankRequest asks for the ranked lineage of one output tuple, given as the
// strings its values render as: the service evaluates only that tuple of the
// query, with the tuple's values pushed into the query's scans, to find its
// provenance and lineage (a production deployment would read the lineage
// from the engine's provenance capture), then scores every lineage fact.
// Lineages whose provenance compiles within the exact budget get their exact
// Shapley values; the others get shapley.CNFProxy's scores, a ranking read
// off the provenance in well under a millisecond.
type RankRequest struct {
	SQL   string   `json:"sql"`
	Tuple []string `json:"tuple"`
}

// RankedFact is one scored lineage member. ID resolves against the server's
// database; Score is the fact's exact Shapley value or its CNFProxy score,
// the number of derivations that hold it, as the response's Engine says,
// serialized at full float64 round-trip precision (the parity tests compare
// it bitwise).
type RankedFact struct {
	ID    int32   `json:"id"`
	Fact  string  `json:"fact"`
	Score float64 `json:"score"`
}

// RankResponse is the /rank payload: lineage facts in ranked order. Engine
// names what scored them: "exact" for exact Shapley values, "proxy" for
// shapley.CNFProxy's scores.
type RankResponse struct {
	Query  string       `json:"query"`
	Tuple  string       `json:"tuple"`
	Engine string       `json:"engine"`
	Facts  []RankedFact `json:"facts"`
}

// ExplainResponse is the /explain payload: the ranking plus the evaluation
// plan, for "why is this tuple in the result?" answers a human can read.
type ExplainResponse struct {
	Query  string       `json:"query"`
	Tuple  string       `json:"tuple"`
	Plan   string       `json:"plan"`
	Engine string       `json:"engine"`
	Facts  []RankedFact `json:"facts"`
}

// The values of RankResponse.Engine and ExplainResponse.Engine.
const (
	engineExact = "exact"
	engineProxy = "proxy"
)

// errorResponse is the JSON body of every non-2xx answer.
type errorResponse struct {
	Error string `json:"error"`
}

// routes assembles the endpoint table with per-endpoint instrumentation.
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/rank", s.instrument("rank", s.handleRank(false)))
	mux.HandleFunc("/explain", s.instrument("explain", s.handleRank(true)))
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/manifest", s.handleManifest)
	mux.HandleFunc("/debug/trace", s.handleTrace)
	return mux
}

// statusWriter records the response status and the instant the header goes
// out, so the instrument wrapper can time the write stage without touching
// individual handlers (every JSON answer is one WriteHeader and one Write of
// bytes encoded beforehand, or stored in the memo, see writeBody), and the
// engine a /rank or /explain answer came from, for the access log.
type statusWriter struct {
	http.ResponseWriter
	status int
	first  time.Time
	engine string
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
		sw.first = time.Now()
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
		sw.first = time.Now()
	}
	return sw.ResponseWriter.Write(p)
}

func durMS(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// instrument wraps a handler with the endpoint's request counter and latency
// histogram, and roots the request's trace: an inbound X-Trace-Id is adopted
// (and echoed on the response) when obs.NewTraceContext accepts it, otherwise
// a fresh ID is minted. The trace context rides in the request context onto
// the scoring turn; after the handler returns, the completed trace —
// stages plus the final encode/write segment — lands in the /debug/trace ring
// and the access/slow logs. Handles are resolved once at route construction
// (obs contract).
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	reg := obs.Metrics()
	reqs := reg.Counter("serve.req." + name)
	lat := reg.Histogram("serve.latency_ms."+name, obs.ExpBuckets(0.25, 2, 14))
	return func(w http.ResponseWriter, r *http.Request) {
		reqs.Add(1)
		tc := obs.NewTraceContext(r.Header.Get(obs.TraceHeader))
		w.Header().Set(obs.TraceHeader, tc.TraceID)
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r.WithContext(obs.ContextWithTrace(r.Context(), tc)))
		end := time.Now()
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		if !sw.first.IsZero() {
			wr := end.Sub(sw.first)
			tc.AddStage("write", sw.first, wr)
			s.mWrite.Observe(durMS(wr))
		}
		total := end.Sub(tc.Begin())
		lat.Observe(durMS(total))
		s.ring.Add(obs.RequestTrace{
			TraceID:     tc.TraceID,
			Endpoint:    name,
			Status:      sw.status,
			StartUnixUS: tc.Begin().UnixMicro(),
			TotalUS:     total.Microseconds(),
			Stages:      tc.Stages(),
		})
		s.logRequest(name, tc, sw, durMS(total))
	}
}

// logRequest emits the structured JSON access-log line for one completed
// request (debug level, so -v 2) and — when the request breached the -slow-ms
// threshold — the always-on slow-request line plus the serve.req.slow counter.
// Ranking requests also name the engine that answered. The line is built only
// when the request is slow or the installed logger prints debug lines.
func (s *Server) logRequest(name string, tc *obs.TraceContext, sw *statusWriter, totalMS float64) {
	slow := s.cfg.SlowMS > 0 && totalMS >= s.cfg.SlowMS
	if slow {
		s.mSlow.Add(1)
	}
	if r := obs.Live(); !slow && (r == nil || r.Log.Level() < obs.LevelDebug) {
		return
	}
	fields := map[string]any{
		"trace_id":      tc.TraceID,
		"endpoint":      name,
		"status":        sw.status,
		"total_ms":      totalMS,
		"evaluate_ms":   durMS(tc.StageDur("evaluate")),
		"queue_wait_ms": durMS(tc.StageDur("queue_wait")),
		"batch_wait_ms": durMS(tc.StageDur("batch_wait")),
		"score_ms":      durMS(tc.StageDur("score")),
	}
	if sw.engine != "" {
		fields["engine"] = sw.engine
	}
	line, _ := json.Marshal(fields)
	obs.Debugf("serve: access %s\n", line)
	if slow {
		obs.Infof("serve: slow %s\n", line)
	}
}

// writeJSON encodes v and sends it with writeBody. An encode error leaves
// nothing sent yet, so it is counted in serve.err.encode and answered 500
// (an errorResponse always encodes).
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := encodeJSON(v)
	if err != nil {
		obs.Metrics().Counter("serve.err.encode").Add(1)
		s.writeError(w, http.StatusInternalServerError, "encode response: %v", err)
		return
	}
	s.writeBody(w, code, body)
}

// encodeJSON returns what json.Encoder writes for v, the trailing newline
// included.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// writeBody sends one JSON response body, with its Content-Type and its
// Content-Length, in one Write: every JSON answer goes out here, a memo
// hit's stored bytes among them. A write error after the header is out
// cannot change the status anymore; it is counted in serve.err.encode and
// logged, never silently dropped.
func (s *Server) writeBody(w http.ResponseWriter, code int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	if _, err := w.Write(body); err != nil {
		obs.Metrics().Counter("serve.err.encode").Add(1)
		obs.Infof("serve: write response: %v\n", err)
	}
}

// writeError sends a JSON error body with the given status.
func (s *Server) writeError(w http.ResponseWriter, code int, format string, args ...any) {
	obs.Metrics().Counter("serve.err.request").Add(1)
	s.writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// maxBodyBytes bounds every JSON request body. The largest legitimate body is
// a SQL query plus a tuple, a few KiB; anything near the bound is abuse.
const maxBodyBytes = 1 << 20

// handleRank serves /rank and, with explain set, /explain, which adds the
// evaluation plan of the requested tuple, its selection included. It reads
// the body, at most maxBodyBytes, into its memo key, answering 405 for any
// method but POST and 413 for an oversized body before the request is
// admitted. Admission comes before anything else runs, so the admission
// bound covers evaluation as well as scoring. The rest runs on a compile
// turn, as the request's "score" stage (see answer): the memo's answer, or
// the decode, the parse, the evaluation of the requested tuple, the exact
// attempt and any proxy pass, so at most Config.Workers requests evaluate
// and compile at once.
func (s *Server) handleRank(explain bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			s.writeError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		key, err := readKey(s.exactNodes, http.MaxBytesReader(w, r.Body, maxBodyBytes), r.ContentLength)
		if err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				s.writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
			} else {
				s.writeError(w, http.StatusBadRequest, "read request: %v", err)
			}
			return
		}
		if !s.admit(w) {
			return
		}
		defer s.release()
		var a *memoEntry
		var code int
		s.score(obs.TraceFrom(r.Context()), func() { a, code, err = s.answer(r.Context(), key) })
		if err != nil {
			s.writeError(w, code, "%v", err)
			return
		}
		if a.engine == engineExact {
			s.mExact.Add(1)
		} else {
			s.mProxy.Add(1)
		}
		if sw, ok := w.(*statusWriter); ok {
			sw.engine = a.engine
		}
		if !explain {
			s.writeBody(w, http.StatusOK, a.body)
			return
		}
		// Plans are not remembered: /explain decodes the request again for
		// its plan, and the stored RankResponse into the rest of its answer.
		var req RankRequest
		var er ExplainResponse
		var q *sqlparse.Query
		if err = json.Unmarshal(keyBody(key), &req); err == nil {
			err = json.Unmarshal(a.body, &er)
		}
		if err == nil {
			q, err = sqlparse.Parse(req.SQL)
		}
		if err == nil {
			er.Plan, err = engine.Explain(s.corpus.DB, q, engine.Options{Tuple: req.Tuple})
		}
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "explain: %v", err)
			return
		}
		s.writeJSON(w, http.StatusOK, er)
	}
}

// answer returns the answer to the request whose memo key is key (readKey)
// or, when it has none, the HTTP status and error to answer with. A request
// the memo holds is answered from it, as the "serve.memo" stage of the
// trace ctx carries, counted in serve.memo.hits. Any other is decoded and
// located (its "evaluate" stage, observed in serve.stage.evaluate_ms),
// scored by compute, rendered, encoded once and stored; an error is not
// stored.
func (s *Server) answer(ctx context.Context, key []byte) (*memoEntry, int, error) {
	tc := obs.TraceFrom(ctx)
	start := time.Now()
	if a := s.memo.get(key); a != nil {
		tc.AddStage("serve.memo", start, time.Since(start))
		s.mMemoHits.Add(1)
		return a, 0, nil
	}
	start = time.Now()
	var req RankRequest
	var q *sqlparse.Query
	var target *engine.OutputTuple
	var code int
	err := json.Unmarshal(keyBody(key), &req)
	if err != nil {
		code, err = http.StatusBadRequest, fmt.Errorf("decode request: %w", err)
	} else {
		q, target, code, err = s.locate(req)
	}
	d := time.Since(start)
	tc.AddStage("evaluate", start, d)
	s.mEvaluate.Observe(durMS(d))
	if err != nil {
		return nil, code, err
	}
	vals, eng := s.compute(ctx, target.Prov)
	body, err := encodeJSON(RankResponse{Query: q.SQL(), Tuple: target.String(), Engine: eng, Facts: s.rankedFacts(vals)})
	if err != nil {
		obs.Metrics().Counter("serve.err.encode").Add(1)
		return nil, http.StatusInternalServerError, fmt.Errorf("encode answer: %w", err)
	}
	// The clone leaves the encoder's spare capacity behind: the memo's
	// byte bound counts the body's length.
	a := &memoEntry{engine: eng, body: bytes.Clone(body)}
	s.memo.put(string(key), a)
	return a, 0, nil
}

// compute scores one lineage without the memo: with its exact Shapley values
// when the provenance compiles within the server's exact budget, else with
// shapley.CNFProxy. The exact attempt is the "shapley.exact" stage of the
// trace ctx carries, and the proxy its "shapley.proxy" stage.
func (s *Server) compute(ctx context.Context, prov *provenance.DNF) (shapley.Values, string) {
	tc := obs.TraceFrom(ctx)
	done := tc.StageTimer("shapley.exact")
	vals, _, err := shapley.ExactBudget(prov, s.exactNodes)
	done()
	if err == nil {
		return vals, engineExact
	}
	// Every ExactBudget error wraps shapley.ErrBudget: the lineage is over
	// the budget.
	defer tc.StageTimer("shapley.proxy")()
	return shapley.CNFProxy(prov), engineProxy
}

// rankedFacts renders scored lineage facts in ranking order.
func (s *Server) rankedFacts(scores shapley.Values) []RankedFact {
	facts := make([]RankedFact, 0, len(scores))
	for _, id := range scores.Ranking() {
		facts = append(facts, RankedFact{
			ID:    int32(id),
			Fact:  s.corpus.DB.Fact(id).String(),
			Score: scores[id],
		})
	}
	return facts
}

// handleHealthz answers both health probes. Plain GET /healthz is liveness:
// 200 whenever the process can answer at all — even while draining, because
// restarting a slow-but-alive daemon throws away its queue.
// /healthz?probe=readiness is the load-balancer signal: 503 while draining
// (Shutdown has begun), 200 otherwise. The body always carries the full
// picture: readiness and drain state, queue depth (admitted requests in
// flight), worker count, and the answers the memo holds with the bytes they
// count.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	draining := s.draining.Load()
	code := http.StatusOK
	if r.URL.Query().Get("probe") == "readiness" && draining {
		code = http.StatusServiceUnavailable
	}
	entries, bytes := s.memo.stats()
	s.writeJSON(w, code, map[string]any{
		"live":         true,
		"ready":        !draining,
		"draining":     draining,
		"queue_depth":  len(s.slots),
		"workers":      s.cfg.Workers,
		"memo_entries": entries,
		"memo_bytes":   bytes,
	})
}

// handleMetrics exports the live obs registry. The default is the repo's JSON
// snapshot — per-endpoint latency histograms, the serve.stage.* decomposition,
// the admission counters and queue-depth gauge, and every library metric
// (shapley.exact.*). ?format=prometheus renders the same
// snapshot in the Prometheus text exposition format (0.0.4) for scrapers.
// Empty without a live registry.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := obs.Metrics().Snapshot()
	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := obs.WritePrometheus(w, &snap); err != nil {
			obs.Infof("serve: write prometheus: %v\n", err)
		}
		return
	}
	s.writeJSON(w, http.StatusOK, snap)
}

// handleTrace dumps the ring of recent request traces. The default rendering
// is Chrome trace-event JSON — load it straight into chrome://tracing or
// Perfetto to see the evaluate / queue-wait / batch-wait / score / write
// decomposition of every recent request on a shared timeline. ?format=raw
// returns the ring's RequestTrace records verbatim for programmatic consumers.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "raw" {
		s.writeJSON(w, http.StatusOK, s.ring.Snapshot())
		return
	}
	var buf bytes.Buffer
	if err := s.ring.WriteChromeTrace(&buf); err != nil {
		obs.Metrics().Counter("serve.err.encode").Add(1)
		s.writeError(w, http.StatusInternalServerError, "encode trace: %v", err)
		return
	}
	s.writeBody(w, http.StatusOK, buf.Bytes())
}

// handleManifest exports the run manifest of the installed obs run, the same
// learnshapley.run.v1 document -metrics-out writes at exit.
func (s *Server) handleManifest(w http.ResponseWriter, r *http.Request) {
	run := obs.Live()
	if run == nil {
		s.writeError(w, http.StatusNotFound, "no observability run installed (start with -metrics-out or -trace)")
		return
	}
	s.writeJSON(w, http.StatusOK, run.Manifest())
}

// locate parses the request's query and evaluates only the requested output
// tuple against the server's database; on failure it also returns the HTTP
// status to answer with. engine.Options.Tuple pushes the tuple's values into
// the scans of every UNION branch, so only that tuple's derivations are
// joined, grouped and minimized. Values that render alike stay separate
// tuples (the integer 5 and the string "5"), so a few may remain; locate
// keeps the first in Key order that renders as requested, the tuple and
// provenance a full evaluation would have given. A request without a tuple
// selects nothing, never the whole result. The database is read-only, so
// concurrent handler goroutines may evaluate freely (the corpus build
// already evaluates queries in parallel over the same structures).
func (s *Server) locate(req RankRequest) (*sqlparse.Query, *engine.OutputTuple, int, error) {
	q, err := sqlparse.Parse(req.SQL)
	if err != nil {
		return nil, nil, http.StatusBadRequest, fmt.Errorf("parse: %w", err)
	}
	tuple := req.Tuple
	if tuple == nil {
		tuple = []string{}
	}
	res, err := engine.EvaluateWithOptions(s.corpus.DB, q, engine.Options{Tuple: tuple})
	if err != nil {
		return nil, nil, http.StatusBadRequest, fmt.Errorf("evaluate: %w", err)
	}
	for _, t := range res.Tuples {
		if tupleMatches(t, req.Tuple) {
			return q, t, 0, nil
		}
	}
	return nil, nil, http.StatusNotFound, errors.New("output tuple not found in query result")
}

// tupleMatches reports whether an output tuple renders to the requested
// string values.
func tupleMatches(t *engine.OutputTuple, want []string) bool {
	if len(t.Values) != len(want) {
		return false
	}
	for i, v := range t.Values {
		if v.String() != want[i] {
			return false
		}
	}
	return true
}
