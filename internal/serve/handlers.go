package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
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

// statusWriter records the response status and the instant of the first byte
// out, so the instrument wrapper can decompose encode/write time without
// touching individual handlers, and the engine a /rank or /explain answer
// came from, for the access log.
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

// writeJSON sends one JSON response. Encode errors after the header is out
// cannot change the status anymore; they are counted and logged, never
// silently dropped.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		obs.Metrics().Counter("serve.err.encode").Add(1)
		obs.Infof("serve: encode response: %v\n", err)
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

// decodePost decodes the JSON body of a POST request into v, reading at most
// maxBodyBytes. It answers 405 for any other method, 413 for an oversized
// body and 400 for a malformed one, and reports whether decoding succeeded.
func (s *Server) decodePost(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "POST only")
		return false
	}
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooLarge):
		s.writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
	default:
		s.writeError(w, http.StatusBadRequest, "decode request: %v", err)
	}
	return false
}

// handleRank serves /rank and, with explain set, /explain, which adds the
// evaluation plan that located the tuple, the requested tuple's selection
// included. The request is admitted before its query is parsed and
// evaluated, so the admission bound covers evaluation as well as scoring.
// Parse, the evaluation of the requested tuple and the match among what it
// leaves are the request's "evaluate" stage (see locate); the exact attempt
// and any proxy pass run on a compile turn, as its "score" stage (see
// answer), so at most Config.Workers lineages compile at once.
func (s *Server) handleRank(explain bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req RankRequest
		if !s.decodePost(w, r, &req) || !s.admit(w) {
			return
		}
		defer s.release()
		tc := obs.TraceFrom(r.Context())
		start := time.Now()
		q, target, code, err := s.locate(req)
		d := time.Since(start)
		tc.AddStage("evaluate", start, d)
		s.mEvaluate.Observe(durMS(d))
		if err != nil {
			s.writeError(w, code, "%v", err)
			return
		}
		var plan string
		if explain {
			if plan, err = engine.Explain(s.corpus.DB, q, engine.Options{Tuple: req.Tuple}); err != nil {
				s.writeError(w, http.StatusBadRequest, "explain: %v", err)
				return
			}
		}
		var scores shapley.Values
		var eng string
		s.score(tc, func() { scores, eng = s.answer(r.Context(), target.Prov) })
		if eng == engineExact {
			s.mExact.Add(1)
		} else {
			s.mProxy.Add(1)
		}
		if sw, ok := w.(*statusWriter); ok {
			sw.engine = eng
		}
		resp := RankResponse{Query: q.SQL(), Tuple: target.String(), Engine: eng, Facts: s.rankedFacts(scores)}
		if explain {
			s.writeJSON(w, http.StatusOK, ExplainResponse{
				Query: resp.Query, Tuple: resp.Tuple, Plan: plan, Engine: eng, Facts: resp.Facts,
			})
			return
		}
		s.writeJSON(w, http.StatusOK, resp)
	}
}

// answer scores one lineage: with its exact Shapley values when the
// provenance compiles within the server's exact budget, else with
// shapley.CNFProxy. A lineage the exact attempt refused is remembered in
// s.refused and skips the attempt while it keeps its slot. The exact attempt
// is the "shapley.exact" stage of the trace ctx carries, and the proxy its
// "shapley.proxy" stage.
func (s *Server) answer(ctx context.Context, prov *provenance.DNF) (shapley.Values, string) {
	tc := obs.TraceFrom(ctx)
	h := lineageHash(prov)
	slot := &s.refused[h%refusalSlots]
	if slot.Load() != h|1 {
		done := tc.StageTimer("shapley.exact")
		vals, _, err := shapley.ExactBudget(prov, s.exactNodes)
		done()
		if err == nil {
			return vals, engineExact
		}
		// Every ExactBudget error wraps shapley.ErrBudget: the lineage is over
		// the budget.
		slot.Store(h | 1)
	}
	defer tc.StageTimer("shapley.proxy")()
	return shapley.CNFProxy(prov), engineProxy
}

// lineageHash hashes a lineage's provenance for the refusal memory without a
// sort or a string. Each monomial is hashed in its own order, which
// provenance.NewMonomial keeps sorted, and the monomial hashes are summed, so
// DNFs that list the same monomials in any order, as DNF.Key() equates them,
// hash alike.
func lineageHash(prov *provenance.DNF) uint64 {
	var sum uint64
	for _, m := range prov.Monomials {
		h := refusalSeed
		for _, id := range m {
			h = mix64(h ^ uint64(id))
		}
		sum += h
	}
	return sum
}

// mix64 is SplitMix64's finalizer: a bijection on 64 bits in which every
// output bit depends on every input bit.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
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
// flight) and worker count.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	draining := s.draining.Load()
	code := http.StatusOK
	if r.URL.Query().Get("probe") == "readiness" && draining {
		code = http.StatusServiceUnavailable
	}
	s.writeJSON(w, code, map[string]any{
		"live":        true,
		"ready":       !draining,
		"draining":    draining,
		"queue_depth": len(s.slots),
		"workers":     s.cfg.Workers,
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
	w.Header().Set("Content-Type", "application/json")
	if err := s.ring.WriteChromeTrace(w); err != nil {
		obs.Metrics().Counter("serve.err.encode").Add(1)
		obs.Infof("serve: write trace: %v\n", err)
	}
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
