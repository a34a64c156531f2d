// Package serve is the production ranking daemon behind cmd/serve: an
// HTTP/JSON service that answers each /rank request with exact Shapley values
// when the lineage compiles within a fixed node budget, and with
// shapley.CNFProxy's ranking read off the provenance otherwise. It ranks from
// the provenance alone; no endpoint runs a model.
//
// Architecture (DESIGN.md §8 "Serving architecture"):
//
//	conns ──► handler goroutines ──► admit ──► take a turn ──► memo ──miss──► decode, evaluate ──► ExactBudget ──► CNFProxy
//	               ▲                 │429      (one of         │hit           (parse, the          (≤ 2^14 tree    (derivation
//	               │           (backpressure)  Workers)        │              requested            nodes)          counts, over
//	               │                                           │              tuple only)                          budget)
//	               └──── response ◄── give the turn back ◄─────┴──── encode, store ◄─────────────────┴──────────────┘
//
// Every request runs on its own net/http handler goroutine. Right after it
// reads its body, the handler takes one of QueueCap+Workers admission slots
// without blocking, waits for one of Config.Workers compile turns, answers
// on it and gives both back (pool.go). The turns bound how many requests
// evaluate and compile at once.
//
// The handler reads the body straight into its memo key: the exact budget,
// then the body's bytes. On its turn it looks the key up in the server's
// memo (memo.go), which remembers the answer to every request it ranked as
// the exact bytes of its /rank response, up to a bound of retained bytes. A
// hit is the answer, sent in one write with its Content-Length, with no
// decode, parse, evaluation, compile, sort, rendering or encode. On a miss
// the handler decodes the body, parses the query and evaluates only the
// requested tuple (engine.Options.Tuple pushes its values into the query's
// scans), then compiles the tuple's provenance with shapley.ExactBudget
// under rankExactNodes tree nodes. When the tree fits, the exact values are
// the answer ("engine": "exact"). When it does not, shapley.CNFProxy scores
// every fact by the number of derivations that hold it ("engine": "proxy").
// Either answer is ranked, rendered, encoded once and stored in the memo, so
// a repeated request pays its evaluation and its exact attempt, refused or
// not, once while the memo keeps it. The database is read-only and every
// step is deterministic, so the same request always gets the same answer,
// byte for byte.
//
// Determinism: an exact answer equals shapley.Exact bit for bit, and a proxy
// answer equals shapley.CNFProxy, in Values.Ranking order, at every worker
// count, from the memo or not.
// TestServeExactSelector and TestServeParitySequential enforce both.
//
// Overload behaves like a production service, not like a benchmark harness:
// when every admission slot is taken, requests are rejected immediately with
// 429 and a Retry-After header instead of queueing unboundedly. Shutdown
// stops accepting and waits for running handlers, so no admitted request is
// ever dropped.
package serve

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// Config sizes the daemon. The zero value is not usable; start from
// DefaultConfig.
type Config struct {
	// Addr is the listen address ("127.0.0.1:0" picks a free port).
	Addr string
	// Workers is the number of compile turns: how many /rank and /explain
	// requests are answered at once (<= 0 means one per CPU). It bounds how
	// many requests evaluate and compile at once, each refused attempt
	// allocating up to about 60 MB.
	Workers int
	// QueueCap is how many admitted requests may wait beyond the Workers being
	// scored: at most QueueCap+Workers requests are admitted at once, counted
	// from body read to response. Requests beyond that are rejected with
	// 429 + Retry-After.
	QueueCap int
	// TLSCert/TLSKey are PEM file paths; set both to serve HTTPS instead of
	// plain HTTP.
	TLSCert string
	TLSKey  string
	// SlowMS logs any request whose total latency is at or above this many
	// milliseconds as a structured slow-request line (and counts it in
	// serve.req.slow). 0 disables the slow log; every request still lands in
	// the stage histograms and the trace ring.
	SlowMS float64
}

// DefaultConfig returns serving defaults: one compile turn per CPU and 256
// admitted requests waiting beyond them.
func DefaultConfig() Config {
	return Config{Addr: "127.0.0.1:0", QueueCap: 256}
}

// traceRingSize is how many recent request traces /debug/trace keeps.
const traceRingSize = 256

// rankExactNodes is the decomposition-tree budget of /rank's exact attempt,
// fact leaves included. On the default Academic corpus it admits all but
// three of 809 tuples. It bounds one attempt's time and memory: a refused
// attempt stops as soon as the tree passes the budget, after 84–121 ms and
// 50–61 MB on those three (2-core host). Every attempt, exact or refused, is
// paid once per request while the memo keeps its answer (Server.memo).
// DESIGN.md §8 gives the measurements behind the choice.
const rankExactNodes = 1 << 14

// Server is one serving instance. Build with New, run with Start, stop with
// Shutdown.
type Server struct {
	cfg    Config
	corpus *dataset.Corpus
	mux    *http.ServeMux

	// exactNodes is /rank's exact budget, rankExactNodes; in-package tests
	// lower it before the first request, and 0 makes the proxy answer every
	// request.
	exactNodes int

	// memo remembers the response to every request the server ranked,
	// keyed by exactNodes and the request body, within memoBytes (memo.go).
	memo memo

	// The pool (pool.go): admission slots and compile turns.
	slots chan struct{}
	turns chan struct{}

	ln      net.Listener
	httpSrv *http.Server

	// draining flips at the start of Shutdown: the process is still live, but
	// readiness (the load-balancer signal) is false — see handleHealthz.
	draining atomic.Bool

	// ring is the bounded ring of recent request traces (/debug/trace).
	// Always on — it is passive and bounded — independent of whether a
	// metrics registry is live.
	ring *obs.TraceRing

	// Pre-resolved metric handles (nil = no-op without a live obs run).
	mSlow      *obs.Counter
	mExact     *obs.Counter   // serve.rank.exact: rankings answered exactly
	mProxy     *obs.Counter   // serve.rank.proxy: rankings answered by CNFProxy
	mMemoHits  *obs.Counter   // serve.memo.hits: rankings answered from the memo
	mEvaluate  *obs.Histogram // serve.stage.evaluate_ms
	mQueueWait *obs.Histogram // serve.stage.queue_wait_ms
	mBatchWait *obs.Histogram // serve.stage.batch_wait_ms
	mScore     *obs.Histogram // serve.stage.score_ms
	mWrite     *obs.Histogram // serve.stage.write_ms
	// serve.batch.size records 1 per scoring; bench/layers.go still reads its
	// mean as serve.batch_size_mean.
	mBatch    *obs.Histogram
	mDepth    *obs.Gauge   // serve.queue.depth: admitted requests in flight
	mAdmitted *obs.Counter // serve.queue.admitted
	mRejected *obs.Counter // serve.queue.rejected
}

// New assembles a server over a corpus, whose database answers every query
// and resolves every fact ID in a response. The third parameter is ignored,
// since no endpoint reads a model; it stays until its last caller stops
// passing one.
func New(cfg Config, corpus *dataset.Corpus, _ *core.Model) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = parallel.Workers(0)
	}
	if cfg.QueueCap < 1 {
		cfg.QueueCap = 1
	}
	reg := obs.Metrics()
	stageBuckets := obs.ExpBuckets(0.05, 2, 16)
	s := &Server{
		cfg:        cfg,
		corpus:     corpus,
		exactNodes: rankExactNodes,
		memo:       memo{limit: memoBytes},
		slots:      make(chan struct{}, cfg.QueueCap+cfg.Workers),
		turns:      make(chan struct{}, cfg.Workers),
		ring:       obs.NewTraceRing(traceRingSize),
		mSlow:      reg.Counter("serve.req.slow"),
		mExact:     reg.Counter("serve.rank.exact"),
		mProxy:     reg.Counter("serve.rank.proxy"),
		mMemoHits:  reg.Counter("serve.memo.hits"),
		mEvaluate:  reg.Histogram("serve.stage.evaluate_ms", stageBuckets),
		mQueueWait: reg.Histogram("serve.stage.queue_wait_ms", stageBuckets),
		mBatchWait: reg.Histogram("serve.stage.batch_wait_ms", stageBuckets),
		mScore:     reg.Histogram("serve.stage.score_ms", stageBuckets),
		mWrite:     reg.Histogram("serve.stage.write_ms", stageBuckets),
		mBatch:     reg.Histogram("serve.batch.size", []float64{1, 2, 4, 8, 16, 32, 64}),
		mDepth:     reg.Gauge("serve.queue.depth"),
		mAdmitted:  reg.Counter("serve.queue.admitted"),
		mRejected:  reg.Counter("serve.queue.rejected"),
	}
	s.mux = s.routes()
	return s
}

// Handler exposes the route table (tests drive it without a listener).
func (s *Server) Handler() http.Handler { return s.mux }

// Start binds the listener and begins serving. It returns once the listener is
// bound; serving continues on a background goroutine until Shutdown.
func (s *Server) Start() error {
	if (s.cfg.TLSCert == "") != (s.cfg.TLSKey == "") {
		return fmt.Errorf("serve: -tls-cert and -tls-key must be set together")
	}
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("serve: listen %s: %w", s.cfg.Addr, err)
	}
	s.ln = ln
	s.httpSrv = &http.Server{Handler: s.mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		var err error
		if s.cfg.TLSCert != "" {
			err = s.httpSrv.ServeTLS(ln, s.cfg.TLSCert, s.cfg.TLSKey)
		} else {
			err = s.httpSrv.Serve(ln)
		}
		if err != nil && err != http.ErrServerClosed {
			obs.Infof("serve: %v\n", err)
		}
	}()
	return nil
}

// Addr reports the bound listen address (useful with ":0").
func (s *Server) Addr() string {
	if s.ln == nil {
		return s.cfg.Addr
	}
	return s.ln.Addr().String()
}

// URL returns the base URL of the running server (https when TLS is on).
func (s *Server) URL() string {
	if s.cfg.TLSCert != "" {
		return "https://" + s.Addr()
	}
	return "http://" + s.Addr()
}

// Shutdown drains the server: readiness drops, then it stops accepting
// connections and waits (up to the context deadline) for running handlers.
// Each admitted request scores and answers on its own handler, so Shutdown
// returning nil means every admitted request was answered: no request is
// dropped silently, each was either completed or rejected with 429 at
// admission.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true) // readiness drops first; liveness stays up
	if s.httpSrv == nil {
		return nil
	}
	return s.httpSrv.Shutdown(ctx)
}
