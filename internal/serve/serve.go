// Package serve is the production ranking daemon behind cmd/serve: it wraps a
// trained LearnShapley model in an HTTP/JSON service whose scoring hot path
// runs on the repo's packed ranking pass.
//
// Architecture (DESIGN.md §8 "Serving architecture"):
//
//	conns ──► handler goroutines ──► admit ──► evaluate ──► borrow replica ──► RankOn
//	               ▲                   │429     (parse,      (first free of     (packed
//	               │             (backpressure)  lineage)      Workers)         GEMMs)
//	               └──────────── response ◄──── return replica ◄────────────────┘
//
// Every request runs on its own net/http handler goroutine. Right after its
// body decodes, the handler takes one of QueueCap+Workers admission slots
// without blocking, then parses and evaluates the query, borrows one of
// Config.Workers model replicas (core.Model.CloneForWorker: shared read-only
// weights, private activation workspaces), scores on it and gives both back
// (pool.go). A request therefore waits only for a free replica. A replica
// ranks a request's lineage through core.Model.RankOn: every fact runs in one
// of a few nn.BatchedForwardMultiPrefix GEMM passes over the lineage's
// embedded prefixes, whose last layer computes only the [CLS] rows the head
// reads, on a warmed, zero-allocation workspace.
//
// Determinism: replicas produce bit-identical scores to their parent
// (core.ConcurrentRanker contract), and the pool only decides which replica
// scores which request, never the per-request computation. Served scores are
// therefore bit-identical to sequential core.RankOn at every worker count —
// enforced by TestServeParitySequential.
//
// Overload behaves like a production service, not like a benchmark harness:
// when every admission slot is taken, requests are rejected immediately with
// 429 and a Retry-After header instead of queueing unboundedly. Shutdown
// stops accepting and waits for running handlers, so no admitted request is
// ever dropped. A new model checkpoint can be swapped in at runtime (POST
// /admin/reload) via an atomic pointer flip; a pooled replica is re-cloned
// from the new weights before the next request it scores.
package serve

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/relation"
	"repro/internal/shapley"
)

// Config sizes the daemon. The zero value is not usable; start from
// DefaultConfig.
type Config struct {
	// Addr is the listen address ("127.0.0.1:0" picks a free port).
	Addr string
	// Workers is the number of pooled model replicas, each scoring one
	// request at a time (<= 0 means one per CPU). Replicas share the model's
	// weight tensors and own their workspaces, so Workers bounds scoring
	// concurrency without duplicating weights.
	Workers int
	// QueueCap is how many admitted requests may wait beyond the Workers being
	// scored: at most QueueCap+Workers requests are admitted at once, counted
	// from body decode to response. Requests beyond that are rejected with
	// 429 + Retry-After.
	QueueCap int
	// AdminToken, when non-empty, locks every /admin/* endpoint behind
	// "Authorization: Bearer <token>"; failures are rejected with 401 and
	// counted in serve.req.unauthorized. Empty leaves /admin/* open (local
	// development default).
	AdminToken string
	// TLSCert/TLSKey are PEM file paths; set both to serve HTTPS instead of
	// plain HTTP. The bearer token above is only meaningful over TLS on
	// untrusted networks.
	TLSCert string
	TLSKey  string
	// SlowMS logs any request whose total latency is at or above this many
	// milliseconds as a structured slow-request line (and counts it in
	// serve.req.slow). 0 disables the slow log; every request still lands in
	// the stage histograms and the trace ring.
	SlowMS float64
}

// DefaultConfig returns serving defaults: one replica per CPU and 256
// admitted requests waiting beyond them.
func DefaultConfig() Config {
	return Config{Addr: "127.0.0.1:0", QueueCap: 256}
}

// traceRingSize is how many recent request traces /debug/trace keeps, and
// driftProbe how many test-split lineages are self-scored at model (re)load
// to capture the drift monitors' reference score and top-1-margin
// distributions. The monitors' rolling window (256) and PSI threshold (0.25)
// are obs.DriftConfig's defaults.
const (
	traceRingSize = 256
	driftProbe    = 8
)

// modelState is the atomically swapped unit of /admin/reload: the model and
// the metadata the health/manifest endpoints report. The corpus database is
// fixed for the server's lifetime (checkpoints are per-database; fact IDs in
// responses resolve against it).
type modelState struct {
	model   *core.Model
	version string
	loaded  time.Time
}

// Server is one serving instance. Build with New, run with Start, stop with
// Shutdown.
type Server struct {
	cfg    Config
	corpus *dataset.Corpus
	st     atomic.Pointer[modelState]
	gen    atomic.Int64 // bumped on every swap; pooled replicas re-clone when stale
	mux    *http.ServeMux

	// The replica pool (pool.go): admission slots and idle replicas.
	slots    chan struct{}
	replicas chan *replica

	ln      net.Listener
	httpSrv *http.Server

	// draining flips at the start of Shutdown: the process is still live, but
	// readiness (the load-balancer signal) is false — see handleHealthz.
	draining atomic.Bool

	// Request-observability state: the bounded ring of recent request traces
	// (/debug/trace) and the online quality-drift monitors over the ranking
	// score and top-1-margin distributions. Always on — both are passive and
	// bounded — independent of whether a metrics registry is live.
	ring        *obs.TraceRing
	driftScore  *obs.DriftMonitor
	driftMargin *obs.DriftMonitor

	// Pre-resolved metric handles (nil = no-op without a live obs run).
	mReloads   *obs.Counter
	mSlow      *obs.Counter
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

// New assembles a server around a trained model and the corpus it was trained
// over. The model itself is never used for scoring — the pool clones replicas
// from it — so the caller must not run it concurrently with the server either.
// The installed obs run redacts cfg.AdminToken from its manifest.
func New(cfg Config, corpus *dataset.Corpus, model *core.Model) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = parallel.Workers(0)
	}
	if cfg.QueueCap < 1 {
		cfg.QueueCap = 1
	}
	reg := obs.Metrics()
	stageBuckets := obs.ExpBuckets(0.05, 2, 16)
	s := &Server{
		cfg:         cfg,
		corpus:      corpus,
		slots:       make(chan struct{}, cfg.QueueCap+cfg.Workers),
		replicas:    make(chan *replica, cfg.Workers),
		ring:        obs.NewTraceRing(traceRingSize),
		driftScore:  obs.NewDriftMonitor("score", obs.DriftConfig{}),
		driftMargin: obs.NewDriftMonitor("top1_margin", obs.DriftConfig{}),
		mReloads:    reg.Counter("serve.reloads"),
		mSlow:       reg.Counter("serve.req.slow"),
		mEvaluate:   reg.Histogram("serve.stage.evaluate_ms", stageBuckets),
		mQueueWait:  reg.Histogram("serve.stage.queue_wait_ms", stageBuckets),
		mBatchWait:  reg.Histogram("serve.stage.batch_wait_ms", stageBuckets),
		mScore:      reg.Histogram("serve.stage.score_ms", stageBuckets),
		mWrite:      reg.Histogram("serve.stage.write_ms", stageBuckets),
		mBatch:      reg.Histogram("serve.batch.size", []float64{1, 2, 4, 8, 16, 32, 64}),
		mDepth:      reg.Gauge("serve.queue.depth"),
		mAdmitted:   reg.Counter("serve.queue.admitted"),
		mRejected:   reg.Counter("serve.queue.rejected"),
	}
	for range cfg.Workers {
		s.replicas <- &replica{}
	}
	// /debug/manifest is open, and the manifest lists the command line.
	obs.Live().Redact(cfg.AdminToken)
	s.install(model, "initial")
	s.mux = s.routes()
	return s
}

// install points the server at a model and captures the drift reference from
// the new model BEFORE it becomes visible to the pool — the probe replica is
// private, so reference capture never races live scoring.
func (s *Server) install(model *core.Model, version string) {
	s.captureDriftReference(model)
	s.st.Store(&modelState{model: model, version: version, loaded: time.Now()})
	s.gen.Add(1)
}

// captureDriftReference self-scores a small probe set (test-split lineages —
// inputs the model was NOT fine-tuned on) on a private replica of the
// incoming model and records the resulting score and top-1-margin
// distributions as the drift reference. The rolling windows reset with the
// reference: observations made against the previous model describe the
// previous model.
func (s *Server) captureDriftReference(model *core.Model) {
	probe := probeInputs(s.corpus, driftProbe)
	if len(probe) == 0 {
		s.driftScore.SetReference(nil)
		s.driftMargin.SetReference(nil)
		return
	}
	rep := model.CloneForWorker()
	var scores, margins []float64
	for _, in := range probe {
		vals := rep.Rank(in)
		for _, v := range vals {
			scores = append(scores, v)
		}
		if m, ok := top1Margin(vals); ok {
			margins = append(margins, m)
		}
	}
	s.driftScore.SetReference(scores)
	s.driftMargin.SetReference(margins)
}

// probeInputs prepares up to n scoring inputs from the corpus's test split —
// the same request mix selftest draws from.
func probeInputs(c *dataset.Corpus, n int) []core.Input {
	var out []core.Input
	for _, qi := range c.Test {
		q := c.Queries[qi]
		for _, cs := range q.Cases {
			out = append(out, core.Input{
				SQL:         q.SQL,
				Query:       q.Query,
				TupleValues: cs.Tuple.Values,
				Lineage:     cs.Tuple.Lineage(),
			})
			if len(out) >= n {
				return out
			}
		}
	}
	return out
}

// top1Margin returns the gap between the highest and second-highest score of
// one ranking — the monitored confidence proxy. ok is false for lineages with
// fewer than two facts.
func top1Margin(vals shapley.Values) (float64, bool) {
	if len(vals) < 2 {
		return 0, false
	}
	top1, top2 := math.Inf(-1), math.Inf(-1)
	for _, v := range vals {
		if v > top1 {
			top1, top2 = v, top1
		} else if v > top2 {
			top2 = v
		}
	}
	return top1 - top2, true
}

// observeRanking feeds one served ranking into the drift monitors. Purely
// read-only over the scores — serving output is bit-identical with monitoring
// on (TestServeParitySequential runs with it enabled).
func (s *Server) observeRanking(vals shapley.Values) {
	for _, v := range vals {
		s.driftScore.Observe(v)
	}
	if m, ok := top1Margin(vals); ok {
		s.driftMargin.Observe(m)
	}
}

// state returns the current model state (never nil after New).
func (s *Server) state() *modelState { return s.st.Load() }

// DB returns the database lineage fact IDs resolve against.
func (s *Server) DB() *relation.Database { return s.corpus.DB }

// SwapModel atomically replaces the serving model (model hot-swap). In-flight
// requests finish on the old weights; every request that borrows a replica
// afterwards scores on the new ones.
func (s *Server) SwapModel(model *core.Model, version string) {
	s.install(model, version)
	s.mReloads.Add(1)
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
