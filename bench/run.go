package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/serve"
	"repro/internal/shapley"
)

// settings are the knobs of one run.
type settings struct {
	seconds float64 // measured load, split between the workload's phases
	trace   bool
	out     string // directory for the result record and the Chrome trace; "" writes neither
	setups  int    // timed set-ups; setup_s is their median
	// Scale for the smoke tests; zero values select the benchmark's own.
	queries int                     // corpus queries
	model   func(*core.ModelConfig) // adjusts the model before training
}

// result is the outcome of one run of one workload.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     int                `json:"trace"`
	Machine   string             `json:"machine"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Problems lists the first failed checks and any metric the run could not
	// report.
	Problems []string `json:"problems,omitempty"`
}

func (res *result) problem(format string, args ...any) {
	if len(res.Problems) < 10 {
		res.Problems = append(res.Problems, fmt.Sprintf(format, args...))
	}
}

// runner carries the state of one run.
type runner struct {
	w      workload
	seed   int64
	s      settings
	dcfg   dataset.Config
	corpus *dataset.Corpus // built off the clock: the bodies and their references come from it
	bodies []body
	jsons  [][]byte
	plan   plan
	model  *core.Model // the last server's model, for the traced run's layer timings
	res    *result

	// Traced runs only.
	obsRun  *obs.Run
	obsT0   time.Time
	spans   *spanLog
	utilSum float64 // parallel.pool.utilization observed during training
	utilN   int64   // observations in utilSum
}

// run executes one workload: plan the load, set the server up (setups
// times, timed), send the load, check every answer and report the metrics.
// A traced run reports the per-layer metrics instead.
func run(w workload, seed int64, s settings) (*result, error) {
	r := &runner{w: w, seed: seed, s: s, res: &result{
		Workload: w.name, Seed: seed, Machine: machineKey(), Metrics: map[string]float64{},
	}}
	if s.trace {
		r.res.Trace = 1
		r.spans = &spanLog{}
		r.obsT0 = time.Now()
		r.obsRun = obs.NewRun("bench", obs.NewRegistry(), obs.NewTracer(), obs.NewLogger(os.Stderr, obs.LevelQuiet))
		obs.Install(r.obsRun)
		defer obs.Uninstall()
	}
	if err := r.prepare(); err != nil {
		return nil, err
	}
	var err error
	if s.trace {
		err = r.traced()
	} else {
		err = r.untraced()
	}
	if err != nil {
		return nil, err
	}
	r.res.Correct = r.res.Failed == 0
	return r.res, nil
}

// prepare builds the corpus the requests come from, off the clock, and
// plans the load. Every set-up rebuilds the same corpus: the build is
// deterministic, so fact IDs agree between the bodies and every server.
func (r *runner) prepare() error {
	r.dcfg = dataset.DefaultConfig(r.w.kind)
	if r.s.queries > 0 {
		r.dcfg.NumQueries = r.s.queries
	}
	var err error
	if r.corpus, err = dataset.Build(r.dcfg); err != nil {
		return fmt.Errorf("build corpus: %w", err)
	}
	all, err := allBodies(r.corpus)
	if err != nil {
		return err
	}
	r.bodies = r.w.pick(all)
	if len(r.bodies) == 0 {
		return fmt.Errorf("%s: the corpus has no request bodies", r.w.name)
	}
	sizes := make([]int, len(r.bodies))
	for i, b := range r.bodies {
		r.jsons = append(r.jsons, b.json)
		sizes[i] = len(b.lineage)
	}
	r.plan = makePlan(r.w, sizes, r.seed, r.s.seconds)
	return nil
}

// utilization snapshots the parallel pool's utilization histogram.
func utilization() obs.HistogramSnapshot {
	return obs.Metrics().Snapshot().Histograms["parallel.pool.utilization"]
}

// server is a running daemon with the load generator aimed at it.
type server struct {
	srv   *serve.Server
	lg    *loadgen
	model *core.Model // the served model; usable directly once the server has stopped
}

// setUp is what an operator waits for before the first answer: build the
// corpus with its Shapley labels, train the model, start serve.New with the
// cmd/serve defaults on a loopback port, and see /healthz answer. It returns
// the whole set-up time and the training time within it.
func (r *runner) setUp() (s *server, setup, train time.Duration, err error) {
	start := time.Now()
	c, err := dataset.Build(r.dcfg)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("build corpus: %w", err)
	}
	cfg := modelConfig(r.w)
	if r.s.model != nil {
		r.s.model(&cfg)
	}
	util0 := utilization()
	_, end := r.spans.begin("core.Train", 0)
	t0 := time.Now()
	m, _, err := core.Train(c, dataset.NewSimilarityCache(c), cfg, nil)
	train = time.Since(t0)
	end()
	if err != nil {
		return nil, 0, 0, fmt.Errorf("train: %w", err)
	}
	util1 := utilization()
	r.utilSum += util1.Sum - util0.Sum
	r.utilN += util1.Count - util0.Count
	srv := serve.New(serve.DefaultConfig(), c, m)
	if err := srv.Start(); err != nil {
		return nil, 0, 0, err
	}
	s = &server{srv: srv, lg: newLoadgen(srv.URL(), parallel.Workers(0)), model: m}
	if _, err := s.lg.get("/healthz"); err != nil {
		s.stop()
		return nil, 0, 0, fmt.Errorf("server not ready: %w", err)
	}
	return s, time.Since(start), train, nil
}

// stop drains and stops the server and closes the client connections.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "bench: shutdown: %v\n", err)
	}
	s.lg.close()
}

// warmUp sends the untimed warm-up requests, closed loop.
func (r *runner) warmUp(s *server) []record {
	return s.lg.closed(r.jsons, r.plan.warmup, 0)
}

// pass is one pass of a phase over the bodies.
type pass struct {
	recs       []record
	start, end time.Time // the pass's start and its last answer
}

// minPhaseRequests is the fewest requests a phase sends, in whole passes:
// enough for a reportable p90 over the phase.
const minPhaseRequests = 10 * minBeyond

// runPhases sends the planned load and returns each phase's passes.
func (r *runner) runPhases(s *server) [][]pass {
	var runs [][]pass
	for i, ph := range r.w.phases {
		pp := r.plan.phases[i]
		var passes []pass
		sent := 0
		start := time.Now()
		for _, order := range pp.passes {
			if sent >= minPhaseRequests && time.Since(start) >= pp.span {
				break
			}
			p := pass{start: time.Now()}
			p.recs = s.lg.closed(r.jsons, order, ph.clients)
			p.end = time.Now()
			passes = append(passes, p)
			sent += len(order)
		}
		runs = append(runs, passes)
	}
	return runs
}

// check validates every answer, marks the records that passed, and counts
// them in attempted and failed. answers collects the checked scores of the
// first good answer of each body; the answer bytes are dropped once checked.
func (r *runner) check(recs []record, answers map[int]shapley.Values) {
	for i := range recs {
		rec := &recs[i]
		r.res.Attempted++
		answer := rec.answer
		rec.answer = nil
		if rec.status != 200 {
			r.res.Failed++
			r.res.problem("%s: request for body %d: status %d", r.w.name, rec.body, rec.status)
			continue
		}
		vals, err := checkAnswer(answer, r.bodies[rec.body].lineage)
		if err != nil {
			r.res.Failed++
			r.res.problem("%s: body %d: %v", r.w.name, rec.body, err)
			continue
		}
		rec.ok = true
		if _, seen := answers[rec.body]; !seen {
			answers[rec.body] = vals
		}
	}
}

// checkPhases checks the answers of every pass.
func (r *runner) checkPhases(runs [][]pass, answers map[int]shapley.Values) {
	for _, passes := range runs {
		for _, p := range passes {
			r.check(p.recs, answers)
		}
	}
}

// setNDCG sets ndcg10: the mean NDCG@10 of the answered bodies against their
// reference Shapley values, each body counted once. References are computed
// here, after the load and off every clock, in parallel.
func (r *runner) setNDCG(answers map[int]shapley.Values) error {
	if len(answers) == 0 {
		r.res.problem("%s: no checked answer for ndcg10", r.w.name)
		return nil
	}
	ids := make([]int, 0, len(answers))
	for id := range answers {
		ids = append(ids, id)
	}
	sort.Ints(ids) // a fixed summation order keeps ndcg10 bit-identical across runs
	refs := make([]shapley.Values, len(ids))
	err := parallel.ForEachErr(0, len(ids), func(i int) error {
		var err error
		refs[i], err = reference(r.bodies[ids[i]])
		return err
	})
	if err != nil {
		return fmt.Errorf("reference values: %w", err)
	}
	sum := 0.0
	for i, id := range ids {
		sum += metrics.NDCGAtK(answers[id], refs[i], 10)
	}
	r.res.Metrics["ndcg10"] = sum / float64(len(ids))
	return nil
}

// loadMetrics sets p50_ms and rps from checked passes and returns the
// latencies behind p50_ms: every request of the latency phase, a failed one
// as +Inf. Both are taken over whole passes, so every body counts equally:
// p50_ms is the median latency, rps the checked answers per second of the
// throughput phase's passes.
func (r *runner) loadMetrics(runs [][]pass, m map[string]float64) []float64 {
	var lat []float64
	ok := 0
	var busy time.Duration
	for i, ph := range r.w.phases {
		for _, p := range runs[i] {
			for _, rec := range p.recs {
				if ph.latency {
					if rec.ok {
						lat = append(lat, rec.latencyMS())
					} else {
						lat = append(lat, math.Inf(1))
					}
				}
				if ph.rps && rec.ok {
					ok++
				}
			}
			if ph.rps {
				busy += p.end.Sub(p.start)
			}
		}
	}
	if v, fine := percentile(lat, 50); fine && !math.IsInf(v, 1) {
		m["p50_ms"] = v
	} else {
		r.res.problem("%s: p50_ms not reportable from %d requests", r.w.name, len(lat))
	}
	if busy > 0 {
		m["rps"] = float64(ok) / busy.Seconds()
	}
	return lat
}

// untraced is the end-to-end run.
func (r *runner) untraced() error {
	var setups []float64
	var s *server
	for k := 0; k < max(1, r.s.setups); k++ {
		if s != nil {
			s.stop()
		}
		var setup time.Duration
		var err error
		if s, setup, _, err = r.setUp(); err != nil {
			return err
		}
		setups = append(setups, setup.Seconds())
	}
	warm := r.warmUp(s)
	runs := r.runPhases(s)
	s.stop()

	answers := map[int]shapley.Values{}
	r.check(warm, answers)
	r.checkPhases(runs, answers)
	m := r.res.Metrics
	m["setup_s"] = median(setups)
	r.loadMetrics(runs, m)
	return r.setNDCG(answers)
}

// writeOut appends the result record to <out>/results.jsonl.
func writeOut(dir string, res *result) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, "results.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := writeJSONLine(f, res); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
