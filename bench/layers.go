package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/shapley"
	"repro/internal/shapley/approx"
	"repro/internal/sqlparse"
	"repro/internal/tokenizer"
)

// traced is the per-layer run. It sets up and loads the server twice: first
// with the metrics registry uninstalled, as in an untraced run, then with it
// installed and the request spans recording, so obs.trace_overhead_pct
// compares the two p50_ms of one process. It then times each layer's public
// functions on the workload's own inputs, one span per call.
func (r *runner) traced() error {
	answers := map[int]shapley.Values{}

	obs.Uninstall()
	plainSrv, _, _, err := r.setUp()
	if err != nil {
		return err
	}
	r.check(r.warmUp(plainSrv), answers)
	plain := r.runPhases(plainSrv)
	plainSrv.stop()
	r.checkPhases(plain, answers)
	obs.Install(r.obsRun)

	s, _, train, err := r.setUp()
	if err != nil {
		return err
	}
	r.set("core.train_s", train.Seconds())
	r.check(r.warmUp(s), answers)
	before, err := scrape(s)
	if err != nil {
		s.stop()
		return err
	}
	traced := r.runPhases(s)
	after, err := scrape(s)
	s.stop()
	if err != nil {
		return err
	}
	r.model = s.model
	r.checkPhases(traced, answers)
	r.requestSpans(traced)

	mp, mt := map[string]float64{}, map[string]float64{}
	r.loadMetrics(plain, mp)
	r.setPercentile("loadgen.p90_ms", r.loadMetrics(traced, mt), 90)
	r.set("obs.trace_overhead_pct", 100*(mt["p50_ms"]/mp["p50_ms"]-1))
	r.serveMetrics(traced, before, after)
	if err := r.layerMetrics(); err != nil {
		return err
	}
	r.buildMetrics()
	// With one CPU the pool runs inline: one worker, busy throughout.
	util := 1.0
	if r.utilN > 0 {
		util = r.utilSum / float64(r.utilN)
	}
	r.set("parallel.utilization", util)
	return r.writeTrace()
}

// set records a per-layer metric, or a problem when it is not a number.
func (r *runner) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.res.problem("%s: %s has no value", r.w.name, name)
		return
	}
	r.res.Metrics[name] = v
}

// setPercentile records a percentile of samples, or a problem when too few
// samples lie beyond it.
func (r *runner) setPercentile(name string, samples []float64, pct int) {
	v, ok := percentile(samples, pct)
	if !ok {
		r.res.problem("%s: %s not reportable from %d samples", r.w.name, name, len(samples))
		return
	}
	r.set(name, v)
}

// requestSpans turns the traced phases' records into spans: one per pass,
// one per request under it on its client's thread.
func (r *runner) requestSpans(runs [][]pass) {
	req := 0
	for i, passes := range runs {
		for k, p := range passes {
			span := r.spans.add(fmt.Sprintf("loadgen.phase%d.pass%d", i, k), 0, 0, 0, p.start, p.end)
			for _, rec := range p.recs {
				req++
				r.spans.add("loadgen.rank", span, req, rec.client+1, rec.sent, rec.done)
			}
		}
	}
}

// scrape reads the server's metrics registry.
func scrape(s *server) (obs.Snapshot, error) {
	var snap obs.Snapshot
	data, err := s.lg.get("/metrics")
	if err != nil {
		return snap, err
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		return snap, fmt.Errorf("decode /metrics: %w", err)
	}
	return snap, nil
}

// hist is the difference of one histogram between two scrapes.
type hist struct {
	upper  []float64 // bucket upper bounds; the last is +Inf
	counts []int64   // observations per bucket
	sum    float64
	count  int64
}

func histDelta(before, after obs.Snapshot, name string) hist {
	a, b := after.Histograms[name], before.Histograms[name]
	h := hist{sum: a.Sum - b.Sum, count: a.Count - b.Count}
	for i, bk := range a.Buckets {
		n := bk.Count
		if i < len(b.Buckets) {
			n -= b.Buckets[i].Count
		}
		ub := math.Inf(1)
		if bk.UpperBound != "+Inf" {
			ub, _ = strconv.ParseFloat(bk.UpperBound, 64) // written by strconv.FormatFloat
		}
		h.upper = append(h.upper, ub)
		h.counts = append(h.counts, n)
	}
	return h
}

func (h hist) mean() float64 { return h.sum / float64(h.count) }

// p50 interpolates the median linearly inside its bucket.
func (h hist) p50() float64 {
	half := float64(h.count) / 2
	cum, lo := 0.0, 0.0
	for i, n := range h.counts {
		if n > 0 && cum+float64(n) >= half {
			if math.IsInf(h.upper[i], 1) {
				return lo
			}
			return lo + (half-cum)/float64(n)*(h.upper[i]-lo)
		}
		cum += float64(n)
		lo = h.upper[i]
	}
	return math.NaN()
}

// serveMetrics derives the serve.* metrics from the two scrapes around the
// traced phases and from the client's own records. serve.unstaged_ms is the
// client latency no server stage covers: request decode, SQL parse and query
// evaluation, plus the loopback round trip.
func (r *runner) serveMetrics(runs [][]pass, before, after obs.Snapshot) {
	staged := 0.0
	for _, st := range []string{"queue_wait", "batch_wait", "score", "write"} {
		h := histDelta(before, after, "serve.stage."+st+"_ms")
		r.set("serve."+st+"_ms", h.p50())
		staged += h.mean()
	}
	r.set("serve.batch_size_mean", histDelta(before, after, "serve.batch.size").mean())
	var client []float64
	for _, passes := range runs {
		for _, p := range passes {
			for _, rec := range p.recs {
				if rec.ok {
					client = append(client, rec.latencyMS())
				}
			}
		}
	}
	r.set("serve.unstaged_ms", mean(client)-staged)
}

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// sample times fn on the workload's bodies, in order and repeatedly, until
// at least n calls are timed; it returns microseconds per call.
func (r *runner) sample(name string, parent, n int, fn func(b body) error) ([]float64, error) {
	var out []float64
	for len(out) < n {
		for _, b := range r.bodies {
			var err error
			out = append(out, us(r.spans.timed(name, parent, func() { err = fn(b) })))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
		}
	}
	return out, nil
}

func input(b body) core.Input {
	return core.Input{SQL: b.sql, Query: b.q, TupleValues: b.t.Values, Lineage: b.lineage}
}

// layerMetrics times the public functions of each layer on the workload's
// bodies, outside the server.
func (r *runner) layerMetrics() error {
	parent, end := r.spans.begin("layers", 0)
	defer end()
	db := r.corpus.DB

	parse, err := r.sample("sqlparse.Parse", parent, 200, func(b body) error {
		_, err := sqlparse.Parse(b.sql)
		return err
	})
	if err != nil {
		return err
	}
	r.setPercentile("sqlparse.parse_us", parse, 50)

	eval, err := r.sample("engine.Evaluate", parent, 1000, func(b body) error {
		_, err := engine.Evaluate(db, b.q)
		return err
	})
	if err != nil {
		return err
	}
	r.setPercentile("engine.evaluate_us", eval, 50)
	r.setPercentile("engine.evaluate_p99_us", eval, 99)
	facts := 0
	for _, b := range r.bodies {
		facts += len(b.lineage)
	}
	r.set("engine.lineage_facts_mean", float64(facts)/float64(len(r.bodies)))

	tok := r.vocabulary()
	tokz, err := r.sample("tokenizer", parent, 200, func(b body) error {
		tok.Encode(tokenizer.TokenizeSQL(b.sql))
		tok.Encode(tokenizer.TokenizeValues(b.t.Values))
		for _, id := range b.lineage {
			tok.Encode(tokenizer.TokenizeFact(db.Fact(id)))
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.setPercentile("tokenizer.tokenize_us", tokz, 50)

	if err := r.coreMetrics(parent); err != nil {
		return err
	}
	seqLen := r.medianSeqLen()
	r.set("nn.seq_len", float64(seqLen))
	r.nnMetrics(parent, seqLen)
	if err := r.shapleyMetrics(parent); err != nil {
		return err
	}
	return r.crossover(parent)
}

// vocabulary builds a tokenizer the way training does, from the training
// split's queries, tuples and facts.
func (r *runner) vocabulary() *tokenizer.Tokenizer {
	var docs [][]string
	for _, qi := range r.corpus.Train {
		q := r.corpus.Queries[qi]
		docs = append(docs, tokenizer.TokenizeSQL(q.SQL))
		for _, cs := range q.Cases {
			docs = append(docs, tokenizer.TokenizeValues(cs.Tuple.Values))
			for id := range cs.Gold {
				docs = append(docs, tokenizer.TokenizeFact(r.corpus.DB.Fact(id)))
			}
		}
	}
	return tokenizer.Build(docs, core.BaseConfig().VocabSize)
}

// medianSeqLen is the median length of the [CLS] q [SEP] t [SEP] f [SEP]
// sequences the model encodes for the workload's lineage facts, after the
// model's truncation to MaxSeqLen.
func (r *runner) medianSeqLen() int {
	maxLen := core.BaseConfig().MaxSeqLen
	var lens []float64
	for _, b := range r.bodies {
		q, t := len(tokenizer.TokenizeSQL(b.sql)), len(tokenizer.TokenizeValues(b.t.Values))
		for _, id := range b.lineage {
			fit := tokenizer.FitLengths(maxLen, []int{q, t, len(tokenizer.TokenizeFact(r.corpus.DB.Fact(id)))})
			lens = append(lens, float64(1+fit[0]+fit[1]+fit[2]+3))
		}
	}
	return int(median(lens))
}

// coreBodies is how many bodies the sequential RankOn pass scores: enough
// for a reportable median, few enough that rank_long's pass stays near 5 s.
const coreBodies = 24

// ranker returns a sequential scoring replica of the served model, which
// carries the server's scoring configuration.
func (r *runner) ranker() *core.Model { return r.model.CloneForWorker() }

// coreMetrics scores a size-spread subset of the bodies through
// Model.RankOn on one replica, one lineage at a time.
func (r *runner) coreMetrics(parent int) error {
	rep := r.ranker()
	set := spreadBodies(r.bodies, coreBodies)
	rep.RankOn(r.corpus.DB, input(set[0])) // warms the replica's workspace
	reg := obs.Metrics()
	hits, fallbacks := reg.Counter("core.rank.prefix_hits"), reg.Counter("core.rank.prefix_fallbacks")
	h0, f0 := hits.Value(), fallbacks.Value()
	var ms []float64
	var total time.Duration
	facts := 0
	for _, b := range set {
		d := r.spans.timed("core.RankOn", parent, func() { rep.RankOn(r.corpus.DB, input(b)) })
		ms = append(ms, float64(d.Nanoseconds())/1e6)
		total += d
		facts += len(b.lineage)
	}
	r.setPercentile("core.rank_ms", ms, 50)
	r.set("core.rank_us_per_fact", us(total)/float64(facts))
	dh, df := hits.Value()-h0, fallbacks.Value()-f0
	r.set("core.prefix_hit_ratio", float64(dh)/float64(dh+df))
	return nil
}

// nnMetrics times the encoder's building blocks at LearnShapley-base width
// on a seqLen-row input.
func (r *runner) nnMetrics(parent, seqLen int) {
	base := core.BaseConfig()
	rng := rand.New(rand.NewSource(1))
	ps := &nn.Params{}
	q := nn.NewLinear(ps, "q", base.Dim, base.Dim, rng)
	k := nn.NewLinear(ps, "k", base.Dim, base.Dim, rng)
	v := nn.NewLinear(ps, "v", base.Dim, base.Dim, rng)
	attn := nn.NewMultiHeadAttention(ps, "attn", base.Dim, base.Heads, rng)
	ffn := nn.NewFFN(ps, "ffn", base.Dim, base.FFNHidden, rng)
	ln := nn.NewLayerNorm(ps, "ln", base.Dim)
	enc := nn.NewEncoder(nn.Config{
		VocabSize: base.VocabSize, MaxSeqLen: base.MaxSeqLen, Dim: base.Dim, Heads: base.Heads,
		Layers: base.Layers, FFNHidden: base.FFNHidden, Segments: 3,
	}, ps, rng)
	x := randMat(rng, seqLen, base.Dim)
	up := randMat(rng, base.Dim, base.FFNHidden)
	out := nn.NewMat(seqLen, base.FFNHidden)
	mask := make([]bool, seqLen)
	tokens, segs := make([]int, seqLen), make([]int, seqLen)
	for i := range mask {
		mask[i], tokens[i], segs[i] = true, rng.Intn(base.VocabSize), min(i*3/seqLen, 2)
	}
	ws := nn.NewWorkspace()
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"nn.qkv_us", func() { ws.Reset(); q.Forward(ws, x); k.Forward(ws, x); v.Forward(ws, x) }},
		{"nn.attention_us", func() { ws.Reset(); attn.Forward(ws, x, mask) }},
		{"nn.ffn_us", func() { ws.Reset(); ffn.Forward(ws, x) }},
		{"nn.layernorm_us", func() { ws.Reset(); ln.Forward(ws, x) }},
		{"nn.encoder_forward_us", func() { enc.Forward(tokens, segs, mask) }},
	} {
		t, _ := r.perCall(c.name, parent, func() error { c.fn(); return nil }) // fn never fails
		r.set(c.name, t)
	}
	gemm, _ := r.perCall("nn.gemm", parent, func() error { nn.MatMulBlockedInto(x, up, out); return nil })
	r.set("nn.gemm_gflops", 2*float64(seqLen*base.Dim*base.FFNHidden)/gemm/1e3)
}

func randMat(rng *rand.Rand, rows, cols int) *nn.Mat {
	m := nn.NewMat(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// perCall returns fn's median time per call in microseconds: after one
// warm-up call, seven batches of calls, each at least 2 ms long and inside
// one span.
func (r *runner) perCall(name string, parent int, fn func() error) (float64, error) {
	if err := fn(); err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	batch := func(calls int) (time.Duration, error) {
		var err error
		d := r.spans.timed(fmt.Sprintf("%s x%d", name, calls), parent, func() {
			for i := 0; i < calls && err == nil; i++ {
				err = fn()
			}
		})
		return d, err
	}
	calls := 1
	for {
		d, err := batch(calls)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		if d >= 2*time.Millisecond {
			break
		}
		calls *= 2
	}
	var per []float64
	for i := 0; i < 7; i++ {
		d, err := batch(calls)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		per = append(per, us(d)/float64(calls))
	}
	return median(per), nil
}

// amcSamples is the sampler budget the amc metrics are measured at.
const amcSamples = 4096

// shapleyMetrics times exact Shapley computation on the bodies whose
// reference is exact, and the antithetic sampler on a size-spread subset.
func (r *runner) shapleyMetrics(parent int) error {
	var exact time.Duration
	facts, nodes, n := 0, 0, 0
	for _, b := range r.bodies {
		if len(b.lineage) > exactLimit {
			continue
		}
		var st *shapley.Stats
		var err error
		exact += r.spans.timed("shapley.Exact", parent, func() { _, st, err = shapley.Exact(b.t.Prov) })
		if err != nil {
			return fmt.Errorf("shapley.Exact: %w", err)
		}
		facts += len(b.lineage)
		nodes += st.CircuitNodes
		n++
	}
	r.set("shapley.exact_us_per_fact", us(exact)/float64(facts))
	r.set("shapley.circuit_nodes_mean", float64(nodes)/float64(n))

	amc := approx.MC{Samples: amcSamples, Antithetic: true}
	var sampled time.Duration
	facts = 0
	for _, b := range spreadBodies(r.bodies, 64) {
		var err error
		sampled += r.spans.timed("approx.amc", parent, func() { _, err = amc.Label(b.t.Prov, 1) })
		if err != nil {
			return fmt.Errorf("approx.amc: %w", err)
		}
		facts += len(b.lineage)
	}
	r.set("approx.amc_us_per_fact", us(sampled)/float64(facts))
	return nil
}

// crossover is paper Table 6 measured from outside: for each lineage-size
// bucket of the workload's corpus, the milliseconds per lineage of the
// learned ranker (Model.RankOn), exact Shapley computation, and the
// antithetic sampler at 4096 samples. Each bucket uses at most three
// lineages, those nearest its median size, because exact computation on
// large lineages takes seconds each.
func (r *runner) crossover(parent int) error {
	all, err := allBodies(r.corpus)
	if err != nil {
		return err
	}
	all = bySize(all)
	rep := r.ranker()
	amc := approx.MC{Samples: amcSamples, Antithetic: true}
	var table strings.Builder
	fmt.Fprintf(&table, "%s crossover (ms per lineage)\n%-8s %6s %10s %10s %10s\n", r.w.name, "bucket", "facts", "model", "exact", "amc")
	for _, bk := range crossoverBuckets {
		lo := sort.Search(len(all), func(i int) bool { return len(all[i].lineage) >= bk.min })
		hi := sort.Search(len(all), func(i int) bool { return len(all[i].lineage) > bk.max })
		if lo == hi {
			r.res.problem("%s: no lineage in crossover bucket %s", r.w.name, bk.name)
			continue
		}
		mid := (lo + hi) / 2
		pick := all[max(lo, mid-1):min(hi, mid+2)]
		engines := []struct {
			name string
			fn   func(b body) error
		}{
			{"model", func(b body) error { rep.RankOn(r.corpus.DB, input(b)); return nil }},
			{"exact", func(b body) error { _, _, err := shapley.Exact(b.t.Prov); return err }},
			{"amc", func(b body) error { _, err := amc.Label(b.t.Prov, 1); return err }},
		}
		facts := 0
		for _, b := range pick {
			facts += len(b.lineage)
		}
		n := float64(len(pick))
		fmt.Fprintf(&table, "%-8s %6.1f", bk.name, float64(facts)/n)
		for _, e := range engines {
			total := 0.0
			for _, b := range pick {
				t, err := r.perCall("crossover."+e.name, parent, func() error { return e.fn(b) })
				if err != nil {
					return err
				}
				total += t / 1e3
			}
			r.set("crossover."+bk.name+"."+e.name+"_ms", total/n)
			fmt.Fprintf(&table, " %10.3f", total/n)
		}
		table.WriteString("\n")
	}
	fmt.Fprint(os.Stderr, table.String())
	return nil
}

// buildMetrics reads the corpus build's phases from the obs span tree: the
// first build of the run, made while the tracer was live.
func (r *runner) buildMetrics() {
	name := "dataset.build:" + r.w.kind.String()
	for _, n := range r.obsRun.Tracer.Root().Children {
		if n.Name != name {
			continue
		}
		r.set("dataset.build_s", n.DurationMS/1e3)
		for _, c := range n.Children {
			if c.Name == "shapley.label" {
				r.set("dataset.label_s", c.DurationMS/1e3)
			}
		}
		return
	}
	r.res.problem("%s: no %s span", r.w.name, name)
}

// writeTrace writes the Chrome trace of the run to the output directory.
func (r *runner) writeTrace() error {
	if r.s.out == "" {
		return nil
	}
	if err := os.MkdirAll(r.s.out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(r.s.out, fmt.Sprintf("trace-%s-seed%d.json", r.w.name, r.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.spans.writeChrome(f, r.obsT0, r.obsRun.Tracer.Root()); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
