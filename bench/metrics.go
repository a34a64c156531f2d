package main

// metricDef declares one reported metric. The tables below mirror
// BENCHMARK.json at the repository root; TestMetricNamesMatchSpec keeps the
// two identical.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: allowed worsening as a share of the parent's median
}

// endToEnd are the metrics an untraced run reports on every workload. Each
// is what a user of the system sees: how long the service takes to come up
// (corpus, labels, training, listening), how long one answer takes, how many
// answers per second it gives, and how good the answers are.
//
// The timing bounds are the 0.25 cap: on the 2-CPU host the baseline was
// measured on, identical work (the same training run, repeated in one
// process) took from 4.8 to 6.0 s, and for minutes at a time 35-60% longer,
// so the spread of ten seeded runs of p50_ms and rps reached 0.17 (0.26 while
// the host slowed down). The tail (p90) and the training time alone varied
// more and are per-layer metrics instead.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"rps", "1/s", "higher", 0.25},
	{"ndcg10", "ratio", "higher", 0.01},
}

// crossoverBuckets are the lineage-size buckets of the Table 6 crossover
// measurement: model, exact and sampled Shapley cost per lineage.
var crossoverBuckets = []struct {
	name     string
	min, max int
}{
	{"b1-2", 1, 2},
	{"b3-5", 3, 5},
	{"b6-15", 6, 15},
	{"b16-40", 16, 40},
	{"b41_up", 41, 1 << 30},
}

// perLayer are the metrics a traced run reports on every workload, one or
// more per layer of the request and training paths. README.md maps each to
// the end-to-end metric it should move.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{name: "loadgen.p90_ms", unit: "ms", better: "lower"},
		{name: "serve.queue_wait_ms", unit: "ms", better: "lower"},
		{name: "serve.batch_wait_ms", unit: "ms", better: "lower"},
		{name: "serve.score_ms", unit: "ms", better: "lower"},
		{name: "serve.write_ms", unit: "ms", better: "lower"},
		{name: "serve.batch_size_mean", unit: "count", better: "higher"},
		{name: "serve.unstaged_ms", unit: "ms", better: "lower"},
		{name: "sqlparse.parse_us", unit: "us", better: "lower"},
		{name: "engine.evaluate_us", unit: "us", better: "lower"},
		{name: "engine.evaluate_p99_us", unit: "us", better: "lower"},
		{name: "engine.lineage_facts_mean", unit: "count", better: "lower"},
		{name: "tokenizer.tokenize_us", unit: "us", better: "lower"},
		{name: "core.train_s", unit: "s", better: "lower"},
		{name: "core.rank_ms", unit: "ms", better: "lower"},
		{name: "core.rank_us_per_fact", unit: "us", better: "lower"},
		{name: "core.prefix_hit_ratio", unit: "ratio", better: "higher"},
		{name: "nn.seq_len", unit: "count", better: "lower"},
		{name: "nn.qkv_us", unit: "us", better: "lower"},
		{name: "nn.attention_us", unit: "us", better: "lower"},
		{name: "nn.ffn_us", unit: "us", better: "lower"},
		{name: "nn.layernorm_us", unit: "us", better: "lower"},
		{name: "nn.encoder_forward_us", unit: "us", better: "lower"},
		{name: "nn.gemm_gflops", unit: "GFLOP/s", better: "higher"},
		{name: "shapley.exact_us_per_fact", unit: "us", better: "lower"},
		{name: "shapley.circuit_nodes_mean", unit: "count", better: "lower"},
		{name: "approx.amc_us_per_fact", unit: "us", better: "lower"},
		{name: "dataset.build_s", unit: "s", better: "lower"},
		{name: "dataset.label_s", unit: "s", better: "lower"},
		{name: "parallel.utilization", unit: "ratio", better: "higher"},
		{name: "obs.trace_overhead_pct", unit: "%", better: "lower"},
	}
	for _, b := range crossoverBuckets {
		for _, engine := range []string{"model", "exact", "amc"} {
			defs = append(defs, metricDef{name: "crossover." + b.name + "." + engine + "_ms", unit: "ms", better: "lower"})
		}
	}
	return defs
}()
