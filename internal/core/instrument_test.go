package core

import (
	"math"
	"testing"

	"repro/internal/obs"
)

// TestInstrumentationParity asserts that turning the full observability stack
// on — live metrics registry, tracer, debug logger — leaves training and
// ranking bit-identical to the no-op default. Instrumentation is passive: it
// draws no RNG, mutates no floats, and reorders no reductions, so every weight
// and every ranking score must match bitwise.
func TestInstrumentationParity(t *testing.T) {
	cfg := tinyConfig()
	cfg.PretrainPairsPerEpoch = 40
	cfg.FinetuneEpochs, cfg.FinetuneSamplesPerEpoch = 2, 120

	type result struct {
		weights [][]float64
		devNDCG []float64
		scores  []float64
	}
	trainOnce := func(instrumented bool) result {
		if instrumented {
			run := obs.NewRun("parity-test", obs.NewRegistry(), obs.NewTracer(), nil)
			obs.Install(run)
			defer obs.Uninstall()
		}
		// Corpus, cache and model are all built under the chosen observability
		// mode, so construction-time handle resolution is exercised too.
		c, sims := buildParityCorpus(t, 2)
		m, report, err := Train(c, sims, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		res := result{weights: m.params.Snapshot(), devNDCG: report.FinetuneDevNDCG}
		for _, qi := range c.Test {
			for _, cs := range c.Queries[qi].Cases {
				pred := m.RankCase(c, qi, cs)
				for _, id := range pred.Ranking() {
					res.scores = append(res.scores, pred[id])
				}
			}
		}
		return res
	}

	plain := trainOnce(false)
	instr := trainOnce(true)

	if len(plain.weights) != len(instr.weights) {
		t.Fatalf("tensor counts differ: %d vs %d", len(plain.weights), len(instr.weights))
	}
	for ti := range plain.weights {
		for wi := range plain.weights[ti] {
			if math.Float64bits(plain.weights[ti][wi]) != math.Float64bits(instr.weights[ti][wi]) {
				t.Fatalf("tensor %d weight %d differs: %v vs %v",
					ti, wi, plain.weights[ti][wi], instr.weights[ti][wi])
			}
		}
	}
	for e := range plain.devNDCG {
		if plain.devNDCG[e] != instr.devNDCG[e] {
			t.Fatalf("dev NDCG at epoch %d differs: %v vs %v", e, plain.devNDCG[e], instr.devNDCG[e])
		}
	}
	if len(plain.scores) != len(instr.scores) {
		t.Fatalf("ranking score counts differ: %d vs %d", len(plain.scores), len(instr.scores))
	}
	for i := range plain.scores {
		if math.Float64bits(plain.scores[i]) != math.Float64bits(instr.scores[i]) {
			t.Fatalf("ranking score %d differs: %v vs %v", i, plain.scores[i], instr.scores[i])
		}
	}
}

// TestInstrumentedTrainRecords sanity-checks that a live run actually captures
// the signals the manifest promises: per-epoch curves, prefix-cache counters,
// similarity-cache counters, and phase spans.
func TestInstrumentedTrainRecords(t *testing.T) {
	run := obs.NewRun("records-test", obs.NewRegistry(), obs.NewTracer(), nil)
	obs.Install(run)
	defer obs.Uninstall()

	cfg := tinyConfig()
	cfg.FinetuneEpochs, cfg.FinetuneSamplesPerEpoch = 2, 80
	c, sims := buildParityCorpus(t, 2)
	m, _, err := Train(c, sims, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, qi := range c.Test {
		for _, cs := range c.Queries[qi].Cases {
			m.RankCase(c, qi, cs)
		}
	}

	snap := run.Reg.Snapshot()
	for _, series := range []string{"core.finetune.loss", "core.finetune.dev_ndcg10", "core.finetune.grad_norm", "core.finetune.examples_per_sec"} {
		if got := len(snap.Series[series]); got != cfg.FinetuneEpochs {
			t.Errorf("series %q has %d points, want %d", series, got, cfg.FinetuneEpochs)
		}
	}
	if snap.Counters["nn.encoder.forward_passes"] == 0 {
		t.Error("encoder forward counter did not record")
	}
	if snap.Counters["core.rank.prefix_hits"] == 0 {
		t.Error("prefix-reuse counter did not record")
	}
	if snap.Counters["dataset.simcache.hits"]+snap.Counters["dataset.simcache.misses"] == 0 {
		t.Error("similarity-cache counters did not record")
	}
	root := run.Tracer.Root()
	names := map[string]bool{}
	var walk func(n *obs.SpanNode)
	walk = func(n *obs.SpanNode) {
		names[n.Name] = true
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	walk(root)
	for _, want := range []string{"dataset.build:IMDB", "core.train:tiny", "core.pretrain", "core.finetune"} {
		if !names[want] {
			t.Errorf("trace is missing span %q; have %v", want, names)
		}
	}
}
