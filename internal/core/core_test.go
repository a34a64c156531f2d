package core

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/metrics"
)

// tinyConfig keeps unit tests fast; experiment-quality settings live in the
// experiments package.
func tinyConfig() ModelConfig {
	return ModelConfig{
		Name: "tiny", Dim: 16, Heads: 2, Layers: 1, FFNHidden: 32,
		MaxSeqLen: 48, VocabSize: 800,
		PretrainMetrics: AllMetrics(), PretrainEpochs: 1, PretrainPairsPerEpoch: 60, PretrainLR: 2e-3,
		FinetuneEpochs: 2, FinetuneSamplesPerEpoch: 250, FinetuneLR: 2e-3,
		BatchSize: 16, TargetScale: 10, Seed: 5,
	}
}

func tinyCorpus(t testing.TB) (*dataset.Corpus, *dataset.SimilarityCache) {
	t.Helper()
	cfg := dataset.DefaultConfig(dataset.IMDB)
	cfg.NumQueries = 14
	cfg.MaxCasesPerQuery = 5
	c, err := dataset.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, dataset.NewSimilarityCache(c)
}

func TestTrainProducesWorkingModel(t *testing.T) {
	c, sims := tinyCorpus(t)
	m, report, err := Train(c, sims, tinyConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if report.NumWeights == 0 {
		t.Error("no weights registered")
	}
	if len(report.PretrainDevMSE) != 1 || len(report.FinetuneDevNDCG) != 2 {
		t.Errorf("report = %+v", report)
	}
	if report.BestDevNDCG <= 0 || report.BestDevNDCG > 1 {
		t.Errorf("BestDevNDCG = %v", report.BestDevNDCG)
	}
	// Rank a test case: every lineage fact must receive a score.
	qi := c.Test[0]
	cs := c.Queries[qi].Cases[0]
	pred := m.RankCase(c, qi, cs)
	if len(pred) != len(cs.Tuple.Lineage()) {
		t.Errorf("scored %d of %d lineage facts", len(pred), len(cs.Tuple.Lineage()))
	}
	if got := metrics.NDCGAtK(pred, cs.Gold, 10); got < 0 || got > 1 {
		t.Errorf("NDCG out of range: %v", got)
	}
}

func TestTrainDeterministic(t *testing.T) {
	c, sims := tinyCorpus(t)
	cfg := tinyConfig()
	cfg.PretrainEpochs, cfg.FinetuneEpochs = 1, 1
	cfg.PretrainPairsPerEpoch, cfg.FinetuneSamplesPerEpoch = 40, 120
	m1, _, err := Train(c, sims, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := Train(c, sims, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	qi := c.Test[0]
	cs := c.Queries[qi].Cases[0]
	p1, p2 := m1.RankCase(c, qi, cs), m2.RankCase(c, qi, cs)
	for id, v := range p1 {
		if math.Abs(p2[id]-v) > 1e-12 {
			t.Fatalf("training not deterministic: fact %d %v vs %v", id, v, p2[id])
		}
	}
}

func TestTrainLearnsSignal(t *testing.T) {
	// After fine-tuning, predictions on training cases must correlate
	// positively with the gold Shapley values (memorization at minimum).
	c, sims := tinyCorpus(t)
	cfg := tinyConfig()
	cfg.FinetuneEpochs = 3
	m, _, err := Train(c, sims, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var preds, golds []float64
	for _, qi := range c.Train[:4] {
		for _, cs := range c.Queries[qi].Cases {
			p := m.RankCase(c, qi, cs)
			for id, g := range cs.Gold {
				preds = append(preds, p[id])
				golds = append(golds, g)
			}
		}
	}
	if r := metrics.Pearson(preds, golds); r < 0.05 {
		t.Errorf("train-set correlation too weak: %v", r)
	}
}

func TestTrainWithoutPretraining(t *testing.T) {
	c, sims := tinyCorpus(t)
	cfg := tinyConfig()
	cfg.PretrainMetrics = nil
	cfg.PretrainEpochs = 0
	m, report, err := Train(c, sims, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.PretrainDevMSE) != 0 {
		t.Error("pre-training ran despite being disabled")
	}
	if m == nil {
		t.Fatal("nil model")
	}
}

func TestTrainSubsetLog(t *testing.T) {
	c, sims := tinyCorpus(t)
	cfg := tinyConfig()
	cfg.PretrainEpochs = 0
	cfg.PretrainMetrics = nil
	sub := c.Train[:3]
	m, _, err := Train(c, sims, cfg, sub)
	if err != nil {
		t.Fatal(err)
	}
	if m == nil {
		t.Fatal("nil model")
	}
}

func TestTrainEmptySplitFails(t *testing.T) {
	c, sims := tinyCorpus(t)
	if _, _, err := Train(c, sims, tinyConfig(), []int{}); err == nil {
		t.Error("expected error on empty training split")
	}
}

func TestPredictSimilarities(t *testing.T) {
	c, sims := tinyCorpus(t)
	m, _, err := Train(c, sims, tinyConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	out := m.PredictSimilarities(c.Queries[0].SQL, c.Queries[1].SQL)
	if len(out) != 3 {
		t.Fatalf("similarities = %v", out)
	}
	for metric, v := range out {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s prediction = %v", metric, v)
		}
	}
}

func TestConfigsDiffer(t *testing.T) {
	base, large := BaseConfig(), LargeConfig()
	if large.Dim <= base.Dim || large.Layers <= base.Layers {
		t.Error("large must be larger than base")
	}
	noPre := NoPretrainConfig()
	if len(noPre.PretrainMetrics) != 0 {
		t.Error("no-pretrain config still pre-trains")
	}
	small := SmallTransformerConfig()
	if small.Dim >= base.Dim {
		t.Error("small transformer must be smaller than base")
	}
}

func TestTrainWithNegativeSamples(t *testing.T) {
	c, sims := tinyCorpus(t)
	cfg := tinyConfig()
	cfg.PretrainMetrics = nil
	cfg.PretrainEpochs = 0
	cfg.NegativeSamplesPerEpoch = 60
	m, _, err := Train(c, sims, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Scoring a mixed lineage (real facts + outsiders) must produce a score
	// for every requested fact.
	qi := c.Test[0]
	cs := c.Queries[qi].Cases[0]
	in := Input{
		SQL:         c.Queries[qi].SQL,
		Query:       c.Queries[qi].Query,
		TupleValues: cs.Tuple.Values,
		Lineage:     cs.Tuple.Lineage(),
	}
	in.Lineage = append(in.Lineage, 0, 1, 2) // arbitrary facts
	scores := m.Rank(in)
	if len(scores) < len(cs.Tuple.Lineage()) {
		t.Errorf("scored %d facts, want at least %d", len(scores), len(cs.Tuple.Lineage()))
	}
}
