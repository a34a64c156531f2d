package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/shapley"
	"repro/internal/tokenizer"
)

// Metric names for pre-training objectives.
const (
	MetricSyntax  = "syntax"
	MetricWitness = "witness"
	MetricRank    = "rank"
)

// AllMetrics is the full pre-training objective set of the paper.
func AllMetrics() []string { return []string{MetricSyntax, MetricWitness, MetricRank} }

// ModelConfig sizes and schedules a LearnShapley model. The paper's
// BERT-base/BERT-large become two encoder sizes at CPU scale (DESIGN.md).
type ModelConfig struct {
	Name      string
	Dim       int
	Heads     int
	Layers    int
	FFNHidden int
	MaxSeqLen int
	VocabSize int

	PretrainMetrics       []string // empty disables pre-training (ablation)
	PretrainEpochs        int
	PretrainPairsPerEpoch int
	PretrainLR            float64

	FinetuneEpochs          int
	FinetuneSamplesPerEpoch int
	FinetuneLR              float64

	BatchSize int
	// TargetScale multiplies Shapley values before regression. The paper uses
	// 1000 to dodge float16 underflow on GPUs; in float64 the scale only sets
	// the loss magnitude, so a smaller default keeps gradients well-ranged.
	TargetScale float64
	// MLMWeight > 0 adds BERT's original masked-language-model objective to
	// the pre-training loss with the given weight. The paper starts from an
	// already-pre-trained BERT, whose token representations come from MLM;
	// since our encoder starts from random weights, MLM is the corresponding
	// warm-up and is exposed as an optional objective.
	MLMWeight float64
	// NegativeSamplesPerEpoch enables the paper's future-work extension
	// (Section 7): the published system trains only on positive samples
	// (facts with non-zero Shapley value) and therefore cannot separate
	// contributing from non-contributing facts. Setting this > 0 adds that
	// many fine-tuning samples per epoch pairing a training case with a
	// random fact OUTSIDE its lineage, regressed to 0.
	NegativeSamplesPerEpoch int
	Seed                    int64
	// Workers bounds the goroutines used for mini-batch gradients and dev
	// evaluation during training; <= 0 means one per CPU. Every RNG decision
	// is pre-drawn on the main goroutine and per-sample gradients are reduced
	// in sample order, so trained weights are bit-identical for every worker
	// count.
	Workers int
	// Deprecated: Train ignores TrainBatch; every Train runs one model
	// replica per mini-batch slot. The field stays until its last callers
	// stop setting it.
	TrainBatch int
}

// minSeqLen is the shortest MaxSeqLen a model can run: [CLS] plus the [SEP]
// that closes each segment of a (query, tuple, fact) sequence.
const minSeqLen = 4

// validate rejects the architectures a model cannot be built or run with:
// every size must be positive, MaxSeqLen at least minSeqLen, and Dim must
// split evenly across the attention heads.
func (cfg ModelConfig) validate() error {
	for _, f := range []struct {
		name   string
		v, min int
	}{{"Dim", cfg.Dim, 1}, {"Heads", cfg.Heads, 1}, {"Layers", cfg.Layers, 1}, {"FFNHidden", cfg.FFNHidden, 1}, {"MaxSeqLen", cfg.MaxSeqLen, minSeqLen}} {
		if f.v < f.min {
			return fmt.Errorf("core: model config %s is %d, want at least %d", f.name, f.v, f.min)
		}
	}
	if cfg.Dim%cfg.Heads != 0 {
		return fmt.Errorf("core: model config Dim %d is not divisible by Heads %d", cfg.Dim, cfg.Heads)
	}
	return nil
}

// BaseConfig is LearnShapley-base at bench scale.
func BaseConfig() ModelConfig {
	return ModelConfig{
		Name: "LearnShapley-base", Dim: 32, Heads: 4, Layers: 2, FFNHidden: 64,
		MaxSeqLen: 96, VocabSize: 2000,
		// Pre-training is deliberately gentle (low LR, few pairs): it should
		// shape the representation without dominating the fine-tuning task.
		PretrainMetrics: AllMetrics(), PretrainEpochs: 2, PretrainPairsPerEpoch: 200, PretrainLR: 5e-4,
		FinetuneEpochs: 6, FinetuneSamplesPerEpoch: 2000, FinetuneLR: 2e-3,
		BatchSize: 16, TargetScale: 10, Seed: 11,
	}
}

// LargeConfig is LearnShapley-large at bench scale.
func LargeConfig() ModelConfig {
	c := BaseConfig()
	c.Name = "LearnShapley-large"
	c.Dim, c.Heads, c.Layers, c.FFNHidden = 48, 4, 3, 96
	c.Seed = 12
	return c
}

// NoPretrainConfig is the "BERT w/o pre-training" ablation: identical to
// base but fine-tuned directly.
func NoPretrainConfig() ModelConfig {
	c := BaseConfig()
	c.Name = "w/o pre-training"
	c.PretrainMetrics = nil
	c.PretrainEpochs = 0
	c.Seed = 13
	return c
}

// SmallTransformerConfig is the "transformer encoder" ablation: a smaller,
// randomly initialized encoder trained only on the fine-tuning data.
func SmallTransformerConfig() ModelConfig {
	c := BaseConfig()
	c.Name = "transformer encoder"
	c.Dim, c.Heads, c.Layers, c.FFNHidden = 16, 2, 1, 32
	c.PretrainMetrics = nil
	c.PretrainEpochs = 0
	c.Seed = 14
	return c
}

// Model is a trained (or training) LearnShapley instance.
//
// Thread-safety contract: a single Model is not safe for concurrent use (the
// encoder caches activations between forward and backward), but replicas made
// with CloneForWorker are safe to use concurrently with each other and with
// the parent — they share the weight tensors, which are read-only at
// inference, while each replica owns the mutable state (activation caches and
// gradient accumulators). Rank/RankOn/RankCase therefore run concurrently by
// giving each worker goroutine its own replica.
type Model struct {
	Cfg      ModelConfig
	tok      *tokenizer.Tokenizer
	params   *nn.Params
	enc      *nn.Encoder
	simHeads map[string]*nn.RegressionHead
	shapHead *nn.RegressionHead
	mlmHead  *nn.VocabHead // nil unless Cfg.MLMWeight > 0

	trainDB *relation.Database
}

// NumWeights reports the total scalar parameter count.
func (m *Model) NumWeights() int { return m.params.NumWeights() }

// Name implements Ranker.
func (m *Model) Name() string { return m.Cfg.Name }

// newModel builds the network once the vocabulary is known.
func newModel(cfg ModelConfig, tok *tokenizer.Tokenizer, rng *rand.Rand) *Model {
	return assemble(cfg, tok, &nn.Params{}, rng)
}

// assemble wires the network structure around a parameter registry. The
// constructor sequence here is the replica contract: CloneForWorker re-runs
// it over a replay registry, so every nn constructor call must happen in the
// same order for primaries and replicas.
func assemble(cfg ModelConfig, tok *tokenizer.Tokenizer, ps *nn.Params, rng *rand.Rand) *Model {
	enc := nn.NewEncoder(nn.Config{
		VocabSize: tok.VocabSize(),
		MaxSeqLen: cfg.MaxSeqLen,
		Dim:       cfg.Dim,
		Heads:     cfg.Heads,
		Layers:    cfg.Layers,
		FFNHidden: cfg.FFNHidden,
		Segments:  3,
	}, ps, rng)
	m := &Model{
		Cfg:      cfg,
		tok:      tok,
		params:   ps,
		enc:      enc,
		simHeads: make(map[string]*nn.RegressionHead),
		shapHead: nn.NewRegressionHead(ps, "head.shapley", cfg.Dim, rng),
	}
	for _, metric := range cfg.PretrainMetrics {
		m.simHeads[metric] = nn.NewRegressionHead(ps, "head."+metric, cfg.Dim, rng)
	}
	if cfg.MLMWeight > 0 {
		m.mlmHead = nn.NewVocabHead(ps, "head.mlm", cfg.Dim, tok.VocabSize(), rng)
	}
	return m
}

// CloneForWorker returns a worker replica of the model: it shares the parent's
// weight tensors (optimizer updates and checkpoint restores on the parent are
// immediately visible) but owns its activation caches and gradient
// accumulators, so each replica may run forward/backward concurrently with the
// others. Replica gradients are merged into the parent in a fixed order
// via nn.(*Params).AddGradsFrom.
func (m *Model) CloneForWorker() *Model {
	rep := m.params.CloneForWorker()
	// The RNG is unused: replica tensors alias the parent's weights and skip
	// initialization.
	cm := assemble(m.Cfg, m.tok, rep, rand.New(rand.NewSource(0)))
	cm.trainDB = m.trainDB
	return cm
}

// RankerReplica implements ConcurrentRanker.
func (m *Model) RankerReplica() Ranker { return m.CloneForWorker() }

// buildVocabulary collects tokens from the training queries, their labeled
// tuples and lineage facts. Only training data contributes, so test-time
// coverage of unseen facts flows through shared structure tokens, exactly the
// generalization Section 5.7 studies.
func buildVocabulary(c *dataset.Corpus, cfg ModelConfig) *tokenizer.Tokenizer {
	var corpus [][]string
	for _, qi := range c.Train {
		q := c.Queries[qi]
		corpus = append(corpus, tokenizer.TokenizeSQL(q.SQL))
		for _, cs := range q.Cases {
			corpus = append(corpus, tokenizer.TokenizeValues(cs.Tuple.Values))
			for id := range cs.Gold {
				corpus = append(corpus, tokenizer.TokenizeFact(c.DB.Fact(id)))
			}
		}
	}
	return tokenizer.Build(corpus, cfg.VocabSize)
}

// Rank implements Ranker. Fact IDs are resolved against the database the
// model was trained over.
func (m *Model) Rank(in Input) shapley.Values {
	return m.RankOn(m.db(), in)
}

// RankOn ranks a lineage whose fact IDs refer to the given database. Passing
// a database other than the training one performs cross-schema inference —
// the open generalization problem of Section 7; token overlap is then the
// only transferable signal. The shared [CLS] q [SEP] t [SEP] prefix is
// encoded once and the facts are packed into a few encoder passes (see
// rank.go). Scores are bit-identical to one independent full-length forward
// pass per fact.
func (m *Model) RankOn(db *relation.Database, in Input) shapley.Values {
	return m.rankChunked(db, in, rankChunk)
}

// RankCtx is Rank with a request context: when ctx carries an
// obs.TraceContext (a request threading through a serving pipeline), the
// scoring pass records itself as a "core.rank" stage on that trace, so a
// request's latency decomposition shows how much of it was model time. The
// scores are exactly Rank's — trace recording is passive.
func (m *Model) RankCtx(ctx context.Context, in Input) shapley.Values {
	return m.RankOnCtx(ctx, m.db(), in)
}

// RankOnCtx is RankOn with trace-context pass-through (see RankCtx).
func (m *Model) RankOnCtx(ctx context.Context, db *relation.Database, in Input) shapley.Values {
	if tc := obs.TraceFrom(ctx); tc != nil {
		defer tc.StageTimer("core.rank")()
	}
	return m.RankOn(db, in)
}

// db returns the corpus database the model was trained over.
func (m *Model) db() *relation.Database { return m.trainDB }

// PredictSimilarities runs the pre-training heads on a query pair, returning
// metric -> predicted similarity. Only available for metrics the model was
// pre-trained on.
func (m *Model) PredictSimilarities(sqlA, sqlB string) map[string]float64 {
	a, b := tokenizer.TokenizeSQL(sqlA), tokenizer.TokenizeSQL(sqlB)
	p := m.tok.Pack(m.Cfg.MaxSeqLen, 2, a, b)
	hidden := m.enc.Forward(p.Tokens, p.Segments, p.Mask)
	out := make(map[string]float64, len(m.simHeads))
	names := make([]string, 0, len(m.simHeads))
	for name := range m.simHeads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		out[name] = m.simHeads[name].Forward(hidden)
	}
	return out
}
