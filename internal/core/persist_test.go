package core

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dataset"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	c, sims := tinyCorpus(t)
	cfg := tinyConfig()
	cfg.PretrainEpochs, cfg.FinetuneEpochs = 1, 1
	cfg.PretrainPairsPerEpoch, cfg.FinetuneSamplesPerEpoch = 30, 100
	m, _, err := Train(c, sims, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&buf, c.DB)
	if err != nil {
		t.Fatal(err)
	}
	// Identical predictions on a test case.
	qi := c.Test[0]
	cs := c.Queries[qi].Cases[0]
	p1, p2 := m.RankCase(c, qi, cs), loaded.RankCase(c, qi, cs)
	if len(p1) != len(p2) {
		t.Fatalf("prediction sizes differ: %d vs %d", len(p1), len(p2))
	}
	for id, v := range p1 {
		if math.Abs(p2[id]-v) > 1e-12 {
			t.Fatalf("fact %d: %v vs %v after round trip", id, v, p2[id])
		}
	}
	// Similarity heads survive too.
	s1 := m.PredictSimilarities(c.Queries[0].SQL, c.Queries[1].SQL)
	s2 := loaded.PredictSimilarities(c.Queries[0].SQL, c.Queries[1].SQL)
	for metric, v := range s1 {
		if math.Abs(s2[metric]-v) > 1e-12 {
			t.Fatalf("%s head differs after round trip", metric)
		}
	}
}

func TestLoadModelRejectsGarbage(t *testing.T) {
	c, _ := tinyCorpus(t)
	if _, err := LoadModel(strings.NewReader("not a gob"), c.DB); err == nil {
		t.Error("expected decode error")
	}
}

// TestLoadModelRejectsTamperedWeights pins that LoadModel refuses a truncated
// checkpoint, and one holding a NaN or an infinite weight with an error that
// names the tensor. A model with such a weight scores NaN, and binning a NaN
// score once crashed the serving daemon's drift monitor.
func TestLoadModelRejectsTamperedWeights(t *testing.T) {
	c, sims := tinyCorpus(t)
	cfg := tinyConfig()
	cfg.PretrainEpochs, cfg.PretrainMetrics = 0, nil
	cfg.FinetuneEpochs, cfg.FinetuneSamplesPerEpoch = 1, 50
	m, _, err := Train(c, sims, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	truncated := bytes.NewReader(buf.Bytes()[:buf.Len()/2])
	if _, err := LoadModel(truncated, c.DB); err == nil {
		t.Error("expected error for truncated payload")
	}
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		data, tensor := nonFiniteCheckpoint(t, c, v)
		_, err := LoadModel(bytes.NewReader(data), c.DB)
		if err == nil || !strings.Contains(err.Error(), tensor) {
			t.Errorf("LoadModel of a checkpoint with weight %v in %s: err %v, want an error naming the tensor", v, tensor, err)
		}
	}
}

// legacySavedModel mirrors savedModel as checkpoints were written while
// ModelConfig still carried the inference-tier knobs Precision and RankBatch,
// a live TrainBatch and the MLMWeight of the masked-language-model objective.
// gob matches struct fields by name, so encoding this type produces exactly
// such a checkpoint.
type legacySavedModel struct {
	Version int
	Cfg     legacyModelConfig
	Words   []string
	Weights [][]float64
}

type legacyModelConfig struct {
	Name                                                string
	Dim, Heads, Layers, FFNHidden, MaxSeqLen, VocabSize int
	PretrainMetrics                                     []string
	PretrainEpochs, PretrainPairsPerEpoch               int
	PretrainLR                                          float64
	FinetuneEpochs, FinetuneSamplesPerEpoch             int
	FinetuneLR                                          float64
	BatchSize                                           int
	TargetScale, MLMWeight                              float64
	NegativeSamplesPerEpoch                             int
	Seed                                                int64
	Workers, RankBatch, TrainBatch                      int
	Precision                                           string
}

// TestPrecisionCheckpointRoundTrip pins checkpoint compatibility across the
// retired config fields: a checkpoint whose config still names an int8
// precision tier, a rank-batch of 16 and an MLMWeight of 0 loads, keeps every
// other config field, and ranks bit-identically to the model that saved it.
// A checkpoint trained with the masked-language-model objective on carries
// that objective's vocabulary head as two more tensors, and LoadModel refuses
// it.
func TestPrecisionCheckpointRoundTrip(t *testing.T) {
	c, _ := tinyCorpus(t)
	cfg := tinyConfig()
	tok := buildVocabulary(c, cfg)
	m := newModel(cfg, tok, rand.New(rand.NewSource(cfg.Seed)))
	m.trainDB = c.DB
	old := legacySavedModel{
		Version: persistVersion,
		Cfg: legacyModelConfig{
			Name: cfg.Name, Dim: cfg.Dim, Heads: cfg.Heads, Layers: cfg.Layers,
			FFNHidden: cfg.FFNHidden, MaxSeqLen: cfg.MaxSeqLen, VocabSize: cfg.VocabSize,
			PretrainMetrics: cfg.PretrainMetrics, PretrainEpochs: cfg.PretrainEpochs,
			PretrainPairsPerEpoch: cfg.PretrainPairsPerEpoch, PretrainLR: cfg.PretrainLR,
			FinetuneEpochs: cfg.FinetuneEpochs, FinetuneSamplesPerEpoch: cfg.FinetuneSamplesPerEpoch,
			FinetuneLR: cfg.FinetuneLR, BatchSize: cfg.BatchSize, TargetScale: cfg.TargetScale,
			MLMWeight: 0, NegativeSamplesPerEpoch: cfg.NegativeSamplesPerEpoch,
			Seed: cfg.Seed, Workers: cfg.Workers,
			RankBatch: 16, Precision: "int8",
		},
		Words:   tok.Words(),
		Weights: m.params.Snapshot(),
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&old); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&buf, c.DB)
	if err != nil {
		t.Fatalf("checkpoint with retired fields failed to load: %v", err)
	}
	if !reflect.DeepEqual(loaded.Cfg, m.Cfg) {
		t.Fatalf("config changed across load:\nloaded %+v\nsaved  %+v", loaded.Cfg, m.Cfg)
	}
	for _, in := range caseInputs(c) {
		assertValuesBitEqual(t, "loaded", loaded.RankOn(c.DB, in), m.RankOn(c.DB, in))
	}

	old.Cfg.MLMWeight = 0.1
	old.Weights = append(old.Weights, make([]float64, cfg.Dim*tok.VocabSize()), make([]float64, tok.VocabSize()))
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(&old); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(&buf, c.DB); err == nil || !strings.Contains(err.Error(), "weight tensor count") {
		t.Fatalf("LoadModel of a checkpoint with the head.mlm tensors: err %v, want a tensor-count error", err)
	}
}

// TestMalformedConfigReturnsError pins that both entry points that build a
// network from a config, LoadModel (a checkpoint file) and Train (command-line
// sizes), reject architectures the encoder cannot build with an error rather
// than a panic. The loadOnly cases declare sizes far beyond the weights the
// checkpoint carries: LoadModel must refuse them before allocating the
// network (at 1<<40 that allocation is a fatal out-of-memory error, which no
// recover catches). Train has no file to bound them by.
func TestMalformedConfigReturnsError(t *testing.T) {
	c, sims := tinyCorpus(t)
	tok := buildVocabulary(c, tinyConfig())
	weights := newModel(tinyConfig(), tok, rand.New(rand.NewSource(1))).params.Snapshot()
	for _, tc := range []struct {
		name     string
		edit     func(*ModelConfig)
		loadOnly string // the field LoadModel's error must name; Train is not run
	}{
		{"heads_0", func(cfg *ModelConfig) { cfg.Heads = 0 }, ""},
		{"dim_10_heads_4", func(cfg *ModelConfig) { cfg.Dim, cfg.Heads = 10, 4 }, ""},
		{"maxseqlen_-1", func(cfg *ModelConfig) { cfg.MaxSeqLen = -1 }, ""},
		{"maxseqlen_3", func(cfg *ModelConfig) { cfg.MaxSeqLen = minSeqLen - 1 }, ""},
		{"maxseqlen_2^40", func(cfg *ModelConfig) { cfg.MaxSeqLen = 1 << 40 }, "MaxSeqLen"},
		{"ffnhidden_2^40", func(cfg *ModelConfig) { cfg.FFNHidden = 1 << 40 }, "FFNHidden"},
		{"dim_2^40", func(cfg *ModelConfig) { cfg.Dim = 1 << 40 }, "Dim"},
		{"layers_2^20", func(cfg *ModelConfig) { cfg.Layers = 1 << 20 }, "Layers"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tinyConfig()
			tc.edit(&cfg)
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(&savedModel{Version: persistVersion, Cfg: cfg, Words: tok.Words(), Weights: weights}); err != nil {
				t.Fatal(err)
			}
			_, err := LoadModel(&buf, c.DB)
			if err == nil {
				t.Fatal("LoadModel accepted the config")
			}
			if tc.loadOnly != "" {
				if !strings.Contains(err.Error(), tc.loadOnly) {
					t.Errorf("LoadModel error %q does not name %s", err, tc.loadOnly)
				}
				return
			}
			if _, _, err := Train(c, sims, cfg, nil); err == nil {
				t.Error("Train accepted the config")
			}
		})
	}
}

// smallModel is an untrained model of a few hundred weights.
func smallModel(c *dataset.Corpus) *Model {
	cfg := tinyConfig()
	cfg.Dim, cfg.Heads, cfg.FFNHidden, cfg.MaxSeqLen, cfg.VocabSize = 4, 1, 4, 16, 12
	cfg.PretrainMetrics = nil
	return newModel(cfg, buildVocabulary(c, cfg), rand.New(rand.NewSource(cfg.Seed)))
}

// nonFiniteCheckpoint saves smallModel with its first position-embedding
// weight set to v, and returns the checkpoint and that tensor's name.
func nonFiniteCheckpoint(tb testing.TB, c *dataset.Corpus, v float64) ([]byte, string) {
	tb.Helper()
	m := smallModel(c)
	p := m.params.All()[1] // emb.pos
	p.W[0] = v
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes(), p.Name
}

// FuzzLoadModel feeds arbitrary bytes to LoadModel: it must return a model
// or an error, never panic or allocate without bound, and a model it returns
// must rank a lineage. The seeds are a valid checkpoint of smallModel (small,
// so that mutations land on its config and vocabulary more often than on
// weight bytes), one whose config declares MaxSeqLen 1<<40 over a single
// weight, and the valid checkpoint with a NaN weight.
func FuzzLoadModel(f *testing.F) {
	c, _ := tinyCorpus(f)
	m := smallModel(c)
	var valid bytes.Buffer
	if err := m.Save(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	huge := m.Cfg
	huge.MaxSeqLen = 1 << 40
	var crash bytes.Buffer
	if err := gob.NewEncoder(&crash).Encode(&savedModel{
		Version: persistVersion, Cfg: huge, Words: m.tok.Words(), Weights: [][]float64{{0}},
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(crash.Bytes())
	nan, _ := nonFiniteCheckpoint(f, c, math.NaN())
	f.Add(nan)
	in := caseInputs(c)[0]
	f.Fuzz(func(t *testing.T, data []byte) {
		loaded, err := LoadModel(bytes.NewReader(data), c.DB)
		if err != nil {
			return
		}
		if got := loaded.RankOn(c.DB, in); len(got) != len(in.Lineage) {
			t.Fatalf("loaded model scored %d of %d facts", len(got), len(in.Lineage))
		}
	})
}
