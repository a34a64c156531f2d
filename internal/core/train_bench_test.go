package core

import (
	"os"
	"strconv"
	"sync"
	"testing"

	"repro/internal/dataset"
)

// Shared fixture for BenchmarkTrain: a small IMDB corpus with its similarity
// cache (rank-metric pairs precompute once, on first use).
var benchTrain struct {
	once sync.Once
	c    *dataset.Corpus
	sims *dataset.SimilarityCache
}

// benchTrainConfig is a shortened BaseConfig-dimension schedule: real sequence
// length and model size, few enough steps that one Train call stays in the
// low seconds.
func benchTrainConfig() ModelConfig {
	cfg := BaseConfig()
	cfg.PretrainEpochs, cfg.PretrainPairsPerEpoch = 1, 64
	cfg.FinetuneEpochs, cfg.FinetuneSamplesPerEpoch = 1, 128
	return cfg
}

func benchTrainSetup(b *testing.B) {
	benchTrain.once.Do(func() {
		cfg := dataset.DefaultConfig(dataset.IMDB)
		cfg.NumQueries = 14
		cfg.MaxCasesPerQuery = 5
		c, err := dataset.Build(cfg)
		if err != nil {
			panic(err)
		}
		benchTrain.c = c
		benchTrain.sims = dataset.NewSimilarityCache(c)
	})
	if len(benchTrain.c.Train) == 0 {
		b.Fatal("no training split")
	}
}

// benchWorkers reads REPRO_WORKERS (default 1 = serial), the same knob
// scripts/bench.sh uses for the other benchmark families.
func benchWorkers() int {
	if v := os.Getenv("REPRO_WORKERS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return 1
}

// BenchmarkTrain runs Train end to end: one model replica per mini-batch
// slot, gradients merged in slot order, data-parallel across REPRO_WORKERS
// goroutines.
func BenchmarkTrain(b *testing.B) {
	benchTrainSetup(b)
	cfg := benchTrainConfig()
	cfg.Workers = benchWorkers()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Train(benchTrain.c, benchTrain.sims, cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}
