package core

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dataset"
)

// Shared fixture for the end-to-end ranking benchmarks: an (untrained —
// weights don't affect FLOPs) BaseConfig model plus every labeled case of a
// small IMDB corpus. Built once; benchmarks rank the same inputs through the
// reference path and the packed prefix-reuse path.
var benchRank struct {
	once sync.Once
	c    *dataset.Corpus
	m    *Model
	ins  []Input
}

func benchRankSetup(b *testing.B) {
	benchRank.once.Do(func() {
		cfg := dataset.DefaultConfig(dataset.IMDB)
		cfg.NumQueries = 14
		cfg.MaxCasesPerQuery = 5
		c, err := dataset.Build(cfg)
		if err != nil {
			panic(err)
		}
		mc := BaseConfig()
		tok := buildVocabulary(c, mc)
		benchRank.c = c
		benchRank.m = newModel(mc, tok, rand.New(rand.NewSource(mc.Seed)))
		benchRank.ins = caseInputs(c)
	})
	if len(benchRank.ins) == 0 {
		b.Fatal("no benchmark inputs")
	}
}

// BenchmarkRankLineageFull ranks every case with one independent Forward
// pass per fact (rankOnFull): no prefix reuse and no packing.
func BenchmarkRankLineageFull(b *testing.B) {
	benchRankSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, in := range benchRank.ins {
			benchRank.m.rankOnFull(benchRank.c.DB, in)
		}
	}
}

// BenchmarkRankLineagePrefix ranks the same cases through RankOn: shared
// prefix encoded once per lineage, trimmed (unpadded) sequences per fact,
// packed into encoder passes. Bit-identical outputs (TestRankOnPrefixGolden).
func BenchmarkRankLineagePrefix(b *testing.B) {
	benchRankSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, in := range benchRank.ins {
			benchRank.m.RankOn(benchRank.c.DB, in)
		}
	}
}
