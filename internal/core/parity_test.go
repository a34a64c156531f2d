package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"repro/internal/dataset"
)

// buildParityCorpus builds the tiny corpus at a given worker count.
func buildParityCorpus(t *testing.T, workers int) (*dataset.Corpus, *dataset.SimilarityCache) {
	t.Helper()
	cfg := dataset.DefaultConfig(dataset.IMDB)
	cfg.NumQueries = 14
	cfg.MaxCasesPerQuery = 5
	cfg.Workers = workers
	c, err := dataset.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, dataset.NewSimilarityCache(c)
}

// TestCorpusWorkerParity asserts that corpus construction is bit-identical
// for workers=1 and workers=4: same workload, same splits, same labeled
// tuples, same exact Shapley values.
func TestCorpusWorkerParity(t *testing.T) {
	c1, _ := buildParityCorpus(t, 1)
	c4, _ := buildParityCorpus(t, 4)
	if len(c1.Queries) != len(c4.Queries) {
		t.Fatalf("query counts differ: %d vs %d", len(c1.Queries), len(c4.Queries))
	}
	for i := range c1.Queries {
		q1, q4 := c1.Queries[i], c4.Queries[i]
		if q1.SQL != q4.SQL {
			t.Fatalf("query %d SQL differs:\n  %s\n  %s", i, q1.SQL, q4.SQL)
		}
		if len(q1.Cases) != len(q4.Cases) {
			t.Fatalf("query %d case counts differ: %d vs %d", i, len(q1.Cases), len(q4.Cases))
		}
		for ci := range q1.Cases {
			cs1, cs4 := q1.Cases[ci], q4.Cases[ci]
			if cs1.Tuple.Key() != cs4.Tuple.Key() {
				t.Fatalf("query %d case %d labels different tuples", i, ci)
			}
			if len(cs1.Gold) != len(cs4.Gold) {
				t.Fatalf("query %d case %d gold sizes differ", i, ci)
			}
			for id, v := range cs1.Gold {
				if cs4.Gold[id] != v { // bitwise float equality intended
					t.Fatalf("query %d case %d fact %d gold %v vs %v", i, ci, id, v, cs4.Gold[id])
				}
			}
		}
	}
	for name, pair := range map[string][2][]int{
		"train": {c1.Train, c4.Train},
		"dev":   {c1.Dev, c4.Dev},
		"test":  {c1.Test, c4.Test},
	} {
		a, b := pair[0], pair[1]
		if len(a) != len(b) {
			t.Fatalf("%s split sizes differ: %d vs %d", name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s split differs at %d: %d vs %d", name, i, a[i], b[i])
			}
		}
	}
}

// trainGoldenDigest is trainDigest of TestTrainWorkerParity's run on amd64.
// It was taken when shapley.Exact began snapping its values to the 2^-40
// grid, which reorders tied facts in some gold rankings; the engine that
// replaced the decision diagram afterwards had to reproduce it bit for bit.
// Other architectures
// may compile x*y+z to a fused multiply-add (arm64 does), which rounds once
// instead of twice and legitimately changes the bits.
const trainGoldenDigest = "689321b0da90c0ede3045351cc51fa7c00bef034ad65b75dc7b7f8c3096b8871"

// trainDigest is the SHA-256 over the bits of every trained weight, in
// registration order, then the report's pre-training and fine-tuning dev
// curves.
func trainDigest(m *Model, r *TrainReport) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for _, p := range m.params.All() {
		for _, w := range p.W {
			put(w)
		}
	}
	for _, v := range r.PretrainDevMSE {
		put(v)
	}
	for _, v := range r.FinetuneDevNDCG {
		put(v)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTrainWorkerParity asserts that training is bit-identical for workers=1
// and workers=4: every final weight matches bitwise and the per-epoch dev
// NDCG trajectories are element-wise equal. On amd64 the run must also match
// trainGoldenDigest, which pins the trained weights across changes.
func TestTrainWorkerParity(t *testing.T) {
	cfg := tinyConfig()
	cfg.PretrainPairsPerEpoch = 40
	cfg.FinetuneEpochs, cfg.FinetuneSamplesPerEpoch = 2, 120

	train := func(workers int) (*Model, *TrainReport) {
		c, sims := buildParityCorpus(t, workers)
		mcfg := cfg
		mcfg.Workers = workers
		m, report, err := Train(c, sims, mcfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		return m, report
	}
	m1, r1 := train(1)
	m4, r4 := train(4)

	s1, s4 := m1.params.Snapshot(), m4.params.Snapshot()
	if len(s1) != len(s4) {
		t.Fatalf("parameter tensor counts differ: %d vs %d", len(s1), len(s4))
	}
	for ti := range s1 {
		if len(s1[ti]) != len(s4[ti]) {
			t.Fatalf("tensor %d sizes differ", ti)
		}
		for wi := range s1[ti] {
			if s1[ti][wi] != s4[ti][wi] { // bitwise float equality intended
				t.Fatalf("tensor %d weight %d differs: %v vs %v", ti, wi, s1[ti][wi], s4[ti][wi])
			}
		}
	}
	if len(r1.FinetuneDevNDCG) != len(r4.FinetuneDevNDCG) {
		t.Fatalf("dev NDCG trajectory lengths differ: %d vs %d", len(r1.FinetuneDevNDCG), len(r4.FinetuneDevNDCG))
	}
	for e := range r1.FinetuneDevNDCG {
		if r1.FinetuneDevNDCG[e] != r4.FinetuneDevNDCG[e] {
			t.Fatalf("dev NDCG at epoch %d differs: %v vs %v", e, r1.FinetuneDevNDCG[e], r4.FinetuneDevNDCG[e])
		}
	}
	for e := range r1.PretrainDevMSE {
		if r1.PretrainDevMSE[e] != r4.PretrainDevMSE[e] {
			t.Fatalf("dev MSE at epoch %d differs: %v vs %v", e, r1.PretrainDevMSE[e], r4.PretrainDevMSE[e])
		}
	}
	if runtime.GOARCH != "amd64" {
		t.Logf("golden digest is pinned on amd64 only; not compared on %s", runtime.GOARCH)
		return
	}
	// The workers=4 run matched workers=1 bitwise above.
	if got := trainDigest(m1, r1); got != trainGoldenDigest {
		t.Errorf("training digest %s, want %s", got, trainGoldenDigest)
	}
}

// TestTrainShapeGolden pins trainDigest at the benchmark's model shapes:
// LearnShapley-base (2 layers) and LearnShapley-large (3 layers) on the
// default IMDB corpus, and LearnShapley-base on the default Academic corpus
// with the benchmark's schedule, whose sequences FitLengths trims and whose
// dev ranking covers 513 facts. tinyConfig has one layer, so
// TestTrainWorkerParity never trains a layer below the last one, whose rows
// other than [CLS] training skips. The IMDB digests were recorded while
// training still padded every sequence to MaxSeqLen and ran the last layer on
// every row, the Academic one while attention still ran its own per-key loops
// instead of the blocked kernels. Like trainGoldenDigest they hold on amd64
// only; the digests do not depend on the worker count.
func TestTrainShapeGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Logf("golden digests are pinned on amd64 only; not compared on %s", runtime.GOARCH)
		return
	}
	base := BaseConfig()
	base.PretrainEpochs, base.PretrainPairsPerEpoch = 1, 50
	base.FinetuneEpochs, base.FinetuneSamplesPerEpoch = 1, 150
	large := LargeConfig()
	large.PretrainEpochs, large.PretrainPairsPerEpoch = 1, 40
	large.FinetuneEpochs, large.FinetuneSamplesPerEpoch = 1, 100
	for _, g := range []struct {
		kind dataset.Kind
		cfg  ModelConfig
		want string
	}{
		{dataset.IMDB, base, "9c4138b0e28cef37616156f5a16945a4606194364eff07e3b3c6e385138e5bb7"},
		{dataset.IMDB, large, "32e648083ebe577e3f7d08eba6e0994816d3b136cfd44dcd608bf785f200f9f6"},
		{dataset.Academic, base, "ec6dfcbd03838c3f981d9e50e4fa9cef63b89382a419a2e3860abc4718ced1cb"},
	} {
		c, err := dataset.Build(dataset.DefaultConfig(g.kind))
		if err != nil {
			t.Fatal(err)
		}
		m, r, err := Train(c, dataset.NewSimilarityCache(c), g.cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := trainDigest(m, r); got != g.want {
			t.Errorf("%s on %v: training digest %s, want %s", g.cfg.Name, g.kind, got, g.want)
		}
	}
}
