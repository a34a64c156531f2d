package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/relation"
)

// TestTrainBatchedParity is the end-to-end bit-identity test for mini-batch
// training: at every mini-batch size, Train must produce bitwise-identical
// final weights and a byte-for-byte identical TrainReport (per-epoch dev MSE
// and NDCG curves included) for every worker count. A batch of 1 leaves
// workers idle; 7 and 12 spread slots unevenly over 4 workers and leave a
// trailing partial batch of at least 3 samples in both phases (32 pairs, 80
// samples), so slot-to-worker assignment and the slot-order merge of partial
// batches are both exercised.
func TestTrainBatchedParity(t *testing.T) {
	cfg := tinyConfig()
	cfg.PretrainPairsPerEpoch = 32
	cfg.FinetuneEpochs, cfg.FinetuneSamplesPerEpoch = 2, 80
	c, sims := buildParityCorpus(t, 2)

	train := func(batchSize, workers int) (*Model, *TrainReport) {
		mcfg := cfg
		mcfg.BatchSize, mcfg.Workers = batchSize, workers
		m, report, err := Train(c, sims, mcfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		return m, report
	}
	for _, bs := range []int{1, 7, 12} {
		mRef, rRef := train(bs, 2)
		sRef := mRef.params.Snapshot()
		for _, workers := range []int{1, 4} {
			m, r := train(bs, workers)
			s := m.params.Snapshot()
			if len(s) != len(sRef) {
				t.Fatalf("bs=%d workers=%d: tensor counts differ", bs, workers)
			}
			for ti := range sRef {
				for wi := range sRef[ti] {
					if math.Float64bits(s[ti][wi]) != math.Float64bits(sRef[ti][wi]) {
						t.Fatalf("bs=%d workers=%d: tensor %d weight %d: %v != %v at workers=2",
							bs, workers, ti, wi, s[ti][wi], sRef[ti][wi])
					}
				}
			}
			if !reflect.DeepEqual(r, rRef) {
				t.Fatalf("bs=%d workers=%d: TrainReport differs from workers=2:\ngot  %+v\nwant %+v",
					bs, workers, r, rRef)
			}
		}
	}
}

// TestSampleNegativesExcludesLineage asserts negative samples never pair a
// case with a fact inside its lineage and fills the requested count when
// out-of-lineage facts exist.
func TestSampleNegativesExcludesLineage(t *testing.T) {
	c, _ := tinyCorpus(t)
	cfg := tinyConfig()
	tok := buildVocabulary(c, cfg)
	m := newModel(cfg, tok, rand.New(rand.NewSource(cfg.Seed)))
	const count = 50
	out := m.sampleNegatives(c, c.Train, count, rand.New(rand.NewSource(3)))
	if len(out) != count {
		t.Fatalf("drew %d negatives, want %d", len(out), count)
	}
	for _, sm := range out {
		if sm.gold != 0 {
			t.Errorf("negative sample has target %v, want 0", sm.gold)
		}
		if _, inLineage := c.Queries[sm.query].Cases[sm.caseI].Gold[sm.fact]; inLineage {
			t.Errorf("negative sample (q=%d case=%d fact=%d) is inside the case's lineage", sm.query, sm.caseI, sm.fact)
		}
	}
}

// TestSampleNegativesAttemptBound makes every database fact part of every
// case's lineage, so no valid negative exists: the sampler must give up after
// its bounded number of attempts instead of looping forever.
func TestSampleNegativesAttemptBound(t *testing.T) {
	c, _ := tinyCorpus(t)
	cfg := tinyConfig()
	tok := buildVocabulary(c, cfg)
	m := newModel(cfg, tok, rand.New(rand.NewSource(cfg.Seed)))
	all := make(map[relation.FactID]float64, c.DB.NumFacts())
	for id := 0; id < c.DB.NumFacts(); id++ {
		all[relation.FactID(id)] = 1
	}
	for qi := range c.Queries {
		for ci := range c.Queries[qi].Cases {
			c.Queries[qi].Cases[ci].Gold = all
		}
	}
	out := m.sampleNegatives(c, c.Train, 10, rand.New(rand.NewSource(3)))
	if len(out) != 0 {
		t.Errorf("drew %d negatives from a corpus with no out-of-lineage facts", len(out))
	}
}
