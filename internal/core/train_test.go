package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/relation"
	"repro/internal/tokenizer"
)

// TestTrainBatchedParity is the end-to-end bit-identity test for mini-batch
// training: at every mini-batch size, Train must produce bitwise-identical
// final weights and a byte-for-byte identical TrainReport (per-epoch dev MSE
// and NDCG curves included) for every worker count. A batch of 1 leaves
// workers idle; 7 and 12 spread slots unevenly over 4 workers and leave a
// trailing partial batch of at least 3 samples in both phases (32 pairs, 80
// samples), so slot-to-worker assignment and the slot-order merge of partial
// batches are both exercised. MLM is enabled so the pre-drawn masked-token
// replacement and the vocab-head gradients are exercised too.
func TestTrainBatchedParity(t *testing.T) {
	cfg := tinyConfig()
	cfg.MLMWeight = 0.1
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

// mlmFixture builds a model plus a packed two-query sequence for MLM tests.
func mlmFixture(t *testing.T) (*Model, tokenizer.Packed) {
	t.Helper()
	c, _ := tinyCorpus(t)
	cfg := tinyConfig()
	cfg.MLMWeight = 0.1
	tok := buildVocabulary(c, cfg)
	m := newModel(cfg, tok, rand.New(rand.NewSource(cfg.Seed)))
	p := m.tok.Pack(cfg.MaxSeqLen, 2, tokenizer.TokenizeSQL(c.Queries[0].SQL), tokenizer.TokenizeSQL(c.Queries[1].SQL))
	return m, p
}

func TestDrawMLMMaskDeterministic(t *testing.T) {
	m, p := mlmFixture(t)
	pos1, tgt1, rep1 := m.drawMLMMask(p, rand.New(rand.NewSource(7)))
	pos2, tgt2, rep2 := m.drawMLMMask(p, rand.New(rand.NewSource(7)))
	if !reflect.DeepEqual(pos1, pos2) || !reflect.DeepEqual(tgt1, tgt2) || !reflect.DeepEqual(rep1, rep2) {
		t.Errorf("same seed drew different plans:\n(%v %v %v)\n(%v %v %v)", pos1, tgt1, rep1, pos2, tgt2, rep2)
	}
	pos3, _, _ := m.drawMLMMask(p, rand.New(rand.NewSource(8)))
	if reflect.DeepEqual(pos1, pos3) && len(pos1) > 0 {
		t.Log("different seeds drew the same positions (possible, but suspicious for long sequences)")
	}
}

// TestDrawMLMMaskSkipsSpecialTokens asserts over many seeds that no selected
// position is padding, [CLS] or [SEP], and that targets record the original
// token at each position.
func TestDrawMLMMaskSkipsSpecialTokens(t *testing.T) {
	m, p := mlmFixture(t)
	selected := 0
	for seed := int64(0); seed < 100; seed++ {
		positions, targets, replacements := m.drawMLMMask(p, rand.New(rand.NewSource(seed)))
		if len(positions) != len(targets) || len(positions) != len(replacements) {
			t.Fatalf("seed %d: mismatched plan lengths %d/%d/%d", seed, len(positions), len(targets), len(replacements))
		}
		for i, pos := range positions {
			if pos < 0 || pos >= len(p.Tokens) {
				t.Fatalf("seed %d: position %d out of range", seed, pos)
			}
			if !p.Mask[pos] {
				t.Errorf("seed %d: selected padding position %d", seed, pos)
			}
			switch p.Tokens[pos] {
			case tokenizer.ClsID, tokenizer.SepID, tokenizer.PadID:
				t.Errorf("seed %d: selected special token %d at %d", seed, p.Tokens[pos], pos)
			}
			if targets[i] != p.Tokens[pos] {
				t.Errorf("seed %d: target %d != original token %d", seed, targets[i], p.Tokens[pos])
			}
			selected++
		}
	}
	if selected == 0 {
		t.Fatal("no position was ever selected; fixture too short for the 15% rate")
	}
}

// TestDrawMLMMaskReplacementBuckets asserts the BERT corruption buckets: every
// replacement is [MASK], a valid vocabulary token, or -1 (keep), all three
// buckets occur across seeds, and masking dominates (the 80/10/10 split).
func TestDrawMLMMaskReplacementBuckets(t *testing.T) {
	m, p := mlmFixture(t)
	masked, random, kept := 0, 0, 0
	for seed := int64(0); seed < 200; seed++ {
		_, _, replacements := m.drawMLMMask(p, rand.New(rand.NewSource(seed)))
		for _, r := range replacements {
			switch {
			case r == tokenizer.MaskID:
				masked++
			case r == -1:
				kept++
			case r >= 0 && r < m.tok.VocabSize():
				random++
			default:
				t.Fatalf("replacement %d is neither [MASK], -1 nor a vocab ID", r)
			}
		}
	}
	if masked == 0 || random == 0 || kept == 0 {
		t.Fatalf("not all buckets drawn: mask=%d random=%d keep=%d", masked, random, kept)
	}
	if masked <= random || masked <= kept {
		t.Errorf("masking must dominate (80%% bucket): mask=%d random=%d keep=%d", masked, random, kept)
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
