package core

import (
	"repro/internal/dataset"
	"repro/internal/nn"
)

// Packed batched training (ModelConfig.TrainBatch > 0): each optimizer
// mini-batch is split into chunks of up to TrainBatch samples, and every chunk
// runs as one nn.(*Encoder).BatchedStep over the packed [ΣT×Dim]
// representation — the same full-MaxSeqLen padded sequences the replica path
// feeds to per-sample Forward/Backward calls, so every activation and gradient
// row matches bitwise. The loss-gradient fill mirrors the per-sample step
// exactly: per sequence, each head reads its [CLS] row via ForwardAt and its
// gradient is written into the sequence's grad window with the replica's
// copy-then-add chain ("total = g" alias for the first head, AddInPlace for
// the rest). Head and encoder parameter gradients land in the primary's
// accumulators in slot order, which is the order Params.AddGradsFrom merges
// replicas, so trained weights, loss curves and dev metrics are bit-identical
// to the replica path for every TrainBatch and worker count
// (TestTrainBatchedParity).

// growTrainBufs sizes the packed slot buffers for a chunk of n sequences.
func (m *Model) growTrainBufs(n int) {
	for len(m.trainToks) < n {
		m.trainToks = append(m.trainToks, nil)
		m.trainSegs = append(m.trainSegs, nil)
		m.trainMasks = append(m.trainMasks, nil)
	}
}

// addWindow folds one head's gradient into a sequence's packed grad window,
// replaying the replica step's accumulation chain: the first head's gradient
// initializes the window (the replica aliases it as "total"), later heads add
// element-wise (AddInPlace). Returns false once the window is initialized.
func addWindow(win []float64, g *nn.Mat, first bool) bool {
	if first {
		copy(win, g.Data)
		return false
	}
	for j, v := range g.Data {
		win[j] += v
	}
	return false
}

// pretrainStepBatched is the packed equivalent of one optimizer batch of
// pretrainStep calls: chunks of up to TrainBatch draws per packed encoder
// pass, sample losses written to the draw's slot in lossBuf (nil when metrics
// are off).
func (m *Model) pretrainStepBatched(c *dataset.Corpus, sims *dataset.SimilarityCache, batch []pretrainDraw, lossBuf []float64) {
	tb := m.Cfg.TrainBatch
	for start := 0; start < len(batch); start += tb {
		end := min(start+tb, len(batch))
		m.pretrainChunk(c, sims, batch[start:end], lossBuf, start)
	}
}

// pretrainChunk packs one chunk of pre-training draws ([CLS] qa [SEP] qb
// [SEP], padded, MLM replacements applied) and runs a single BatchedStep.
func (m *Model) pretrainChunk(c *dataset.Corpus, sims *dataset.SimilarityCache, chunk []pretrainDraw, lossBuf []float64, slot0 int) {
	m.growTrainBufs(len(chunk))
	for i, d := range chunk {
		p := m.tok.Pack(m.Cfg.MaxSeqLen, 2, m.tokensForQuery(c, d.qa), m.tokensForQuery(c, d.qb))
		for j, pos := range d.mlmPositions {
			if d.mlmTokens[j] >= 0 {
				p.Tokens[pos] = d.mlmTokens[j]
			}
		}
		m.trainToks[i], m.trainSegs[i], m.trainMasks[i] = p.Tokens, p.Segments, p.Mask
	}
	m.enc.BatchedStep(m.trainToks[:len(chunk)], m.trainSegs[:len(chunk)], m.trainMasks[:len(chunk)],
		func(hidden *nn.Mat, offs []int, grad *nn.Mat) {
			d := hidden.Cols
			for i := range chunk {
				off, seq := offs[i], len(m.trainToks[i])
				win := grad.Data[off*d : (off+seq)*d]
				loss, first := 0.0, true
				for _, metric := range m.Cfg.PretrainMetrics {
					head := m.simHeads[metric]
					pred := head.ForwardAt(hidden, off)
					diff := pred - sims.ByMetric(metric)(chunk[i].qa, chunk[i].qb)
					loss += diff * diff
					first = addWindow(win, head.Backward(2*diff, seq, d), first)
				}
				if m.mlmHead != nil && len(chunk[i].mlmPositions) > 0 {
					// Window view keeps the pre-drawn MLM positions sample-local.
					hv := nn.Mat{Rows: seq, Cols: d, Data: hidden.Data[off*d : (off+seq)*d]}
					mlmLoss, g := m.mlmHead.LossAndBackward(&hv, chunk[i].mlmPositions, chunk[i].mlmTargets)
					loss += m.Cfg.MLMWeight * mlmLoss
					g.Scale(m.Cfg.MLMWeight)
					first = addWindow(win, g, first)
				}
				if lossBuf != nil {
					lossBuf[slot0+i] = loss
				}
			}
		})
}

// finetuneStepBatched is the packed equivalent of one optimizer batch of
// finetuneStep calls over schedule indices into pool.
func (m *Model) finetuneStepBatched(c *dataset.Corpus, pool []finetuneSample, batch []int, cfg ModelConfig, lossBuf []float64) {
	tb := cfg.TrainBatch
	for start := 0; start < len(batch); start += tb {
		end := min(start+tb, len(batch))
		m.finetuneChunk(c, pool, batch[start:end], cfg, lossBuf, start)
	}
}

// finetuneChunk packs one chunk of (q, t, f) samples and runs a single
// BatchedStep with the Shapley head's squared-loss gradient.
func (m *Model) finetuneChunk(c *dataset.Corpus, pool []finetuneSample, chunk []int, cfg ModelConfig, lossBuf []float64, slot0 int) {
	m.growTrainBufs(len(chunk))
	for i, si := range chunk {
		sm := pool[si]
		p := m.tok.Pack(m.Cfg.MaxSeqLen, 3,
			m.tokensForQuery(c, sm.query),
			m.tokensForTuple(c, sm.query, sm.caseI),
			m.tokensForFact(c.DB, sm.fact, c.DB.Fact(sm.fact)))
		m.trainToks[i], m.trainSegs[i], m.trainMasks[i] = p.Tokens, p.Segments, p.Mask
	}
	m.enc.BatchedStep(m.trainToks[:len(chunk)], m.trainSegs[:len(chunk)], m.trainMasks[:len(chunk)],
		func(hidden *nn.Mat, offs []int, grad *nn.Mat) {
			d := hidden.Cols
			for i, si := range chunk {
				sm := pool[si]
				off, seq := offs[i], len(m.trainToks[i])
				pred := m.shapHead.ForwardAt(hidden, off)
				diff := pred - sm.gold*cfg.TargetScale
				g := m.shapHead.Backward(2*diff, seq, d)
				copy(grad.Data[off*d:(off+seq)*d], g.Data)
				if lossBuf != nil {
					lossBuf[slot0+i] = diff * diff
				}
			}
		})
}
