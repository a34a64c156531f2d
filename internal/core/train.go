package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/relation"
	"repro/internal/shapley"
	"repro/internal/tokenizer"
)

// TrainReport records training progress and the selected checkpoints.
type TrainReport struct {
	PretrainDevMSE  []float64 // per-epoch dev MSE on the similarity heads
	BestPretrainMSE float64
	FinetuneDevNDCG []float64 // per-epoch dev NDCG@10
	BestDevNDCG     float64
	NumWeights      int
}

// Train runs the full LearnShapley recipe over a corpus: vocabulary building,
// similarity pre-training (if configured), Shapley fine-tuning, and dev-set
// checkpoint selection at both stages. trainIdx defaults to corpus.Train; a
// subset enables the varying-log-size study of Section 5.6.
//
// Training is data-parallel across cfg.Workers goroutines yet bit-identical
// for every worker count: all RNG decisions (pair draws, MLM masks, sample
// schedules) are pre-drawn on the main goroutine in the serial order, each
// mini-batch sample computes its gradient on its own model replica, and the
// per-sample gradients are summed in sample order before each optimizer step.
func Train(c *dataset.Corpus, sims *dataset.SimilarityCache, cfg ModelConfig, trainIdx []int) (*Model, *TrainReport, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	if trainIdx == nil {
		trainIdx = c.Train
	}
	if len(trainIdx) == 0 {
		return nil, nil, fmt.Errorf("core: empty training split")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	done := obs.Span("core.train:" + cfg.Name)
	defer done()
	sub := &dataset.Corpus{Config: c.Config, DB: c.DB, Queries: c.Queries, Train: trainIdx, Dev: c.Dev, Test: c.Test}
	vocabDone := obs.Span("vocabulary")
	tok := buildVocabulary(sub, cfg)
	vocabDone()
	m := newModel(cfg, tok, rng)
	m.trainDB = c.DB
	report := &TrainReport{NumWeights: m.params.NumWeights()}
	obs.Metrics().Gauge("core.model.num_weights").Set(float64(report.NumWeights))

	if len(cfg.PretrainMetrics) > 0 && cfg.PretrainEpochs > 0 {
		// Rank-based similarity is by far the most expensive metric; compute
		// every pair the pre-training loop can touch up front, across workers,
		// instead of lazily on the training critical path.
		simsDone := obs.Span("sims.precompute")
		idx := append(append([]int(nil), trainIdx...), c.Dev...)
		sims.Precompute(cfg.Workers, idx, cfg.PretrainMetrics...)
		simsDone()
		if err := m.pretrain(c, sims, cfg, trainIdx, rng, report); err != nil {
			return nil, nil, err
		}
	}
	if err := m.finetune(c, cfg, trainIdx, rng, report); err != nil {
		return nil, nil, err
	}
	return m, report, nil
}

// stageObs is the per-stage training instrumentation: per-epoch series for
// the loss, dev-quality, gradient-norm, and throughput curves of the run
// manifest. The zero value (metrics off) records nothing and costs only
// nil checks; with a live registry the extra work is bounded per optimizer
// step and never touches the model, the RNG, or any training arithmetic, so
// instrumented runs stay bit-identical to no-op runs (the contract
// TestInstrumentationParity pins).
type stageObs struct {
	loss, dev, gradNorm, rate *obs.Series
	lossBuf                   []float64 // per-slot sample losses of one batch
	epochLoss                 float64
	gradSum                   float64
	gradSteps                 int
	epochStart                time.Time
}

// newStageObs resolves the series handles of one training stage ("pretrain"
// or "finetune"); devName is the stage's dev-selection metric.
func newStageObs(stage, devName string, batch int) *stageObs {
	reg := obs.Metrics()
	s := &stageObs{
		loss:     reg.Series("core." + stage + ".loss"),
		dev:      reg.Series("core." + stage + "." + devName),
		gradNorm: reg.Series("core." + stage + ".grad_norm"),
		rate:     reg.Series("core." + stage + ".examples_per_sec"),
	}
	if reg != nil {
		s.lossBuf = make([]float64, batch)
	}
	return s
}

// enabled reports whether the stage records anything.
func (s *stageObs) enabled() bool { return s.lossBuf != nil }

// beginEpoch resets the per-epoch accumulators.
func (s *stageObs) beginEpoch() {
	if !s.enabled() {
		return
	}
	s.epochLoss, s.gradSum, s.gradSteps = 0, 0, 0
	s.epochStart = time.Now()
}

// observeStep folds one optimizer step into the epoch: the batch's sample
// losses (already written into lossBuf slots) and the merged gradient norm.
func (s *stageObs) observeStep(ps *nn.Params, batchLen int) {
	if !s.enabled() {
		return
	}
	for i := 0; i < batchLen; i++ {
		s.epochLoss += s.lossBuf[i]
	}
	sumSq := 0.0
	for _, p := range ps.All() {
		for _, g := range p.G {
			sumSq += g * g
		}
	}
	s.gradSum += math.Sqrt(sumSq)
	s.gradSteps++
}

// endEpoch appends the epoch's points: mean sample loss, dev metric, mean
// per-step gradient norm, and examples per second.
func (s *stageObs) endEpoch(devMetric float64, examples int) {
	if !s.enabled() {
		return
	}
	if examples > 0 {
		s.loss.Append(s.epochLoss / float64(examples))
	}
	s.dev.Append(devMetric)
	if s.gradSteps > 0 {
		s.gradNorm.Append(s.gradSum / float64(s.gradSteps))
	}
	if sec := time.Since(s.epochStart).Seconds(); sec > 0 {
		s.rate.Append(float64(examples) / sec)
	}
}

// replicaSlots builds the per-sample gradient shards of a training run: one
// model replica per mini-batch slot. Slot i always processes the i-th sample
// of a batch and its gradients are merged in slot order, which makes the
// floating-point reduction independent of the worker count.
func (m *Model) replicaSlots(n int) []*Model {
	if n < 1 {
		n = 1
	}
	reps := make([]*Model, n)
	for i := range reps {
		reps[i] = m.CloneForWorker()
	}
	return reps
}

// batchSize resolves cfg.BatchSize against an epoch length: non-positive
// values mean one optimizer step per epoch.
func batchSize(cfg ModelConfig, steps int) int {
	if cfg.BatchSize > 0 {
		return cfg.BatchSize
	}
	if steps < 1 {
		return 1
	}
	return steps
}

// pretrainDraw is one pre-training step with every random decision already
// made: the query pair plus the MLM mask plan (when the MLM objective is on).
// Workers consume draws without touching any RNG.
type pretrainDraw struct {
	qa, qb       int
	mlmPositions []int
	mlmTargets   []int
	mlmTokens    []int // replacement written at mlmPositions[i]; -1 keeps the token
}

// pretrain optimizes the similarity heads on random train-train query pairs,
// keeping the snapshot with the lowest dev MSE (dev pairs are train×dev).
// Mini-batches are data-parallel over per-slot replicas.
func (m *Model) pretrain(c *dataset.Corpus, sims *dataset.SimilarityCache, cfg ModelConfig,
	trainIdx []int, rng *rand.Rand, report *TrainReport) error {
	stageDone := obs.Span("core.pretrain")
	defer stageDone()
	opt := nn.NewAdam(m.params, cfg.PretrainLR)
	bs := batchSize(cfg, cfg.PretrainPairsPerEpoch)
	reps := m.replicaSlots(min(bs, cfg.PretrainPairsPerEpoch))
	so := newStageObs("pretrain", "dev_mse", bs)
	var mPairs *obs.Counter
	if reg := obs.Metrics(); reg != nil {
		mPairs = reg.Counter("core.pretrain.pairs")
	}
	best := -1.0
	var bestSnap [][]float64
	for epoch := 0; epoch < cfg.PretrainEpochs; epoch++ {
		epochDone := obs.Span(fmt.Sprintf("epoch %d", epoch))
		so.beginEpoch()
		// Pre-draw the epoch's pairs and MLM masks serially from the main
		// RNG, in the exact order the serial implementation consumed it.
		draws := make([]pretrainDraw, cfg.PretrainPairsPerEpoch)
		for s := range draws {
			d := pretrainDraw{
				qa: trainIdx[rng.Intn(len(trainIdx))],
				qb: trainIdx[rng.Intn(len(trainIdx))],
			}
			if m.mlmHead != nil {
				p := m.tok.Pack(m.Cfg.MaxSeqLen, 2, tokenizer.TokenizeSQL(c.Queries[d.qa].SQL), tokenizer.TokenizeSQL(c.Queries[d.qb].SQL))
				d.mlmPositions, d.mlmTargets, d.mlmTokens = m.drawMLMMask(p, rng)
			}
			draws[s] = d
		}
		for start := 0; start < len(draws); start += bs {
			end := min(start+bs, len(draws))
			batch := draws[start:end]
			parallel.ForEach(cfg.Workers, len(batch), func(i int) {
				loss := reps[i].pretrainStep(c, sims, batch[i])
				if so.lossBuf != nil {
					so.lossBuf[i] = loss
				}
			})
			for i := range batch {
				m.params.AddGradsFrom(reps[i].params)
			}
			mPairs.Add(int64(len(batch)))
			so.observeStep(m.params, len(batch))
			opt.Step(len(batch))
		}
		mse := m.pretrainDevMSE(c, sims, cfg, trainIdx, rng, reps)
		report.PretrainDevMSE = append(report.PretrainDevMSE, mse)
		so.endEpoch(mse, len(draws))
		epochDone()
		if best < 0 || mse < best {
			best = mse
			// Reuses the persistent snapshot buffer: improving epochs overwrite
			// it in place instead of allocating a fresh weight copy.
			bestSnap = m.params.SnapshotInto(bestSnap)
		}
	}
	if bestSnap != nil {
		m.params.Restore(bestSnap)
	}
	report.BestPretrainMSE = best
	return nil
}

// pretrainStep accumulates gradients of the multi-head similarity loss
// ℓ = Σ_metric (pred - sim_metric)² with equal weights (the paper found
// α=β=γ equal weights best), plus the optional weighted MLM objective.
func (m *Model) pretrainStep(c *dataset.Corpus, sims *dataset.SimilarityCache, d pretrainDraw) float64 {
	p := m.tok.Pack(m.Cfg.MaxSeqLen, 2, tokenizer.TokenizeSQL(c.Queries[d.qa].SQL), tokenizer.TokenizeSQL(c.Queries[d.qb].SQL))
	for i, pos := range d.mlmPositions {
		if d.mlmTokens[i] >= 0 {
			p.Tokens[pos] = d.mlmTokens[i]
		}
	}
	hidden := m.enc.Forward(p.Tokens, p.Segments, p.Mask)
	loss := 0.0
	var total *nn.Mat
	for _, metric := range m.Cfg.PretrainMetrics {
		head := m.simHeads[metric]
		pred := head.Forward(hidden)
		target := sims.ByMetric(metric)(d.qa, d.qb)
		diff := pred - target
		loss += diff * diff
		g := head.Backward(2*diff, hidden.Rows, hidden.Cols)
		if total == nil {
			total = g
		} else {
			total.AddInPlace(g)
		}
	}
	if m.mlmHead != nil && len(d.mlmPositions) > 0 {
		mlmLoss, g := m.mlmHead.LossAndBackward(hidden, d.mlmPositions, d.mlmTargets)
		loss += m.Cfg.MLMWeight * mlmLoss
		g.Scale(m.Cfg.MLMWeight)
		if total == nil {
			total = g
		} else {
			total.AddInPlace(g)
		}
	}
	if total != nil {
		m.enc.Backward(total)
	}
	return loss
}

// drawMLMMask plans a BERT-style corruption of the packed sequence: 15% of
// real, non-special positions are selected; of those, 80% become [MASK], 10%
// a random vocabulary token, 10% stay unchanged. It returns the selected
// positions, their original token IDs as prediction targets, and the
// replacement token per position (-1 = keep). Only the plan is produced —
// workers apply it to their own packed copy, keeping all RNG consumption on
// the main goroutine.
func (m *Model) drawMLMMask(p tokenizer.Packed, rng *rand.Rand) (positions, targets, replacements []int) {
	for i, tok := range p.Tokens {
		if !p.Mask[i] || tok == tokenizer.ClsID || tok == tokenizer.SepID || tok == tokenizer.PadID {
			continue
		}
		if rng.Float64() >= 0.15 {
			continue
		}
		positions = append(positions, i)
		targets = append(targets, tok)
		repl := -1
		switch r := rng.Float64(); {
		case r < 0.8:
			repl = tokenizer.MaskID
		case r < 0.9:
			repl = rng.Intn(m.tok.VocabSize())
		}
		replacements = append(replacements, repl)
	}
	return positions, targets, replacements
}

// pretrainDevMSE measures the mean squared similarity error on a sample of
// train×dev pairs. Pairs are pre-drawn serially, scored across workers on the
// replica pool, and reduced in pair order.
func (m *Model) pretrainDevMSE(c *dataset.Corpus, sims *dataset.SimilarityCache, cfg ModelConfig,
	trainIdx []int, rng *rand.Rand, reps []*Model) float64 {
	if len(c.Dev) == 0 {
		return 0
	}
	const samplePairs = 60
	pairs := make([][2]int, samplePairs)
	for s := range pairs {
		pairs[s] = [2]int{trainIdx[rng.Intn(len(trainIdx))], c.Dev[rng.Intn(len(c.Dev))]}
	}
	workers := min(parallel.Workers(cfg.Workers), len(reps))
	perPair := make([]float64, len(pairs))
	parallel.ForEachWorker(workers, len(pairs), func(w, s int) {
		r := reps[w]
		p := r.tok.Pack(r.Cfg.MaxSeqLen, 2, tokenizer.TokenizeSQL(c.Queries[pairs[s][0]].SQL), tokenizer.TokenizeSQL(c.Queries[pairs[s][1]].SQL))
		hidden := r.enc.Forward(p.Tokens, p.Segments, p.Mask)
		for _, metric := range r.Cfg.PretrainMetrics {
			pred := r.simHeads[metric].Forward(hidden)
			diff := pred - sims.ByMetric(metric)(pairs[s][0], pairs[s][1])
			perPair[s] += diff * diff
		}
	})
	total, count := 0.0, 0
	for _, v := range perPair {
		total += v
		count += len(m.Cfg.PretrainMetrics)
	}
	if count == 0 {
		return 0
	}
	return total / float64(count)
}

// finetuneSample is one (query, tuple, fact, target) training example.
type finetuneSample struct {
	query int
	caseI int
	fact  relation.FactID
	gold  float64
}

// finetune optimizes the Shapley head on (q, t, f) triples, keeping the
// snapshot with the highest dev NDCG@10. The sample schedule is pre-drawn
// per epoch; mini-batches are data-parallel over per-slot replicas.
func (m *Model) finetune(c *dataset.Corpus, cfg ModelConfig, trainIdx []int, rng *rand.Rand, report *TrainReport) error {
	// Materialize the sample pool once.
	var pool []finetuneSample
	for _, qi := range trainIdx {
		for ci, cs := range c.Queries[qi].Cases {
			ids := make([]relation.FactID, 0, len(cs.Gold))
			for id := range cs.Gold {
				ids = append(ids, id)
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			for _, id := range ids {
				pool = append(pool, finetuneSample{query: qi, caseI: ci, fact: id, gold: cs.Gold[id]})
			}
		}
	}
	if len(pool) == 0 {
		return fmt.Errorf("core: no fine-tuning samples")
	}
	// Future-work extension: negative samples pair a case with a fact outside
	// its lineage and a target of 0, teaching the model the contributing /
	// non-contributing boundary the published system lacks.
	if cfg.NegativeSamplesPerEpoch > 0 {
		negatives := m.sampleNegatives(c, trainIdx, cfg.NegativeSamplesPerEpoch*cfg.FinetuneEpochs, rng)
		pool = append(pool, negatives...)
	}
	stageDone := obs.Span("core.finetune")
	defer stageDone()
	opt := nn.NewAdam(m.params, cfg.FinetuneLR)
	steps := cfg.FinetuneSamplesPerEpoch
	bs := batchSize(cfg, steps)
	reps := m.replicaSlots(min(bs, steps))
	so := newStageObs("finetune", "dev_ndcg10", bs)
	best := -1.0
	var bestSnap [][]float64
	for epoch := 0; epoch < cfg.FinetuneEpochs; epoch++ {
		epochDone := obs.Span(fmt.Sprintf("epoch %d", epoch))
		so.beginEpoch()
		// Shuffled passes over the pool (rather than i.i.d. draws) so every
		// (q, t, f) sample is visited with equal frequency; the ranking task
		// is about relative order within a case, which uneven sampling
		// distorts. The schedule is pre-drawn with the serial draw order.
		order := rng.Perm(len(pool))
		schedule := make([]int, steps)
		for s := 0; s < steps; s++ {
			schedule[s] = order[s%len(order)]
			if s > 0 && s%len(order) == 0 {
				order = rng.Perm(len(pool))
			}
		}
		for start := 0; start < steps; start += bs {
			end := min(start+bs, steps)
			batch := schedule[start:end]
			parallel.ForEach(cfg.Workers, len(batch), func(i int) {
				loss := reps[i].finetuneStep(c, pool[batch[i]], cfg)
				if so.lossBuf != nil {
					so.lossBuf[i] = loss
				}
			})
			for i := range batch {
				m.params.AddGradsFrom(reps[i].params)
			}
			so.observeStep(m.params, len(batch))
			opt.Step(len(batch))
		}
		ndcg := m.devNDCG(c, cfg.Workers, reps)
		report.FinetuneDevNDCG = append(report.FinetuneDevNDCG, ndcg)
		so.endEpoch(ndcg, steps)
		epochDone()
		// >= so that ties keep the most-trained weights; dev sets can
		// saturate NDCG early while test quality still improves.
		if ndcg >= best {
			best = ndcg
			bestSnap = m.params.SnapshotInto(bestSnap)
		}
	}
	if bestSnap != nil {
		m.params.Restore(bestSnap)
	}
	report.BestDevNDCG = best
	return nil
}

// finetuneStep accumulates the squared-loss gradient of one (q, t, f) sample
// into the model's (or replica's) accumulators, returning the sample loss.
func (m *Model) finetuneStep(c *dataset.Corpus, sm finetuneSample, cfg ModelConfig) float64 {
	q := c.Queries[sm.query]
	p := m.tok.Pack(m.Cfg.MaxSeqLen, 3,
		tokenizer.TokenizeSQL(q.SQL),
		tokenizer.TokenizeValues(q.Cases[sm.caseI].Tuple.Values),
		tokenizer.TokenizeFact(c.DB.Fact(sm.fact)))
	hidden := m.enc.Forward(p.Tokens, p.Segments, p.Mask)
	pred := m.shapHead.Forward(hidden)
	diff := pred - sm.gold*cfg.TargetScale
	g := m.shapHead.Backward(2*diff, hidden.Rows, hidden.Cols)
	m.enc.Backward(g)
	return diff * diff
}

// sampleNegatives draws (case, non-lineage fact) pairs with target 0.
func (m *Model) sampleNegatives(c *dataset.Corpus, trainIdx []int, count int, rng *rand.Rand) []finetuneSample {
	var out []finetuneSample
	for attempts := 0; len(out) < count && attempts < count*20; attempts++ {
		qi := trainIdx[rng.Intn(len(trainIdx))]
		cases := c.Queries[qi].Cases
		if len(cases) == 0 {
			continue
		}
		ci := rng.Intn(len(cases))
		id := relation.FactID(rng.Intn(c.DB.NumFacts()))
		if _, inLineage := cases[ci].Gold[id]; inLineage {
			continue
		}
		out = append(out, finetuneSample{query: qi, caseI: ci, fact: id, gold: 0})
	}
	return out
}

// devNDCG evaluates mean NDCG@10 over the dev cases, ranking cases across
// workers on the replica pool (weights are read-only at inference) and
// averaging the scores in case order.
func (m *Model) devNDCG(c *dataset.Corpus, cfgWorkers int, reps []*Model) float64 {
	type ref struct{ qi, ci int }
	var refs []ref
	for _, qi := range c.Dev {
		for ci := range c.Queries[qi].Cases {
			refs = append(refs, ref{qi, ci})
		}
	}
	workers := min(parallel.Workers(cfgWorkers), len(reps))
	scores := make([]float64, len(refs))
	parallel.ForEachWorker(workers, len(refs), func(w, i int) {
		cs := c.Queries[refs[i].qi].Cases[refs[i].ci]
		pred := reps[w].RankCase(c, refs[i].qi, cs)
		scores[i] = metrics.NDCGAtK(pred, cs.Gold, 10)
	})
	return metrics.Mean(scores)
}

// RankCase ranks the lineage of a labeled corpus case.
func (m *Model) RankCase(c *dataset.Corpus, qi int, cs dataset.Case) shapley.Values {
	in := Input{
		SQL:         c.Queries[qi].SQL,
		Query:       c.Queries[qi].Query,
		TupleValues: cs.Tuple.Values,
		Lineage:     cs.Tuple.Lineage(),
	}
	return m.Rank(in)
}
