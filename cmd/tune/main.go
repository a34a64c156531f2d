// Command tune is a development harness for calibrating LearnShapley's
// training schedule: it trains configurable model variants on one corpus and
// prints test metrics next to the Nearest Queries baselines.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/obs"
)

func main() {
	kindFlag := flag.String("db", "academic", "imdb or academic")
	queries := flag.Int("queries", 36, "queries in the corpus")
	cases := flag.Int("cases", 10, "labeled cases per query")
	epochs := flag.Int("epochs", 6, "fine-tune epochs")
	samples := flag.Int("samples", 2000, "fine-tune samples per epoch")
	lr := flag.Float64("lr", 2e-3, "fine-tune learning rate")
	dim := flag.Int("dim", 32, "model dim")
	layers := flag.Int("layers", 2, "encoder layers")
	pretrain := flag.Bool("pretrain", true, "run similarity pre-training")
	plr := flag.Float64("plr", 2e-3, "pre-training learning rate")
	pepochs := flag.Int("pepochs", 3, "pre-training epochs")
	ppairs := flag.Int("ppairs", 300, "pre-training pairs per epoch")
	seed := flag.Int64("seed", 11, "model seed")
	workers := flag.Int("workers", 0, "worker goroutines for corpus building and training (0 = one per CPU); results are identical for every value")
	labeler := flag.String("labeler", "exact", "Shapley labeling engine for the corpus: exact or amc")
	labelSamples := flag.Int("label-samples", 0, "permutation budget per lineage for the amc sampler (0 = engine default)")
	labelSeed := flag.Uint64("label-seed", 1, "base seed for the amc sampler")
	o := obs.AddFlags(flag.CommandLine)
	flag.Parse()

	rn := o.Start("tune")
	defer finish(rn)
	rn.SetConfig("db", *kindFlag)
	rn.SetConfig("queries", *queries)
	rn.SetConfig("cases", *cases)
	rn.SetConfig("epochs", *epochs)
	rn.SetConfig("samples", *samples)
	rn.SetConfig("dim", *dim)
	rn.SetConfig("layers", *layers)
	rn.SetConfig("pretrain", *pretrain)
	rn.SetConfig("seed", *seed)
	rn.SetConfig("workers", *workers)
	rn.SetConfig("labeler", *labeler)
	rn.SetConfig("label_samples", *labelSamples)
	rn.SetConfig("label_seed", *labelSeed)

	kind := dataset.Academic
	if *kindFlag == "imdb" {
		kind = dataset.IMDB
	}
	dc := dataset.DefaultConfig(kind)
	dc.NumQueries = *queries
	dc.MaxCasesPerQuery = *cases
	dc.Workers = *workers
	dc.Labeler = *labeler
	dc.LabelSamples = *labelSamples
	dc.LabelSeed = *labelSeed
	start := time.Now()
	c, err := dataset.Build(dc)
	if err != nil {
		log.Fatal(err)
	}
	sims := dataset.NewSimilarityCache(c)
	rn.Log.Infof("corpus: %d queries, built in %v\n", len(c.Queries), time.Since(start).Round(time.Millisecond))

	evalCases := 0
	for _, qi := range c.Test {
		evalCases += len(c.Queries[qi].Cases)
	}
	rn.Log.Infof("test cases: %d\n", evalCases)

	for _, metric := range []string{"syntax", "witness", "rank"} {
		nq := baselines.NewNearestQueries(c, sims, metric, 3, nil)
		report(c, nq, metric)
	}

	cfg := core.BaseConfig()
	cfg.Dim, cfg.Layers = *dim, *layers
	cfg.FFNHidden = 2 * *dim
	cfg.FinetuneEpochs = *epochs
	cfg.FinetuneSamplesPerEpoch = *samples
	cfg.FinetuneLR = *lr
	cfg.Seed = *seed
	cfg.PretrainLR = *plr
	cfg.PretrainEpochs = *pepochs
	cfg.PretrainPairsPerEpoch = *ppairs
	cfg.Workers = *workers
	if !*pretrain {
		cfg.PretrainMetrics = nil
		cfg.PretrainEpochs = 0
	}
	start = time.Now()
	m, rep, err := core.Train(c, sims, cfg, nil)
	if err != nil {
		log.Fatal(err)
	}
	rn.Log.Infof("trained %s (%d weights) in %v; dev NDCG per epoch: %v\n",
		cfg.Name, rep.NumWeights, time.Since(start).Round(time.Millisecond), fmtSlice(rep.FinetuneDevNDCG))
	rn.SetQuality("best_dev_ndcg10", rep.BestDevNDCG)
	rn.SetQuality("test_ndcg10", report(c, m, "model"))
	reportTrain(c, m)
}

// finish flushes the run manifest; a write failure is the only error path.
func finish(rn *obs.Run) {
	if err := rn.Finish(); err != nil {
		log.Fatal(err)
	}
}

func reportTrain(c *dataset.Corpus, m *core.Model) {
	var ndcg, p1 []float64
	n := len(c.Train)
	if n > 8 {
		n = 8
	}
	for _, qi := range c.Train[:n] {
		for _, cs := range c.Queries[qi].Cases {
			pred := m.RankCase(c, qi, cs)
			ndcg = append(ndcg, metrics.NDCGAtK(pred, cs.Gold, 10))
			p1 = append(p1, metrics.PrecisionAtK(pred, cs.Gold, 1))
		}
	}
	fmt.Printf("%-28s NDCG@10 %.3f  p@1 %.3f (memorization check)\n", "train-split", metrics.Mean(ndcg), metrics.Mean(p1))
}

func fmtSlice(xs []float64) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%.3f", x)
	}
	return out
}

func report(c *dataset.Corpus, r core.Ranker, label string) float64 {
	var ndcg, p1, p3, p5 []float64
	for _, qi := range c.Test {
		for _, cs := range c.Queries[qi].Cases {
			in := core.Input{
				SQL:         c.Queries[qi].SQL,
				Query:       c.Queries[qi].Query,
				TupleValues: cs.Tuple.Values,
				Lineage:     cs.Tuple.Lineage(),
				Witness:     c.Queries[qi].Witness,
			}
			pred := r.Rank(in)
			ndcg = append(ndcg, metrics.NDCGAtK(pred, cs.Gold, 10))
			p1 = append(p1, metrics.PrecisionAtK(pred, cs.Gold, 1))
			p3 = append(p3, metrics.PrecisionAtK(pred, cs.Gold, 3))
			p5 = append(p5, metrics.PrecisionAtK(pred, cs.Gold, 5))
		}
	}
	fmt.Printf("%-28s NDCG@10 %.3f  p@1 %.3f  p@3 %.3f  p@5 %.3f\n",
		label+" ("+r.Name()+")", metrics.Mean(ndcg), metrics.Mean(p1), metrics.Mean(p3), metrics.Mean(p5))
	return metrics.Mean(ndcg)
}
