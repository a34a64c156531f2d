// Command learnshap trains and evaluates LearnShapley over a synthetic
// DBShap-style corpus:
//
//	learnshap -db academic -model base          # train + evaluate on test
//	learnshap -db imdb -model large -explain 0  # also rank one test case
//
// Baseline comparisons (Nearest Queries with each similarity metric) are
// printed next to the model so a single invocation reproduces one database's
// column of the paper's Table 3.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/obs"
)

func main() {
	kindFlag := flag.String("db", "academic", "imdb or academic")
	modelFlag := flag.String("model", "base", "base, large, no-pretrain, or small")
	queries := flag.Int("queries", 36, "queries in the corpus")
	cases := flag.Int("cases", 10, "labeled cases per query")
	seed := flag.Int64("seed", 1, "corpus seed")
	explain := flag.Int("explain", -1, "test case index to print a full ranking for")
	savePath := flag.String("save", "", "write the trained model to this file")
	loadPath := flag.String("load", "", "load a trained model instead of training")
	workers := flag.Int("workers", 0, "worker goroutines for corpus building and training (0 = one per CPU); results are identical for every value")
	o := obs.AddFlags(flag.CommandLine)
	flag.Parse()

	rn := o.Start("learnshap")
	defer finish(rn)
	rn.SetConfig("db", *kindFlag)
	rn.SetConfig("model", *modelFlag)
	rn.SetConfig("queries", *queries)
	rn.SetConfig("cases", *cases)
	rn.SetConfig("seed", *seed)
	rn.SetConfig("workers", *workers)

	kind := dataset.Academic
	if *kindFlag == "imdb" {
		kind = dataset.IMDB
	}
	dc := dataset.DefaultConfig(kind)
	dc.Seed = *seed
	dc.NumQueries = *queries
	dc.MaxCasesPerQuery = *cases
	dc.Workers = *workers
	rn.Log.Infof("Building %s corpus (%d queries)...\n", kind, *queries)
	corpus, err := dataset.Build(dc)
	if err != nil {
		log.Fatal(err)
	}
	sims := dataset.NewSimilarityCache(corpus)

	var cfg core.ModelConfig
	switch *modelFlag {
	case "base":
		cfg = core.BaseConfig()
	case "large":
		cfg = core.LargeConfig()
	case "no-pretrain":
		cfg = core.NoPretrainConfig()
	case "small":
		cfg = core.SmallTransformerConfig()
	default:
		log.Fatalf("unknown -model %q", *modelFlag)
	}
	cfg.Workers = *workers

	var model *core.Model
	if *loadPath != "" {
		f, err := os.Open(*loadPath)
		if err != nil {
			log.Fatal(err)
		}
		model, err = core.LoadModel(f, corpus.DB)
		closeErr := f.Close()
		if err != nil {
			log.Fatal(err)
		}
		if closeErr != nil {
			log.Fatal(closeErr)
		}
		rn.Log.Infof("Loaded %s from %s (%d weights)\n", model.Name(), *loadPath, model.NumWeights())
	} else {
		rn.Log.Infof("Training %s...\n", cfg.Name)
		start := time.Now()
		var report *core.TrainReport
		var err error
		model, report, err = core.Train(corpus, sims, cfg, nil)
		if err != nil {
			log.Fatal(err)
		}
		rn.Log.Infof("  %d weights, best dev NDCG@10 %.3f, %v\n",
			report.NumWeights, report.BestDevNDCG, time.Since(start).Round(time.Second))
		rn.SetQuality("best_dev_ndcg10", report.BestDevNDCG)
	}
	if *savePath != "" {
		f, err := os.Create(*savePath)
		if err != nil {
			log.Fatal(err)
		}
		if err := model.Save(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		rn.Log.Infof("Saved model to %s\n", *savePath)
	}

	evalDone := obs.Span("evaluate")
	fmt.Printf("\n%-28s %8s %8s %8s %8s\n", "method", "NDCG@10", "p@1", "p@3", "p@5")
	rn.SetQuality("test_ndcg10", printEval(corpus, model))
	for _, metric := range []string{"syntax", "witness", "rank"} {
		printEval(corpus, baselines.NewNearestQueries(corpus, sims, metric, 3, nil))
	}
	evalDone()

	if *explain >= 0 {
		explainCase(corpus, model, *explain)
	}
}

// finish flushes the run manifest; a write failure is the only error path.
func finish(rn *obs.Run) {
	if err := rn.Finish(); err != nil {
		log.Fatal(err)
	}
}

func printEval(c *dataset.Corpus, r core.Ranker) float64 {
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
	fmt.Printf("%-28s %8.3f %8.3f %8.3f %8.3f\n", r.Name(),
		metrics.Mean(ndcg), metrics.Mean(p1), metrics.Mean(p3), metrics.Mean(p5))
	return metrics.Mean(ndcg)
}

func explainCase(c *dataset.Corpus, m *core.Model, idx int) {
	count := 0
	for _, qi := range c.Test {
		for _, cs := range c.Queries[qi].Cases {
			if count != idx {
				count++
				continue
			}
			fmt.Printf("\nquery: %s\noutput tuple: %s\n", c.Queries[qi].SQL, cs.Tuple)
			pred := m.RankCase(c, qi, cs)
			trueRank := map[int]int{}
			for i, id := range cs.Gold.Ranking() {
				trueRank[int(id)] = i + 1
			}
			fmt.Printf("%-5s %-5s %-55s %10s\n", "pred", "true", "fact", "gold")
			for i, id := range pred.Ranking() {
				fmt.Printf("%-5d %-5d %-55.55s %10.4f\n", i+1, trueRank[int(id)], c.DB.Fact(id).String(), cs.Gold[id])
			}
			return
		}
	}
	fmt.Printf("no test case with index %d\n", idx)
}
