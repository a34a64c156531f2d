// Command learnshap trains and evaluates LearnShapley over a synthetic
// DBShap-style corpus:
//
//	learnshap -db academic -model base          # train + evaluate on test
//	learnshap -db imdb -model large -explain 0  # also rank one test case
//	learnshap -dim 8 -layers 1 -epochs 1 -samples 40 -pepochs 1 -ppairs 16  # tiny schedule
//
// Baseline comparisons (Nearest Queries with each similarity metric) are
// printed next to the model so a single invocation reproduces one database's
// column of the paper's Table 3. The corpus flags, and the corpus build
// behind them, are the ones cmd/serve uses; the model flags and the
// load-or-train step come from the same package (cmd/internal/pipeline). The
// test-split table is experiments.Evaluate's, identical at every -workers.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/cmd/internal/pipeline"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() {
	pf := pipeline.AddFlags(flag.CommandLine, "academic", 36, 10)
	explain := flag.Int("explain", -1, "test case index to print a full ranking for")
	o := obs.AddFlags(flag.CommandLine)
	pipeline.Parse()

	rn := o.Start("learnshap")
	defer finish(rn)
	corpus, sims, model, err := pf.Build(rn)
	if err != nil {
		log.Fatal(err)
	}

	evalDone := obs.Span("evaluate")
	fmt.Printf("\n%-28s %8s %8s %8s %8s\n", "method", "NDCG@10", "p@1", "p@3", "p@5")
	rn.SetQuality("test_ndcg10", printEval(corpus, model, pf.Workers))
	for _, metric := range core.AllMetrics() {
		printEval(corpus, baselines.NewNearestQueries(corpus, sims, metric, 3, nil), pf.Workers)
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

// printEval prints one row of the test-split table and returns its NDCG@10.
func printEval(c *dataset.Corpus, r core.Ranker, workers int) float64 {
	res := experiments.Evaluate(c, r, c.Test, 0, workers)
	fmt.Printf("%-28s %8.3f %8.3f %8.3f %8.3f\n", res.Method, res.NDCG10, res.P1, res.P3, res.P5)
	return res.NDCG10
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
