// Command dbshap-gen builds a synthetic DBShap-style corpus (database +
// SPJU workload + exact Shapley labels) and prints its statistics in the
// shape of the paper's Tables 1 and 2. With -sql it also dumps the generated
// workload.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/obs"
)

func main() {
	kindFlag := flag.String("db", "both", "imdb, academic, or both")
	queries := flag.Int("queries", 40, "queries per database")
	cases := flag.Int("cases", 12, "labeled output tuples per query")
	seed := flag.Int64("seed", 1, "generation seed")
	scale := flag.Float64("scale", 1.0, "database size multiplier")
	dumpSQL := flag.Bool("sql", false, "dump the generated workload")
	similarities := flag.Bool("similarities", true, "compute Table 2 split similarities")
	workers := flag.Int("workers", 0, "worker goroutines for corpus building (0 = one per CPU); output is identical for every value")
	labeler := flag.String("labeler", "exact", "Shapley labeling engine: exact, mc, amc, loo, or stratified")
	labelSamples := flag.Int("label-samples", 0, "permutation budget per lineage for sampling labelers (0 = engine default)")
	labelSeed := flag.Uint64("label-seed", 1, "base seed for sampling labelers; corpora are byte-identical for a fixed seed at every -workers")
	labelFallback := flag.String("label-fallback", "mc", "sampler labeling the lineages the exact engine refuses (too large); \"none\" drops them instead")
	export := flag.String("export", "", "write the labeled corpus as JSON to this path (suffixed with the database name when -db both)")
	o := obs.AddFlags(flag.CommandLine)
	flag.Parse()

	rn := o.Start("dbshap-gen")
	defer finish(rn)
	rn.SetConfig("db", *kindFlag)
	rn.SetConfig("queries", *queries)
	rn.SetConfig("cases", *cases)
	rn.SetConfig("seed", *seed)
	rn.SetConfig("scale", *scale)
	rn.SetConfig("workers", *workers)
	rn.SetConfig("labeler", *labeler)
	rn.SetConfig("label_samples", *labelSamples)
	rn.SetConfig("label_seed", *labelSeed)
	rn.SetConfig("label_fallback", *labelFallback)

	kinds := []dataset.Kind{dataset.IMDB, dataset.Academic}
	switch *kindFlag {
	case "imdb":
		kinds = []dataset.Kind{dataset.IMDB}
	case "academic":
		kinds = []dataset.Kind{dataset.Academic}
	case "both":
	default:
		log.Fatalf("unknown -db %q", *kindFlag)
	}

	fmt.Printf("%-10s %-8s %10s %10s %12s\n", "database", "split", "#queries", "#results", "#facts")
	for _, kind := range kinds {
		cfg := dataset.DefaultConfig(kind)
		cfg.Seed = *seed
		cfg.NumQueries = *queries
		cfg.MaxCasesPerQuery = *cases
		cfg.Scale = dataset.Scale{Base: *scale}
		cfg.Workers = *workers
		cfg.Labeler = *labeler
		cfg.LabelSamples = *labelSamples
		cfg.LabelSeed = *labelSeed
		if *labelFallback != "none" {
			cfg.LabelFallback = *labelFallback
		}
		start := time.Now()
		c, err := dataset.Build(cfg)
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		splits := []struct {
			name string
			idx  []int
		}{
			{"train", c.Train}, {"dev", c.Dev}, {"test", c.Test},
		}
		for _, sp := range splits {
			st := c.Stats(sp.idx)
			fmt.Printf("%-10s %-8s %10d %10d %12d\n", kind, sp.name, st.Queries, st.Results, st.Facts)
		}
		rn.Log.Infof("%-10s built in %v (%d database facts)\n", kind, elapsed.Round(time.Millisecond), c.DB.NumFacts())

		// Labeling summary: what the configured engine labeled, what fell back,
		// and what was dropped as too large — printed and recorded in the run
		// manifest so corpus provenance survives the console.
		ls := c.Labels
		fmt.Printf("%-10s labeling engine=%s labeled=%d (exact=%d sampled=%d fallbacks=%d) skipped-too-large=%d\n",
			kind, *labeler, ls.Labeled, ls.Exact, ls.Sampled, ls.Fallback, ls.Skipped)
		kindKey := strings.ToLower(kind.String())
		rn.SetConfig("label_summary_"+kindKey, map[string]int{
			"labeled": ls.Labeled, "exact": ls.Exact, "sampled": ls.Sampled,
			"fallbacks": ls.Fallback, "skipped_too_large": ls.Skipped,
		})

		if *export != "" {
			path := *export
			if len(kinds) > 1 {
				path += "." + kindKey
			}
			if err := writeCorpus(c, path); err != nil {
				log.Fatal(err)
			}
			rn.Log.Infof("%-10s corpus exported to %s\n", kind, path)
		}

		if *similarities {
			sims := dataset.NewSimilarityCache(c)
			// Fill the cache across workers before the serial averaging pass.
			all := append(append(append([]int(nil), c.Train...), c.Dev...), c.Test...)
			sims.Precompute(*workers, all)
			fmt.Printf("\n%-10s %-14s %12s %12s %12s\n", "database", "metric", "train-train", "train-dev", "train-test")
			for _, metric := range []string{"syntax", "witness", "rank"} {
				f := sims.ByMetric(metric)
				avg := func(a, b []int) float64 {
					total, n := 0.0, 0
					for _, i := range a {
						for _, j := range b {
							if i != j {
								total += f(i, j)
								n++
							}
						}
					}
					if n == 0 {
						return 0
					}
					return total / float64(n)
				}
				fmt.Printf("%-10s %-14s %12.4f %12.4f %12.4f\n", kind, metric,
					avg(c.Train, c.Train), avg(c.Train, c.Dev), avg(c.Train, c.Test))
			}
		}
		if *dumpSQL {
			fmt.Fprintf(os.Stdout, "\n-- %s workload --\n", kind)
			for _, q := range c.Queries {
				fmt.Printf("%3d: %s\n", q.ID, q.SQL)
			}
		}
		fmt.Println()
	}
}

// finish flushes the run manifest; a write failure is the only error path.
func finish(rn *obs.Run) {
	if err := rn.Finish(); err != nil {
		log.Fatal(err)
	}
}

// writeCorpus exports one labeled corpus to path, failing loudly on any
// filesystem error so a truncated corpus never looks like a success.
func writeCorpus(c *dataset.Corpus, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := c.Export(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
