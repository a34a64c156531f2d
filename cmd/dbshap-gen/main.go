// Command dbshap-gen builds a synthetic DBShap-style corpus (database +
// SPJU workload + exact Shapley labels) and prints its statistics in the
// shape of the paper's Tables 1 and 2. With -sql it also dumps the generated
// workload. The amc sampler labels the tuples exact labeling refuses, unless
// -label-fallback=false drops them.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/cmd/internal/pipeline"
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
	labelFallback := flag.Bool("label-fallback", true, "label the lineages exact labeling refuses (too large) with the amc sampler, seeded from -seed; false drops them")
	export := flag.String("export", "", "write the labeled corpus as JSON to this path (suffixed with the database name when -db both)")
	o := obs.AddFlags(flag.CommandLine)
	pipeline.Parse()

	rn := o.Start("dbshap-gen")
	defer finish(rn)
	rn.SetConfig("db", *kindFlag)
	rn.SetConfig("queries", *queries)
	rn.SetConfig("cases", *cases)
	rn.SetConfig("seed", *seed)
	rn.SetConfig("scale", *scale)
	rn.SetConfig("workers", *workers)
	rn.SetConfig("label_fallback", *labelFallback)

	kinds := []dataset.Kind{dataset.IMDB, dataset.Academic}
	if *kindFlag != "both" {
		kind, err := dataset.ParseKind(*kindFlag)
		if err != nil {
			log.Fatalf("-db: %v, or both", err)
		}
		kinds = []dataset.Kind{kind}
	}

	fmt.Printf("%-10s %-8s %10s %10s %12s\n", "database", "split", "#queries", "#results", "#facts")
	for _, kind := range kinds {
		cfg := dataset.DefaultConfig(kind)
		cfg.Seed = *seed
		cfg.NumQueries = *queries
		cfg.MaxCasesPerQuery = *cases
		cfg.Scale = *scale
		cfg.Workers = *workers
		cfg.LabelFallback = *labelFallback
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

		// Labeling summary: what exact labeling labeled, what fell back, and
		// what was dropped as too large — printed and recorded in the run
		// manifest so corpus provenance survives the console.
		ls := c.Labels
		fmt.Printf("%-10s labeling labeled=%d (exact=%d fallbacks=%d) skipped-too-large=%d\n",
			kind, ls.Labeled, ls.Exact, ls.Fallback, ls.Skipped)
		kindKey := strings.ToLower(kind.String())
		rn.SetConfig("label_summary_"+kindKey, map[string]int{
			"labeled": ls.Labeled, "exact": ls.Exact,
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
