// Command experiments regenerates every table and figure of the paper's
// evaluation section over the synthetic corpora. Output goes to stdout;
// redirect to record a full run (the numbers in EXPERIMENTS.md come from
// such a run).
//
//	go run ./cmd/experiments            # full scale
//	go run ./cmd/experiments -bench     # bench scale (faster)
//	go run ./cmd/experiments -only table3,figure11
package main

import (
	"flag"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() {
	benchScale := flag.Bool("bench", false, "use the (smaller) bench-scale configuration")
	only := flag.String("only", "", "comma-separated artifact list (e.g. table1,figure9); empty = all")
	workers := flag.Int("workers", 0, "worker goroutines for corpus building, training and evaluation (0 = one per CPU); results are identical for every value")
	o := obs.AddFlags(flag.CommandLine)
	flag.Parse()

	cfg := experiments.FullConfig()
	if *benchScale {
		cfg = experiments.BenchConfig()
	}
	if *workers != 0 {
		// Leave a REPRO_WORKERS override from BenchConfig in place unless the
		// flag was given explicitly.
		cfg.Workers = *workers
	}
	// Start observability before NewSuite: hot-path metric handles resolve
	// against the registry installed here.
	rn := o.Start("experiments")
	defer finish(rn)
	rn.SetConfig("bench", *benchScale)
	rn.SetConfig("only", *only)
	rn.SetConfig("workers", cfg.Workers)
	rn.SetConfig("queries_per_db", cfg.QueriesPerDB)
	rn.SetConfig("scale", cfg.Scale.Base)

	start := time.Now()
	rn.Log.Infof("Building corpora (offline Shapley labeling pipeline)...\n")
	suite, err := experiments.NewSuite(cfg)
	if err != nil {
		log.Fatal(err)
	}
	rn.Log.Infof("corpora ready in %v\n", time.Since(start).Round(time.Second))

	want := map[string]bool{}
	for _, name := range strings.Split(*only, ",") {
		if name = strings.TrimSpace(strings.ToLower(name)); name != "" {
			want[name] = true
		}
	}
	run := func(name string, f func() error) {
		if len(want) > 0 && !want[name] {
			return
		}
		t := time.Now()
		done := obs.Span("artifact:" + name)
		if err := f(); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		done()
		rn.Log.Infof("[%s done in %v]\n", name, time.Since(t).Round(time.Second))
	}

	w := os.Stdout
	run("table1", func() error { suite.Table1(w); return nil })
	run("table2", func() error { suite.Table2(w); return nil })
	run("figure7", func() error { suite.Figure7(w); return nil })
	run("figure8", func() error { suite.Figure8(w); return nil })
	run("table3", func() error {
		res, err := suite.Table3(w)
		if err == nil {
			for db, rows := range res.Rows {
				for _, row := range rows {
					key := strings.ToLower(strings.ReplaceAll(db+"."+row.Method, " ", "_"))
					rn.SetQuality("table3."+key+".ndcg10", row.NDCG10)
					rn.SetQuality("table3."+key+".p1", row.P1)
				}
			}
		}
		return err
	})
	run("figure9", func() error { _, err := suite.Figure9(w); return err })
	run("figure10", func() error { _, err := suite.Figure10(w); return err })
	run("table4", func() error { _, err := suite.Table4(w); return err })
	run("figure11", func() error { _, err := suite.Figure11(w); return err })
	run("figure12", func() error { _, err := suite.Figure12(w); return err })
	run("table5", func() error { _, err := suite.Table5(w); return err })
	run("table6", func() error { _, err := suite.Table6(w); return err })
	run("ablation", func() error { return experiments.ShapleyAblation(suite, w) })
	run("extension", func() error { _, err := experiments.ExtensionUnrestrictedRanking(suite, w); return err })
	run("cross-schema", func() error { _, err := experiments.ExtensionCrossSchema(suite, w); return err })

	rn.Log.Infof("\nall requested artifacts regenerated in %v\n", time.Since(start).Round(time.Second))
}

// finish flushes the run manifest; a write failure is the only error path.
func finish(rn *obs.Run) {
	if err := rn.Finish(); err != nil {
		log.Fatal(err)
	}
}
