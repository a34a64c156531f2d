// Server demonstrates the production serving stack (internal/serve, the
// engine behind cmd/serve) answering real-time "why is this tuple in the
// result?" requests from only the query and the tuple. The program trains a
// small model over a synthetic IMDB corpus, starts the stack (each request
// scored on a pooled replica, backpressure, graceful drain), issues a
// demonstration request against itself, and exits (pass -serve to keep it
// running). The server answers with exact Shapley values when the lineage's
// provenance compiles within a fixed node budget, as every small IMDB lineage
// does, and with the CNF proxy's derivation counts past it; "engine" says
// which. The paper's Section 5.8 serves the learned ranker instead, because
// exact computation is too slow there; here both engines are faster than the
// model and rank better (DESIGN.md §8), and the model answers /similar.
//
//	POST /rank {"sql": "...", "tuple": ["Alice", ...]}
//	  -> {"engine": "exact", "facts": [{"id": 17, "fact": "...", "score": 0.21}, ...]}
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:0", "listen address")
	keep := flag.Bool("serve", false, "keep serving instead of running the demo request")
	flag.Parse()

	fmt.Println("Building corpus and training a small LearnShapley model...")
	dc := dataset.DefaultConfig(dataset.IMDB)
	dc.NumQueries = 20
	dc.MaxCasesPerQuery = 6
	corpus, err := dataset.Build(dc)
	if err != nil {
		log.Fatal(err)
	}
	cfg := core.BaseConfig()
	cfg.Dim, cfg.Layers, cfg.FFNHidden = 16, 1, 32
	cfg.PretrainEpochs, cfg.PretrainPairsPerEpoch = 1, 80
	cfg.FinetuneEpochs, cfg.FinetuneSamplesPerEpoch = 2, 400
	model, _, err := core.Train(corpus, dataset.NewSimilarityCache(corpus), cfg, nil)
	if err != nil {
		log.Fatal(err)
	}

	// The full daemon (checkpoint loading, hot-swap, metrics) lives in
	// cmd/serve; this example only needs an address and the defaults.
	scfg := serve.DefaultConfig()
	scfg.Addr = *addr
	srv := serve.New(scfg, corpus, model)
	if err := srv.Start(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Serving on %s\n", srv.URL())

	if *keep {
		select {}
	}

	// Demo round trip: rank the lineage of a test query's first tuple.
	qi := corpus.Test[0]
	q := corpus.Queries[qi]
	tuple := make([]string, len(q.Cases[0].Tuple.Values))
	for i, v := range q.Cases[0].Tuple.Values {
		tuple[i] = v.String()
	}
	body, err := json.Marshal(serve.RankRequest{SQL: q.SQL, Tuple: tuple})
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(srv.URL()+"/rank", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nPOST /rank -> %s\n", resp.Status)
	var pretty bytes.Buffer
	if err := json.Indent(&pretty, out, "", "  "); err == nil {
		fmt.Println(pretty.String())
	} else {
		fmt.Println(string(out))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("shutdown: %v", err)
	}
}
