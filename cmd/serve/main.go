// Command serve is the production ranking daemon: it loads (or trains) a
// LearnShapley model and serves "why is this tuple in the result?" requests
// over HTTP with cross-request dynamic batching (internal/serve).
//
//	serve -db imdb -load model.gob -addr :8080        # serve a checkpoint
//	serve -db imdb -queries 20 -cases 6               # train a demo model, then serve
//	serve -selftest 16 -metrics-out run.json          # in-process e2e gate (ci.sh)
//	serve -loadgen -clients 8 -requests 200           # measure latency/throughput
//
// Endpoints: POST /rank, /explain, /similar, /admin/reload; GET /healthz
// (?probe=readiness for the load-balancer signal), /metrics
// (?format=prometheus for scrapers), /debug/manifest, /debug/trace (Chrome
// trace-event dump of recent requests). Overload answers 429 + Retry-After;
// SIGINT and SIGTERM drain in-flight batches before exit (and flush
// -metrics-out).
//
// Coalesced batches are scored through the cross-request packed path: each
// replica runs one core.RankMany over its slice of the batch, so facts of
// different requests share multi-prefix GEMM passes — bit-identical to
// per-request scoring. -tls-cert/-tls-key serve HTTPS; -admin-token puts
// /admin/* behind a bearer token.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	// Corpus + model (mirrors learnshap/tune so ci and bench can train tiny).
	kindFlag := flag.String("db", "imdb", "imdb or academic")
	modelFlag := flag.String("model", "base", "base, large, no-pretrain, or small")
	queries := flag.Int("queries", 20, "queries in the corpus")
	cases := flag.Int("cases", 6, "labeled cases per query")
	seed := flag.Int64("seed", 1, "corpus seed")
	dim := flag.Int("dim", 0, "override model dim (0 = model default; FFN hidden follows as 2*dim)")
	layers := flag.Int("layers", 0, "override encoder layers (0 = model default)")
	epochs := flag.Int("epochs", -1, "override fine-tune epochs (-1 = model default)")
	samples := flag.Int("samples", 0, "override fine-tune samples per epoch (0 = model default)")
	pepochs := flag.Int("pepochs", -1, "override pre-training epochs (-1 = model default)")
	ppairs := flag.Int("ppairs", 0, "override pre-training pairs per epoch (0 = model default)")
	loadPath := flag.String("load", "", "serve this gob checkpoint instead of training")
	savePath := flag.String("save", "", "write the served model to this file (hot-swap source for /admin/reload)")
	workers := flag.Int("workers", 0, "scoring replicas / training workers (0 = one per CPU)")

	// Serving.
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
	maxBatch := flag.Int("max-batch", 8, "max coalesced requests per dispatch (1 = per-request scoring)")
	batchWindow := flag.Duration("batch-window", 2*time.Millisecond, "how long a batch waits for more requests after its first")
	queueCap := flag.Int("queue-cap", 256, "admission queue bound; overflow answers 429 + Retry-After")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight requests on shutdown")
	adminToken := flag.String("admin-token", "", "bearer token required on /admin/* endpoints (empty = open)")
	tlsCert := flag.String("tls-cert", "", "PEM certificate path; with -tls-key, serve HTTPS instead of HTTP")
	tlsKey := flag.String("tls-key", "", "PEM private key path (must be set together with -tls-cert)")

	// Observability (the obs run flags -metrics-out/-trace/-v come from AddFlags).
	slowMS := flag.Float64("slow-ms", 0, "log requests slower than this many ms with their trace decomposition (0 = off)")
	traceRing := flag.Int("trace-ring", 256, "recent request traces kept for GET /debug/trace")
	driftWindow := flag.Int("drift-window", 256, "rolling window of the online quality-drift monitors")
	driftProbe := flag.Int("drift-probe", 8, "test-split lineages self-scored at model (re)load for the drift reference")
	driftPSI := flag.Float64("drift-psi", 0.25, "PSI threshold at which /healthz reports status degraded")

	// Modes.
	selftest := flag.Int("selftest", 0, "fire this many concurrent self-requests, verify bit-parity with sequential ranking, then exit")
	loadgen := flag.Bool("loadgen", false, "run the load generator and print a JSON report, then exit")
	target := flag.String("target", "", "loadgen: base URL of an external daemon (empty = spawn one in-process)")
	clients := flag.Int("clients", 8, "loadgen: concurrent clients")
	requests := flag.Int("requests", 200, "loadgen: total request budget")
	rate := flag.Float64("rate", 0, "loadgen: open-loop arrival rate in requests/sec (0 = closed loop)")
	lineages := flag.Int("loadgen-lineages", 0, "loadgen: distinct (query, tuple) request bodies to cycle through (0 = every test case); 1 = single-prefix loop, larger = mixed-prefix stream")

	o := obs.AddFlags(flag.CommandLine)
	flag.Parse()

	rn := o.Start("serve")
	defer finish(rn)
	rn.SetConfig("db", *kindFlag)
	rn.SetConfig("model", *modelFlag)
	rn.SetConfig("queries", *queries)
	rn.SetConfig("cases", *cases)
	rn.SetConfig("seed", *seed)
	rn.SetConfig("workers", *workers)
	rn.SetConfig("max_batch", *maxBatch)
	rn.SetConfig("batch_window", batchWindow.String())
	rn.SetConfig("queue_cap", *queueCap)
	rn.SetConfig("slow_ms", *slowMS)
	rn.SetConfig("trace_ring", *traceRing)
	rn.SetConfig("drift_window", *driftWindow)
	rn.SetConfig("drift_probe", *driftProbe)
	rn.SetConfig("drift_psi", *driftPSI)

	kind := dataset.IMDB
	if *kindFlag == "academic" {
		kind = dataset.Academic
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

	model := buildModel(rn, corpus, modelCfg(
		*modelFlag, *dim, *layers, *epochs, *samples, *pepochs, *ppairs, *workers),
		*loadPath, *savePath)

	scfg := serve.Config{
		Addr:        *addr,
		Workers:     *workers,
		MaxBatch:    *maxBatch,
		BatchWindow: *batchWindow,
		QueueCap:    *queueCap,
		AdminToken:  *adminToken,
		TLSCert:     *tlsCert,
		TLSKey:      *tlsKey,
		SlowMS:      *slowMS,
		TraceRing:   *traceRing,
		DriftWindow: *driftWindow,
		DriftProbe:  *driftProbe,
		DriftPSI:    *driftPSI,
	}
	if *loadgen && *target != "" {
		// External target: no in-process server needed.
		runLoadgen(corpus, *target, *clients, *requests, *rate, *lineages)
		return
	}
	if *selftest > 0 || *loadgen {
		scfg.Addr = "127.0.0.1:0"
		if *addr != "127.0.0.1:8080" {
			scfg.Addr = *addr
		}
	}

	srv := serve.New(scfg, corpus, model)
	if err := srv.Start(); err != nil {
		log.Fatal(err)
	}
	rn.Log.Infof("Serving on %s (max-batch %d, window %v, %d workers, queue %d)\n",
		srv.URL(), *maxBatch, *batchWindow, scfg.Workers, *queueCap)

	switch {
	case *selftest > 0:
		err := serve.SelfTest(srv, *selftest)
		shutdown(srv, *drainTimeout)
		if err != nil {
			log.Fatal(err)
		}
		rn.Log.Infof("selftest ok: %d concurrent requests bit-identical to sequential ranking\n", *selftest)
	case *loadgen:
		runLoadgen(corpus, srv.URL(), *clients, *requests, *rate, *lineages)
		shutdown(srv, *drainTimeout)
	default:
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		rn.Log.Infof("shutting down: draining in-flight requests (up to %v)...\n", *drainTimeout)
		shutdown(srv, *drainTimeout)
	}
}

// modelCfg resolves the -model selection plus size/schedule overrides.
func modelCfg(name string, dim, layers, epochs, samples, pepochs, ppairs, workers int) core.ModelConfig {
	var cfg core.ModelConfig
	switch name {
	case "base":
		cfg = core.BaseConfig()
	case "large":
		cfg = core.LargeConfig()
	case "no-pretrain":
		cfg = core.NoPretrainConfig()
	case "small":
		cfg = core.SmallTransformerConfig()
	default:
		log.Fatalf("unknown -model %q", name)
	}
	if dim > 0 {
		cfg.Dim, cfg.FFNHidden = dim, 2*dim
	}
	if layers > 0 {
		cfg.Layers = layers
	}
	if epochs >= 0 {
		cfg.FinetuneEpochs = epochs
	}
	if samples > 0 {
		cfg.FinetuneSamplesPerEpoch = samples
	}
	if pepochs >= 0 {
		cfg.PretrainEpochs = pepochs
		if pepochs == 0 {
			cfg.PretrainMetrics = nil
		}
	}
	if ppairs > 0 {
		cfg.PretrainPairsPerEpoch = ppairs
	}
	cfg.Workers = workers
	return cfg
}

// buildModel loads a checkpoint or trains, then optionally saves.
func buildModel(rn *obs.Run, corpus *dataset.Corpus, cfg core.ModelConfig, loadPath, savePath string) *core.Model {
	var model *core.Model
	if loadPath != "" {
		f, err := os.Open(loadPath)
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
		rn.Log.Infof("Loaded %s from %s (%d weights)\n", model.Name(), loadPath, model.NumWeights())
	} else {
		rn.Log.Infof("Training %s...\n", cfg.Name)
		start := time.Now()
		var report *core.TrainReport
		var err error
		model, report, err = core.Train(corpus, dataset.NewSimilarityCache(corpus), cfg, nil)
		if err != nil {
			log.Fatal(err)
		}
		rn.Log.Infof("  %d weights, best dev NDCG@10 %.3f, %v\n",
			report.NumWeights, report.BestDevNDCG, time.Since(start).Round(time.Second))
		rn.SetQuality("best_dev_ndcg10", report.BestDevNDCG)
	}
	if savePath != "" {
		f, err := os.Create(savePath)
		if err != nil {
			log.Fatal(err)
		}
		if err := model.Save(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		rn.Log.Infof("Saved model to %s\n", savePath)
	}
	return model
}

// runLoadgen drives traffic at the target and prints one JSON report line —
// scripts/bench.sh collects these into BENCH_serve.json rows. lineages bounds
// how many distinct request bodies the run cycles through (0 = all test
// cases), controlling the prefix diversity cross-request packing sees.
func runLoadgen(corpus *dataset.Corpus, baseURL string, clients, requests int, rate float64, lineages int) {
	bodies, err := serve.RankBodies(corpus, lineages)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := serve.RunLoad(serve.LoadConfig{
		BaseURL:  baseURL,
		Clients:  clients,
		Requests: requests,
		Rate:     rate,
	}, bodies)
	if err != nil {
		log.Fatal(err)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(out))
}

// shutdown drains the server within the timeout.
func shutdown(srv *serve.Server, timeout time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("shutdown: %v", err)
	}
}

// finish flushes the run manifest; a write failure is the only error path.
func finish(rn *obs.Run) {
	if err := rn.Finish(); err != nil {
		log.Fatal(err)
	}
}
