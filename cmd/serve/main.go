// Command serve is the production ranking daemon: it serves "why is this
// tuple in the result?" requests over HTTP (internal/serve), ranking each
// lineage from its provenance over the corpus it builds at start-up. It
// neither trains nor loads a model.
//
//	serve -db imdb -addr :8080                        # build the default corpus and serve
//	serve -db academic -queries 20 -cases 6           # a smaller corpus
//	serve -selftest 16 -metrics-out run.json          # in-process e2e gate (ci.sh)
//
// Endpoints: POST /rank, /explain; GET /healthz (?probe=readiness for the
// load-balancer signal), /metrics (?format=prometheus for scrapers),
// /debug/manifest, /debug/trace (Chrome trace-event dump of recent requests).
// Overload answers 429 + Retry-After; SIGINT and SIGTERM drain in-flight
// requests before exit (and flush -metrics-out).
//
// Every request runs on its own handler goroutine: it takes one of
// -queue-cap plus -workers admission slots, then scores on one of -workers
// compile turns (one per CPU by default), so at most -workers lineages
// compile at once. /rank and /explain answer with exact Shapley values when
// the lineage compiles within a fixed budget of decomposition-tree nodes, and
// with the CNF proxy's derivation counts past it (a refused lineage skips the
// attempt from then on); the response's "engine" field says which.
// -tls-cert/-tls-key serve HTTPS. The corpus flags, and the corpus build
// behind them, are the ones cmd/learnshap uses (cmd/internal/pipeline). The
// repository benchmark (bench/run.sh) measures the daemon under load.
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/cmd/internal/pipeline"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/serve"
)

func main() {
	cf := pipeline.AddCorpusFlags(flag.CommandLine, "imdb", 20, 6)

	// Serving.
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
	queueCap := flag.Int("queue-cap", serve.DefaultConfig().QueueCap, "admitted requests that may wait beyond -workers; overflow answers 429 + Retry-After")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight requests on shutdown")
	tlsCert := flag.String("tls-cert", "", "PEM certificate path; with -tls-key, serve HTTPS instead of HTTP")
	tlsKey := flag.String("tls-key", "", "PEM private key path (must be set together with -tls-cert)")

	// Observability (the obs run flags -metrics-out/-trace/-v come from AddFlags).
	slowMS := flag.Float64("slow-ms", 0, "log requests slower than this many ms with their trace decomposition (0 = off)")

	// Modes.
	selftest := flag.Int("selftest", 0, "fire this many concurrent /rank self-requests, check each answer bit for bit against the engine that answered it (exact Shapley within the budget, the CNF proxy past it), then exit")

	o := obs.AddFlags(flag.CommandLine)
	pipeline.Parse()

	rn := o.Start("serve")
	defer finish(rn)
	rn.SetConfig("queue_cap", *queueCap)
	rn.SetConfig("slow_ms", *slowMS)
	corpus, err := cf.BuildCorpus(rn)
	if err != nil {
		log.Fatal(err)
	}

	scfg := serve.Config{
		Addr:     *addr,
		Workers:  parallel.Workers(cf.Workers), // resolved here so the log below names the count serving uses
		QueueCap: *queueCap,
		TLSCert:  *tlsCert,
		TLSKey:   *tlsKey,
		SlowMS:   *slowMS,
	}
	if *selftest > 0 {
		scfg.Addr = "127.0.0.1:0"
		if *addr != "127.0.0.1:8080" {
			scfg.Addr = *addr
		}
	}

	srv := serve.New(scfg, corpus, nil)
	if err := srv.Start(); err != nil {
		log.Fatal(err)
	}
	rn.Log.Infof("Serving on %s (%d workers, queue %d)\n", srv.URL(), scfg.Workers, *queueCap)

	switch {
	case *selftest > 0:
		err := serve.SelfTest(srv, *selftest)
		shutdown(srv, *drainTimeout)
		if err != nil {
			log.Fatal(err)
		}
		rn.Log.Infof("selftest ok: %d concurrent /rank requests bit-identical to the engine that answered each (exact or proxy)\n", *selftest)
	default:
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		rn.Log.Infof("shutting down: draining in-flight requests (up to %v)...\n", *drainTimeout)
		shutdown(srv, *drainTimeout)
	}
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
