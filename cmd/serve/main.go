// Command serve is the production ranking daemon: it loads (or trains) a
// LearnShapley model and serves "why is this tuple in the result?" requests
// over HTTP (internal/serve).
//
//	serve -db imdb -load model.gob -addr :8080        # serve a checkpoint
//	serve -db imdb -queries 20 -cases 6               # train a demo model, then serve
//	serve -selftest 16 -metrics-out run.json          # in-process e2e gate (ci.sh)
//
// Endpoints: POST /rank, /explain, /similar, /admin/reload; GET /healthz
// (?probe=readiness for the load-balancer signal), /metrics
// (?format=prometheus for scrapers), /debug/manifest, /debug/trace (Chrome
// trace-event dump of recent requests). Overload answers 429 + Retry-After;
// SIGINT and SIGTERM drain in-flight requests before exit (and flush
// -metrics-out).
//
// Every request runs on its own handler goroutine: it takes one of
// -queue-cap plus -workers admission slots, then scores on one of -workers
// pooled model replicas (one per CPU by default), so a request waits only for
// a free replica. On the replica, /rank and /explain answer with exact
// Shapley values when the lineage compiles within a fixed budget of
// decomposition-tree nodes, and through core.Model.RankOn past it; the
// response's "engine" field says which. -tls-cert/-tls-key serve HTTPS;
// -admin-token puts /admin/* behind a bearer token, and the run manifest
// (/debug/manifest, -metrics-out) shows it as <redacted>. The corpus and model
// flags, and the load-or-train step behind them, are the ones cmd/learnshap
// uses (cmd/internal/pipeline). The repository benchmark (bench/run.sh)
// measures the daemon under load.
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
	"repro/internal/serve"
)

func main() {
	pf := pipeline.AddFlags(flag.CommandLine, "imdb", 20, 6)

	// Serving.
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
	queueCap := flag.Int("queue-cap", serve.DefaultConfig().QueueCap, "admitted requests that may wait beyond -workers; overflow answers 429 + Retry-After")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight requests on shutdown")
	adminToken := flag.String("admin-token", "", "bearer token required on /admin/* endpoints (empty = open)")
	tlsCert := flag.String("tls-cert", "", "PEM certificate path; with -tls-key, serve HTTPS instead of HTTP")
	tlsKey := flag.String("tls-key", "", "PEM private key path (must be set together with -tls-cert)")

	// Observability (the obs run flags -metrics-out/-trace/-v come from AddFlags).
	slowMS := flag.Float64("slow-ms", 0, "log requests slower than this many ms with their trace decomposition (0 = off)")

	// Modes.
	selftest := flag.Int("selftest", 0, "fire this many concurrent self-requests, check each answer bit for bit against the engine that answered it (exact Shapley within the budget, sequential ranking past it), then exit")

	o := obs.AddFlags(flag.CommandLine)
	pipeline.Parse()

	rn := o.Start("serve")
	defer finish(rn)
	rn.SetConfig("queue_cap", *queueCap)
	rn.SetConfig("slow_ms", *slowMS)
	corpus, _, model, err := pf.Build(rn)
	if err != nil {
		log.Fatal(err)
	}

	scfg := serve.Config{
		Addr:       *addr,
		Workers:    pf.Workers,
		QueueCap:   *queueCap,
		AdminToken: *adminToken,
		TLSCert:    *tlsCert,
		TLSKey:     *tlsKey,
		SlowMS:     *slowMS,
	}
	if *selftest > 0 {
		scfg.Addr = "127.0.0.1:0"
		if *addr != "127.0.0.1:8080" {
			scfg.Addr = *addr
		}
	}

	srv := serve.New(scfg, corpus, model)
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
		rn.Log.Infof("selftest ok: %d concurrent requests bit-identical to the engine that answered each\n", *selftest)
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
