#!/usr/bin/env bash
# ci.sh — the repo's check suite: formatting, vet, build, tests, and the race
# detector over the concurrency-bearing packages. Run from anywhere; exits
# non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi
echo "ok"

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== go test -race (concurrency packages) =="
# internal/shapley/... is in the list because corpus labeling schedules the
# (exact and sampling) engines over internal/parallel: the parity gate and the
# dataset worker-determinism test both fan labeling out across goroutines.
go test -race ./internal/obs ./internal/parallel ./internal/dataset ./internal/nn ./internal/core ./internal/experiments ./internal/serve ./internal/shapley/...

echo "== go test -race (packed passes) =="
# The packed inference parity tests run explicitly under the race detector:
# in nn, every readout-row parity test (TestBatchedForwardMatchesForward,
# TestBatchedForwardMultiPrefixMatchesPerSequence,
# TestBatchedSharedPrefixMatchesPerSequence, TestPrefixReuseMatchesForward)
# and the fewer-queries-than-keys attention kernel test
# (TestAttnScoresSoftmaxMatchesReference); in core, the golden and truncated
# rankers (TestRankOnPrefixGolden, TestRankOnBatchedGolden,
# TestRankOnBatchedTruncated and their siblings).
go test -race ./internal/nn -run 'Batched|MultiPrefix|PrefixReuse|AttnScores'
go test -race ./internal/core -run 'Batched|Golden'

echo "== go test -race (request observability: traces, ring, drift, exposition) =="
# Every request records its trace on its own handler goroutine, with the
# model-side stage added from inside the scoring replica, while concurrent
# handlers write the shared trace ring and drift monitors. Drive their unit
# tests, the serve-side threading test and the slow-request counter
# explicitly under the race detector.
go test -race ./internal/obs -run 'TraceContext|TraceID|TraceRing|ChromeTrace|Drift|PSI|Prom|Lint'
go test -race ./internal/serve -run 'TraceIDThreadsThroughBatch|ServeSlowRequestCounted|HealthzReadiness|MetricsPrometheus'

echo "== go test -race (serve replica pool + admin auth + TLS) =="
# Every handler goroutine shares the replica pool: the admission slots and the
# channel of idle replicas. The parity grid sends concurrent client batches at
# 1, 2 and 3 pooled replicas, so it runs under the race detector explicitly,
# as do the TLS round trip, the admin auth gate and the refused reload of a
# checkpoint with a NaN weight. The pool tests (the admission bound, a panic
# while scoring, 429 before evaluation, and draining admitted requests on
# shutdown) run ten times each, under a timeout that turns a hang into a
# failure well before go test's own 10 minutes.
go test -race ./internal/serve -run 'ServeParitySequential|ServeAdminAuth|ServeTLS|ServeReloadRejectsNonFiniteWeights'
go test -race -count=10 -timeout 5m ./internal/serve -run 'BatcherQueueFull|PoolPanicKeepsReplica|ServeBackpressure|ServeDrainOnShutdown'

echo "== go test -race (blocked kernels) =="
go test -race ./internal/nn -run 'Blocked'

echo "== allocation regression gate =="
# TestEncoderStepZeroAllocs pins the warmed encoder step to 0 allocs/op. It
# self-skips under the race detector, so run it without -race here and fail
# unless it actually PASSed (a skip must not silently satisfy the gate).
alloc_out=$(go test ./internal/nn -run '^TestEncoderStepZeroAllocs$' -v)
echo "$alloc_out" | tail -n 3
if ! echo "$alloc_out" | grep -q -- '--- PASS: TestEncoderStepZeroAllocs'; then
    echo "TestEncoderStepZeroAllocs did not pass (skipped?)" >&2
    exit 1
fi
# The instrumented sibling pins the same 0 allocs/op with a LIVE metrics
# registry installed AND a live request trace context attached to the scoring
# context, so observability (metrics or tracing) can never silently
# reintroduce per-step allocations.
alloc_out=$(go test ./internal/nn -run '^TestEncoderStepZeroAllocsInstrumented$' -v)
echo "$alloc_out" | tail -n 3
if ! echo "$alloc_out" | grep -q -- '--- PASS: TestEncoderStepZeroAllocsInstrumented'; then
    echo "TestEncoderStepZeroAllocsInstrumented did not pass (skipped?)" >&2
    exit 1
fi
# The batched sibling pins a warmed single-lineage packed inference pass
# (packed forward + per-sequence head readouts) to the same 0 allocs/op.
alloc_out=$(go test ./internal/nn -run '^TestBatchedSharedPrefixZeroAllocs$' -v)
echo "$alloc_out" | tail -n 3
if ! echo "$alloc_out" | grep -q -- '--- PASS: TestBatchedSharedPrefixZeroAllocs'; then
    echo "TestBatchedSharedPrefixZeroAllocs did not pass (skipped?)" >&2
    exit 1
fi
# The blocked kernel tier must also be allocation-free: every layer now routes
# through it, so a regression here would silently break the warmed-step
# contract above.
alloc_out=$(go test ./internal/nn -run '^TestBlockedKernelsZeroAllocs$' -v)
echo "$alloc_out" | tail -n 3
if ! echo "$alloc_out" | grep -q -- '--- PASS: TestBlockedKernelsZeroAllocs'; then
    echo "TestBlockedKernelsZeroAllocs did not pass (skipped?)" >&2
    exit 1
fi
# The multi-prefix pass (suffixes of different prefix caches packed into one
# chunk, per-sequence prefix attention) backs the ranking hot path; a warmed
# pass must also run at 0 allocs/op.
alloc_out=$(go test ./internal/nn -run '^TestMultiPrefixZeroAllocs$' -v)
echo "$alloc_out" | tail -n 3
if ! echo "$alloc_out" | grep -q -- '--- PASS: TestMultiPrefixZeroAllocs'; then
    echo "TestMultiPrefixZeroAllocs did not pass (skipped?)" >&2
    exit 1
fi

echo "== sampler-vs-exact parity gate =="
# The amc sampler must hold Spearman >= 0.95 against the exact oracle on the
# golden lineages at the GateSamples budget. Like the allocation gates, a
# skip must not silently satisfy the gate — fail unless the test actually
# PASSed.
parity_out=$(go test ./internal/shapley/approx -run '^TestSamplerOracleParityGate$' -v)
echo "$parity_out" | grep -E 'spearman=|--- (PASS|FAIL|SKIP)' || true
if ! echo "$parity_out" | grep -q -- '--- PASS: TestSamplerOracleParityGate'; then
    echo "TestSamplerOracleParityGate did not pass (skipped?)" >&2
    exit 1
fi

echo "== corpus seed-determinism gate =="
# A fixed -label-seed must produce byte-identical corpus exports at every
# -workers count under the amc sampler; non-skippable for the same reason.
det_out=$(go test ./internal/dataset -run '^TestCorpusBytesIdenticalAcrossWorkers$' -v)
echo "$det_out" | tail -n 3
if ! echo "$det_out" | grep -q -- '--- PASS: TestCorpusBytesIdenticalAcrossWorkers'; then
    echo "TestCorpusBytesIdenticalAcrossWorkers did not pass (skipped?)" >&2
    exit 1
fi

echo "== corpus import fuzz smoke =="
# Arbitrary bytes fed to dataset.Import must yield a corpus or an error,
# never a panic.
go test ./internal/dataset -run '^$' -fuzz '^FuzzImport$' -fuzztime 10s

echo "== tokenizer pack fuzz smoke =="
# Arbitrary query, tuple and fact strings must tokenize without a panic and
# pack to exactly [CLS] q [SEP] t [SEP] f [SEP] under FitLengths' trimming.
# Minimization is off for the reason given for the checkpoint smoke below:
# minimizing long inputs stalled a 10 s smoke after 3 s on a 2-core host
# (55,000 inputs against 195,000 without it).
go test ./internal/tokenizer -run '^$' -fuzz '^FuzzPack$' -fuzztime 10s -fuzzminimizetime 0

echo "== checkpoint load fuzz smoke =="
# Arbitrary bytes fed to core.LoadModel (the file behind POST /admin/reload)
# must yield a model that ranks or an error, never a panic or an unbounded
# allocation. Minimization is off: minimizing each input that reaches new
# code takes seconds per input at checkpoint sizes, and would fill the whole
# smoke instead of fuzzing (about 7,000 inputs a second without it on a
# 2-core host).
go test ./internal/core -run '^$' -fuzz '^FuzzLoadModel$' -fuzztime 10s -fuzzminimizetime 0

echo "== end-to-end run manifest =="
# Tiny full pipeline (corpus -> train -> eval) with the observability stack on:
# -workers 2 forces the instrumented pool branch even on one core, -metrics-out
# emits the run manifest, and the schema check validates what was written.
manifest_dir=$(mktemp -d)
trap 'rm -rf "$manifest_dir"' EXIT
# The (small, one-epoch) pre-training and fine-tuning schedules must show live
# core.pretrain.* metrics, and evaluation ranking live nn.mbatch.* and
# core.rank.* metrics — asserted below via REPRO_MANIFEST_EXPECT_METRICS.
tiny=(-queries 16 -cases 2 -epochs 1 -samples 40 -pepochs 1 -ppairs 16 -dim 8 -layers 1)
go run ./cmd/learnshap "${tiny[@]}" -workers 2 \
    -metrics-out "$manifest_dir/run.json" -trace -quiet 2>/dev/null
REPRO_MANIFEST="$manifest_dir/run.json" \
    REPRO_MANIFEST_EXPECT_METRICS="nn.mbatch.,core.rank.,core.pretrain." \
    go test ./internal/obs -run '^TestValidateManifestFile$' -v | tail -n 3
# Metric-naming lint over the live registry snapshot the run actually
# produced: every registered name must follow the repo convention and survive
# Prometheus normalization without collisions.
REPRO_MANIFEST="$manifest_dir/run.json" \
    go test ./internal/obs -run '^TestManifestMetricNamesLint$' -v | tail -n 3
# -labeler amc labels a corpus with the antithetic Monte Carlo sampler, so
# live shapley.approx.* metrics must show up in dbshap-gen's manifest.
go run ./cmd/dbshap-gen -db academic -queries 16 -cases 2 -labeler amc -label-samples 64 \
    -similarities=false -workers 2 -metrics-out "$manifest_dir/gen.json" -quiet >/dev/null
REPRO_MANIFEST="$manifest_dir/gen.json" \
    REPRO_MANIFEST_EXPECT_METRICS="shapley.approx." \
    go test ./internal/obs -run '^TestValidateManifestFile$' -v | tail -n 3
REPRO_MANIFEST="$manifest_dir/gen.json" \
    go test ./internal/obs -run '^TestManifestMetricNamesLint$' -v | tail -n 3

echo "== learnshap worker determinism gate =="
# Training, ranking and evaluation are bit-identical at every worker count, so
# the tiny pipeline's printed table must be byte-identical at 1 and 2 workers.
go run ./cmd/learnshap "${tiny[@]}" -workers 1 -quiet >"$manifest_dir/workers1.txt"
go run ./cmd/learnshap "${tiny[@]}" -workers 2 -quiet >"$manifest_dir/workers2.txt"
if ! cmp "$manifest_dir/workers1.txt" "$manifest_dir/workers2.txt"; then
    diff "$manifest_dir/workers1.txt" "$manifest_dir/workers2.txt" >&2 || true
    echo "learnshap output differs between -workers 1 and -workers 2" >&2
    exit 1
fi
echo "ok"

echo "== serve e2e (daemon + concurrent traffic + manifest) =="
# Full serving round trip: train a tiny model, start the daemon on an
# ephemeral port with two pooled replicas, fire concurrent /rank requests over
# real TCP and verify every response bit-for-bit against sequential ranking
# (cmd/serve -selftest exits non-zero on any mismatch), then drain and flush
# the run manifest. The schema check asserts the manifest recorded live
# serve.* metrics (request counters, the serve.queue.* admission counters,
# the serve.batch.size histogram of 1 per scoring, the serve.stage.* latency
# decomposition), the nn.mbatch.* packed-pass counters, and the obs.drift.*
# quality monitors alongside the core ranking counters. The trained model is
# saved, and a second daemon serves that checkpoint from disk: -load over the
# same corpus flags rebuilds the same database, and its selftest checks the
# loaded model's concurrent answers against its own sequential ranking.
go run ./cmd/serve -queries 12 -cases 3 -dim 8 -layers 1 \
    -pepochs 1 -ppairs 16 -epochs 1 -samples 40 \
    -workers 2 -save "$manifest_dir/model.gob" \
    -selftest 8 -metrics-out "$manifest_dir/serve.json" -trace -quiet 2>/dev/null
go run ./cmd/serve -queries 12 -cases 3 -load "$manifest_dir/model.gob" -workers 2 -selftest 8 -quiet
REPRO_MANIFEST="$manifest_dir/serve.json" \
    REPRO_MANIFEST_EXPECT_METRICS="serve.req.,serve.batch.,serve.queue.,serve.stage.,core.rank.,nn.mbatch.,obs.drift." \
    go test ./internal/obs -run '^TestValidateManifestFile$' -v | tail -n 3
REPRO_MANIFEST="$manifest_dir/serve.json" \
    go test ./internal/obs -run '^TestManifestMetricNamesLint$' -v | tail -n 3

echo "== nn benchmark smoke =="
go test -run '^$' -bench . -benchtime=1x -benchmem ./internal/nn

echo "CI PASSED"
