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
# The packed inference parity tests (the 'Batched' pattern matches
# TestBatchedForwardMultiPrefixMatchesPerSequence and TestRankOnBatchedGolden)
# run explicitly under the race detector.
go test -race ./internal/nn -run 'Batched|MultiPrefix'
go test -race ./internal/core -run 'Batched|Golden'

echo "== go test -race (request observability: traces, ring, drift, exposition) =="
# The trace context is mutated from both sides of the admission queue (handler
# and dispatch goroutines), the trace ring and drift monitors are written by
# concurrent handlers — drive their unit tests and the serve-side threading
# test explicitly under the race detector.
go test -race ./internal/obs -run 'TraceContext|TraceID|TraceRing|ChromeTrace|Drift|PSI|Prom|Lint'
go test -race ./internal/serve -run 'TraceIDThreadsThroughBatch|HealthzReadiness|MetricsPrometheus'

echo "== go test -race (serve dispatch + admin auth + TLS) =="
# The parity grid sends concurrent client batches at 1, 2 and 3 dispatchers,
# each scoring on its own replica, so it runs under the race detector
# explicitly, as do the TLS round trip and the admin auth gate.
go test -race ./internal/serve -run 'ServeParitySequential|ServeAdminAuth|ServeTLS'

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

echo "== end-to-end run manifest =="
# Tiny full pipeline (corpus -> train -> eval) with the observability stack on:
# -workers 2 forces the instrumented pool branch even on one core, -metrics-out
# emits the run manifest, and the schema check validates what was written.
manifest_dir=$(mktemp -d)
trap 'rm -rf "$manifest_dir"' EXIT
# The (small, one-epoch) pre-training and fine-tuning schedules must show live
# core.pretrain.* metrics, and evaluation ranking live nn.mbatch.* and
# core.rank.* metrics — asserted below via REPRO_MANIFEST_EXPECT_METRICS.
# -labeler amc labels the corpus with the antithetic Monte Carlo sampler, so
# live shapley.approx.* metrics must show up in the same manifest.
go run ./cmd/tune -queries 16 -cases 2 -epochs 1 -samples 40 \
    -pepochs 1 -ppairs 16 \
    -labeler amc -label-samples 64 \
    -dim 8 -layers 1 -workers 2 \
    -metrics-out "$manifest_dir/run.json" -trace -quiet 2>/dev/null
REPRO_MANIFEST="$manifest_dir/run.json" \
    REPRO_MANIFEST_EXPECT_METRICS="nn.mbatch.,core.rank.,core.pretrain.,shapley.approx." \
    go test ./internal/obs -run '^TestValidateManifestFile$' -v | tail -n 3
# Metric-naming lint over the live registry snapshot the run actually
# produced: every registered name must follow the repo convention and survive
# Prometheus normalization without collisions.
REPRO_MANIFEST="$manifest_dir/run.json" \
    go test ./internal/obs -run '^TestManifestMetricNamesLint$' -v | tail -n 3

echo "== serve e2e (daemon + concurrent traffic + manifest) =="
# Full serving round trip: train a tiny model, start the daemon on an
# ephemeral port with two dispatchers, fire concurrent /rank requests over
# real TCP and verify every response bit-for-bit against sequential ranking
# (cmd/serve -selftest exits non-zero on any mismatch), then drain and flush
# the run manifest. The schema check asserts the manifest recorded live
# serve.* metrics (request counters, the serve.batch.size dispatch histogram,
# the serve.stage.* latency decomposition), the nn.mbatch.* packed-pass
# counters, and the obs.drift.* quality monitors alongside the core ranking
# counters.
go run ./cmd/serve -queries 12 -cases 3 -dim 8 -layers 1 \
    -pepochs 1 -ppairs 16 -epochs 1 -samples 40 \
    -workers 2 \
    -selftest 8 -metrics-out "$manifest_dir/serve.json" -trace -quiet 2>/dev/null
REPRO_MANIFEST="$manifest_dir/serve.json" \
    REPRO_MANIFEST_EXPECT_METRICS="serve.req.,serve.batch.,serve.queue.,serve.stage.,core.rank.,nn.mbatch.,obs.drift." \
    go test ./internal/obs -run '^TestValidateManifestFile$' -v | tail -n 3
REPRO_MANIFEST="$manifest_dir/serve.json" \
    go test ./internal/obs -run '^TestManifestMetricNamesLint$' -v | tail -n 3

echo "== nn benchmark smoke =="
go test -run '^$' -bench . -benchtime=1x -benchmem ./internal/nn

echo "CI PASSED"
