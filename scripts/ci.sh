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
# exact engine and the fallback sampler over internal/parallel: the parity
# gate and the dataset worker-determinism test both fan labeling out across
# goroutines. The run covers every packed-pass parity test of nn and core
# (readout rows, multi-prefix passes, prefix reuse, the attention and blocked
# kernels, the golden and truncated rankers), the trace, ring and exposition
# tests of obs and serve, and serve's admission pool, /rank parity sweep,
# engine selector, refusal memory and TLS round trip.
go test -race ./internal/obs ./internal/parallel ./internal/dataset ./internal/nn ./internal/core ./internal/experiments ./internal/serve ./internal/shapley/...

echo "== go test -race (serve pool, repeated) =="
# Every handler goroutine shares the pool (the admission slots and the compile
# turns) and the refusal memory's slots. The pool tests (the admission bound,
# a panic while scoring, 429 before evaluation, and draining admitted requests
# on shutdown) and concurrent answers over the refusal memory run ten times
# each, under a timeout that turns a hang into a failure well before go test's
# own 10 minutes.
go test -race -count=10 -timeout 5m ./internal/serve -run 'AdmitRejectsPastCapacity|ScorePanicReleasesTurn|ServeBackpressure|ServeDrainOnShutdown|AnswerRefusalsConcurrent'

# must_pass PKG TEST runs one test without the race detector and fails unless
# it PASSed: a gate that skips itself must not pass silently.
must_pass() {
    local out
    out=$(go test "$1" -run "^$2\$" -v)
    echo "$out" | grep -v '^=== RUN' || true
    if [[ $out != *"--- PASS: $2 "* ]]; then
        echo "$2 did not pass (skipped?)" >&2
        exit 1
    fi
}

echo "== allocation regression gates =="
# The warmed encoder step runs at 0 allocs/op: plain, with a live metrics
# registry and a live request trace context attached (so observability can
# never silently reintroduce per-step allocations), as a packed single-lineage
# inference pass, through the blocked kernel tier every layer routes through,
# and as a multi-prefix pass (suffixes of different prefix caches packed into
# one chunk), which backs the ranking hot path. The tests self-skip under the
# race detector, so they run without it here.
must_pass ./internal/nn TestEncoderStepZeroAllocs
must_pass ./internal/nn TestEncoderStepZeroAllocsInstrumented
must_pass ./internal/nn TestBatchedSharedPrefixZeroAllocs
must_pass ./internal/nn TestBlockedKernelsZeroAllocs
must_pass ./internal/nn TestMultiPrefixZeroAllocs

echo "== sampler-vs-exact parity gate =="
# The amc sampler must hold Spearman >= 0.95 against the exact oracle on the
# golden lineages at the GateSamples budget.
must_pass ./internal/shapley/approx TestSamplerOracleParityGate

echo "== corpus seed-determinism gate =="
# The default Academic corpus, whose 11 tuples over 100 facts the amc
# fallback labels from seeds derived from the corpus seed, must export
# byte-identically at every -workers count.
must_pass ./internal/dataset TestCorpusBytesIdenticalAcrossWorkers

echo "== corpus import fuzz smoke =="
# Arbitrary bytes fed to dataset.Import must yield a corpus or an error,
# never a panic.
go test ./internal/dataset -run '^$' -fuzz '^FuzzImport$' -fuzztime 10s

echo "== SQL parse and lex fuzz smokes =="
# Every /rank body carries SQL that sqlparse lexes and parses before anything
# else runs. Arbitrary strings must lex to a token stream ending in EOF, and
# parse to an error or to a query whose rendered SQL re-parses to the same
# text; neither may panic.
go test ./internal/sqlparse -run '^$' -fuzz '^FuzzParse$' -fuzztime 10s
go test ./internal/sqlparse -run '^$' -fuzz '^FuzzLex$' -fuzztime 10s

echo "== tokenizer pack fuzz smoke =="
# Arbitrary query, tuple and fact strings must tokenize without a panic and
# pack to exactly [CLS] q [SEP] t [SEP] f [SEP] under FitLengths' trimming.
# Minimization is off for the reason given for the checkpoint smoke below:
# minimizing long inputs stalled a 10 s smoke after 3 s on a 2-core host
# (55,000 inputs against 195,000 without it).
go test ./internal/tokenizer -run '^$' -fuzz '^FuzzPack$' -fuzztime 10s -fuzzminimizetime 0

echo "== checkpoint load fuzz smoke =="
# Arbitrary bytes fed to core.LoadModel (the file behind learnshap -load)
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
# dbshap-gen's fallback is on by default: the amc sampler labels the default
# Academic corpus's 11 tuples over 100 facts, so live shapley.approx.* metrics
# must show up in its manifest.
go run ./cmd/dbshap-gen -db academic -similarities=false -workers 2 \
    -metrics-out "$manifest_dir/gen.json" -quiet >/dev/null
REPRO_MANIFEST="$manifest_dir/gen.json" \
    REPRO_MANIFEST_EXPECT_METRICS="shapley.approx." \
    go test ./internal/obs -run '^TestValidateManifestFile$' -v | tail -n 3
REPRO_MANIFEST="$manifest_dir/gen.json" \
    go test ./internal/obs -run '^TestManifestMetricNamesLint$' -v | tail -n 3

echo "== learnshap worker determinism and checkpoint round-trip gate =="
# Training, ranking and evaluation are bit-identical at every worker count, so
# the tiny pipeline's printed table must be byte-identical at 1 and 2 workers.
# The 2-worker run saves its model, and a third run loads that checkpoint over
# the same corpus flags instead of training: its table must be byte-identical
# to the saving run's.
go run ./cmd/learnshap "${tiny[@]}" -workers 1 -quiet >"$manifest_dir/workers1.txt"
go run ./cmd/learnshap "${tiny[@]}" -workers 2 -save "$manifest_dir/model.gob" -quiet >"$manifest_dir/workers2.txt"
go run ./cmd/learnshap -queries 16 -cases 2 -workers 2 -load "$manifest_dir/model.gob" -quiet >"$manifest_dir/loaded.txt"
for out in workers1 loaded; do
    if ! cmp "$manifest_dir/$out.txt" "$manifest_dir/workers2.txt"; then
        diff "$manifest_dir/$out.txt" "$manifest_dir/workers2.txt" >&2 || true
        echo "learnshap output of the $out run differs from the saving -workers 2 run" >&2
        exit 1
    fi
done
echo "ok"

echo "== serve e2e (daemon + concurrent traffic + manifest) =="
# Full serving round trip: build a tiny corpus, start the daemon on an
# ephemeral port with two compile turns, fire concurrent /rank requests over
# real TCP and verify every response bit-for-bit against the engine that
# answered it: exact Shapley values within the exact budget, the CNF proxy
# past it (cmd/serve -selftest exits non-zero on any mismatch or on the wrong
# engine), then drain and flush the run manifest. Every lineage of this tiny
# corpus compiles within the budget, so its answers are all exact; the proxy
# path is gated by TestSelfTest, TestServeExactSelector and
# TestServeParitySequential at budget 0, under -race above. The schema check
# asserts the manifest recorded live serve.* metrics (request counters, the
# serve.rank.* per-engine answer counters, the serve.queue.* admission
# counters, the serve.batch.size histogram of 1 per scoring, the
# serve.stage.* latency decomposition).
go run ./cmd/serve -queries 12 -cases 3 -workers 2 -selftest 8 \
    -metrics-out "$manifest_dir/serve.json" -trace -quiet 2>/dev/null
REPRO_MANIFEST="$manifest_dir/serve.json" \
    REPRO_MANIFEST_EXPECT_METRICS="serve.req.,serve.rank.,serve.batch.,serve.queue.,serve.stage." \
    go test ./internal/obs -run '^TestValidateManifestFile$' -v | tail -n 3
REPRO_MANIFEST="$manifest_dir/serve.json" \
    go test ./internal/obs -run '^TestManifestMetricNamesLint$' -v | tail -n 3

echo "== benchmark smoke tests =="
# bench/ is a module of its own, so go test ./... above does not build it. It
# compiles against serve.New, serve.RankRequest, the serve.stage.* and
# serve.batch.size metric names and core's API; its smoke tests run a short
# untraced and traced benchmark in-process, so a change that breaks any of
# them fails here rather than only in a benchmark run.
go -C bench test ./...

echo "== nn benchmark smoke =="
go test -run '^$' -bench . -benchtime=1x -benchmem ./internal/nn

echo "CI PASSED"
