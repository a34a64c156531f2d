#!/usr/bin/env bash
# bench.sh — records the repo's performance artifacts as a machine-profile-
# keyed bench matrix: every BENCH file embeds a "host" fingerprint (machine
# key, CPU model, core count, GOOS/GOARCH, go version) so numbers from
# different machines never get compared as if they were one series. Axes that
# need multiple cores are skipped with an explicit marker on single-core
# hosts.
#
#   BENCH_kernels.json  — single-worker kernel/encoding performance: the
#       end-to-end ranking benchmark through the pre-optimization reference
#       path (independent padded full-length forward passes per fact) vs the
#       packed prefix-reuse path behind RankOn, the zero-allocation encoder
#       micro-benchmarks, and the reference-vs-blocked GEMM tier comparison
#       at the encoder's real shapes. Outputs of the two ranking paths are
#       bit-identical (TestRankOnPrefixGolden), and the blocked kernels are
#       bit-identical to the reference kernels
#       (TestBlockedKernelsMatchReference), so every ratio is pure kernel
#       speedup.
#
#   BENCH_parallel.json — wall-clock effect of data-parallelism on the two
#       heaviest benchmarks at workers=1 vs workers=N (default: one per CPU;
#       override with `bench.sh <N>`). On a single-core machine (or N<=1) the
#       comparison is meaningless — both runs schedule identically — so it is
#       skipped and the file records an explicit "skipped" marker instead of
#       noise dressed up as a measurement.
#
# Training time and serving latency are not recorded here: the repo
# benchmark (bench/run.sh) measures them per workload (setup_s and
# core.train_s; p50_ms and rps of /rank served end to end).
set -euo pipefail
cd "$(dirname "$0")/.."

CORES=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)
N=${1:-$CORES}

# ------------------------------------------------------------ host profile ----
# Every BENCH file embeds this fingerprint; machine_key is the short index a
# results store would key the matrix by.

GOOS=$(go env GOOS)
GOARCH=$(go env GOARCH)
GOVER=$(go env GOVERSION)
CPU_MODEL=$(awk -F': ' '/^model name/ { print $2; exit }' /proc/cpuinfo 2>/dev/null || true)
[ -n "$CPU_MODEL" ] || CPU_MODEL=unknown
MACHINE_KEY="${GOOS}-${GOARCH}-${CORES}c-${GOVER}"
HOST_JSON=$(printf '{"machine_key": "%s", "goos": "%s", "goarch": "%s", "go_version": "%s", "cores": %s, "cpu_model": "%s"}' \
    "$MACHINE_KEY" "$GOOS" "$GOARCH" "$GOVER" "$CORES" "$CPU_MODEL")
echo "host profile: $HOST_JSON"

# ---------------------------------------------------------------- kernels ----

KOUT=BENCH_kernels.json
echo "== kernel / prefix-reuse benchmarks (single worker) =="

# bench_ns <pkg> <benchmark> <benchtime> -> ns/op on stdout
bench_ns() {
    local pkg=$1 bench=$2 benchtime=$3
    go test -run '^$' -bench "^${bench}\$" -benchtime="$benchtime" -benchmem "$pkg" \
        | awk -v b="$bench" '$1 ~ "^"b { print $3; found=1 } END { if (!found) exit 1 }'
}

# bench_allocs <pkg> <benchmark> <benchtime> -> allocs/op on stdout
bench_allocs() {
    local pkg=$1 bench=$2 benchtime=$3
    go test -run '^$' -bench "^${bench}\$" -benchtime="$benchtime" -benchmem "$pkg" \
        | awk -v b="$bench" '$1 ~ "^"b { print $7; found=1 } END { if (!found) exit 1 }'
}

echo "-- BenchmarkRankLineageFull (reference: padded per-fact passes)"
full_ns=$(bench_ns ./internal/core BenchmarkRankLineageFull 5x)
echo "   ${full_ns} ns/op"
echo "-- BenchmarkRankLineagePrefix (RankOn: shared prefix, trimmed sequences, packed passes)"
# The optimized run also records a run manifest (metrics + span timings) next
# to the BENCH file, via the TestMain/obs.StartFromEnv hook in internal/core.
prefix_ns=$(REPRO_METRICS_OUT="$PWD/BENCH_kernels.manifest.json" REPRO_TRACE=1 \
    bench_ns ./internal/core BenchmarkRankLineagePrefix 5x)
echo "   ${prefix_ns} ns/op"
echo "   wrote BENCH_kernels.manifest.json"
speedup=$(awk -v a="$full_ns" -v b="$prefix_ns" 'BEGIN { printf "%.2f", a/b }')
echo "   speedup ${speedup}x"

echo "-- BenchmarkEncoderStep (forward+backward, warmed workspace)"
step_ns=$(bench_ns ./internal/nn BenchmarkEncoderStep 20x)
step_allocs=$(bench_allocs ./internal/nn BenchmarkEncoderStep 20x)
echo "   ${step_ns} ns/op, ${step_allocs} allocs/op"
echo "-- BenchmarkEncoderForward (inference, warmed workspace)"
fwd_ns=$(bench_ns ./internal/nn BenchmarkEncoderForward 20x)
fwd_allocs=$(bench_allocs ./internal/nn BenchmarkEncoderForward 20x)
echo "   ${fwd_ns} ns/op, ${fwd_allocs} allocs/op"

# bench_sub_rows <pkg> <benchmark> <benchtime> <extra-json-key> -> JSON rows
# for every sub-benchmark tier/shape pair, e.g.
# BenchmarkMatMulBlocked/blocked/proj_96x32x32-4 -> {"tier": "blocked", ...}.
bench_sub_rows() {
    local pkg=$1 bench=$2 benchtime=$3 op=$4
    go test -run '^$' -bench "^${bench}\$" -benchtime="$benchtime" "$pkg" \
        | awk -v b="$bench" -v op="$op" '
            $1 ~ "^"b"/" {
                n = split($1, parts, "/")
                sub(/-[0-9]+$/, "", parts[n])
                shape = (n >= 3) ? parts[3] : "base_96x32"
                printf "    {\"op\": \"%s\", \"tier\": \"%s\", \"shape\": \"%s\", \"ns_per_op\": %s},\n", op, parts[2], shape, $3
                found = 1
            }
            END { if (!found) exit 1 }'
}

echo "-- GEMM tiers: reference vs blocked kernels at encoder shapes"
gemm_rows=$( {
    bench_sub_rows ./internal/nn BenchmarkMatMulBlocked 200ms matmul
    bench_sub_rows ./internal/nn BenchmarkMatMulTBlocked 200ms matmul_t
    bench_sub_rows ./internal/nn BenchmarkTMatMulBlocked 200ms t_matmul
} | sed '$ s/,$//')
printf '%s\n' "$gemm_rows" | sed 's/^    /   /'

cat > "$KOUT" <<EOF
{
  "generated_utc": "$(date -u +%Y-%m-%dT%H:%M:%SZ)",
  "host": $HOST_JSON,
  "note": "Ranking paths produce bit-identical scores (TestRankOnPrefixGolden); the baseline already uses the zero-allocation Into kernels, so end_to_end_ranking.speedup understates the win over the original allocating kernels. gemm_tiers compares the reference kernels against the register-blocked cache-tiled tier (bit-identical: TestBlockedKernelsMatchReference).",
  "end_to_end_ranking": {
    "baseline": "BenchmarkRankLineageFull",
    "optimized": "BenchmarkRankLineagePrefix",
    "ns_per_op_full": $full_ns,
    "ns_per_op_prefix": $prefix_ns,
    "speedup": $speedup
  },
  "encoder_microbenchmarks": [
    {"name": "BenchmarkEncoderStep", "ns_per_op": $step_ns, "allocs_per_op": $step_allocs},
    {"name": "BenchmarkEncoderForward", "ns_per_op": $fwd_ns, "allocs_per_op": $fwd_allocs}
  ],
  "gemm_tiers": [
$gemm_rows
  ]
}
EOF
echo "wrote $KOUT"

# --------------------------------------------------------------- labeling ----
# The labeling axis measures the approximate Shapley engines against exact
# d-DNNF compilation on the golden benchmark lineages: wall time (median of 3)
# and accuracy (Spearman / top-k / MAE vs the exact oracle) for every sampling
# engine across a ladder of permutation budgets, with the headline block
# restating the largest gated lineage at the GateSamples budget — where every
# engine must hold >= 10x speedup at Spearman >= 0.95 or the harness fails.
# The measurement lives in Go (TestLabelBenchReport, internal/shapley/approx)
# so the numbers come from the same code paths ci gates; this section only
# runs it and wraps the inner report with the host fingerprint. Labeling is
# single-worker by construction (one lineage, one engine at a time), so it is
# NEVER skipped.

LOUT=BENCH_label.json
echo "== labeling benchmarks: exact vs sampling engines (median of 3) =="

label_tmp=$(mktemp -d)
trap 'rm -rf "$label_tmp"' EXIT
label_inner="$label_tmp/label_inner.json"
label_out=$(REPRO_LABEL_BENCH_OUT="$label_inner" \
    go test ./internal/shapley/approx -run '^TestLabelBenchReport$' -count=1 -v)
echo "$label_out" | grep -E 'facts=|engine=|--- (PASS|FAIL|SKIP)' \
    | sed 's/^ *labelbench_test.go:[0-9]*: /   /'
if ! echo "$label_out" | grep -q -- '--- PASS: TestLabelBenchReport'; then
    echo "TestLabelBenchReport did not pass (skipped?)" >&2
    exit 1
fi

cat > "$LOUT" <<EOF
{
  "generated_utc": "$(date -u +%Y-%m-%dT%H:%M:%SZ)",
  "host": $HOST_JSON,
  "skipped": false,
  "note": "Inner report written by TestLabelBenchReport (internal/shapley/approx); see its 'note' field for the measurement protocol. The headline block is the ISSUE acceptance row: every sampling engine on the largest gated lineage at the gate budget, where the harness itself fails below 10x speedup over exact compilation or 0.95 Spearman. Sampled labels are bit-identical for a fixed seed at every worker count (TestCorpusBytesIdenticalAcrossWorkers), so the speedup is pure estimator-vs-compilation effect, not nondeterminism.",
  "report": $(cat "$label_inner")
}
EOF
echo "wrote $LOUT"

# --------------------------------------------------------------- parallel ----

OUT=BENCH_parallel.json
BENCHES="BenchmarkTable3MainResults BenchmarkAblationShapleyAlgorithms"

if [ "$CORES" -le 1 ] || [ "$N" -le 1 ]; then
    echo "== parallel benchmarks: skipped (cores=$CORES, N=$N) =="
    cat > "$OUT" <<EOF
{
  "generated_utc": "$(date -u +%Y-%m-%dT%H:%M:%SZ)",
  "host": $HOST_JSON,
  "cores": $CORES,
  "skipped": true,
  "note": "Workers comparison skipped: a single-core machine (or N<=1) schedules workers=1 and workers=N identically, so the ratio would be measurement noise, not speedup. Re-run scripts/bench.sh on a multi-core machine to populate benchmarks."
}
EOF
    echo "wrote $OUT (skipped marker)"
    exit 0
fi

echo "== parallel benchmarks: cores=$CORES, comparing workers=1 vs workers=$N =="

# run_bench <workers> <benchmark> -> ns/op on stdout
run_bench() {
    local workers=$1 bench=$2
    REPRO_WORKERS=$workers go test -run '^$' -bench "^${bench}\$" -benchtime=1x -benchmem . \
        | awk -v b="$bench" '$1 ~ "^"b { print $3; found=1 } END { if (!found) exit 1 }'
}

rows=""
for bench in $BENCHES; do
    echo "-- $bench (workers=1)"
    ns1=$(run_bench 1 "$bench")
    echo "   ${ns1} ns/op"
    echo "-- $bench (workers=$N)"
    # The workers=N Table 3 run also records a run manifest (pool utilization,
    # cache hit rates, span timings) next to the BENCH file, via the
    # TestMain/obs.StartFromEnv hook in the root bench package.
    manifest=""
    if [ "$bench" = "BenchmarkTable3MainResults" ]; then
        manifest="$PWD/BENCH_parallel.manifest.json"
    fi
    nsN=$(REPRO_METRICS_OUT="$manifest" REPRO_TRACE="${manifest:+1}" run_bench "$N" "$bench")
    echo "   ${nsN} ns/op"
    if [ -n "$manifest" ]; then
        echo "   wrote BENCH_parallel.manifest.json"
    fi
    wspeedup=$(awk -v a="$ns1" -v b="$nsN" 'BEGIN { printf "%.2f", a/b }')
    echo "   speedup ${wspeedup}x"
    rows="$rows    {\"name\": \"$bench\", \"ns_per_op_workers_1\": $ns1, \"ns_per_op_workers_n\": $nsN, \"speedup\": $wspeedup},\n"
done
rows=$(printf '%b' "$rows" | sed '$ s/,$//')

cat > "$OUT" <<EOF
{
  "generated_utc": "$(date -u +%Y-%m-%dT%H:%M:%SZ)",
  "host": $HOST_JSON,
  "cores": $CORES,
  "skipped": false,
  "workers_compared": [1, $N],
  "note": "Same seed, bit-identical outputs at both worker counts; ratio is pure scheduling speedup.",
  "benchmarks": [
$rows
  ]
}
EOF
echo "wrote $OUT"
