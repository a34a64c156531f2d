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
# Training time is not recorded here: the repo benchmark (bench/run.sh)
# measures it per workload as setup_s and core.train_s.
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

# ------------------------------------------------------------------ serve ----
# The serving axis measures the production daemon end to end: the load
# generator drives concurrent /rank requests over real TCP at cmd/serve and
# records p50/p99 latency and throughput with cross-request dynamic batching
# off (max-batch 1: one request per dispatch) vs on (max-batch 8, 2ms window).
# Scores are bit-identical in every configuration (TestServeParitySequential;
# cmd/serve -selftest re-checks the exact binary under test), so every delta
# is pure scheduling effect. Every cell runs SERVE_TRIALS times; rows record the median
# throughput plus every per-trial number, and the headline speedups divide
# medians — single go-run loadgen samples on a busy host are too noisy to
# quote alone. The single-worker axis is meaningful on any host; the
# multi-worker sub-axis (independent scoring replicas) needs multiple cores
# and keeps the honest skip marker on single-core machines.

SVOUT=BENCH_serve.json
echo "== serving benchmarks: batching (loadgen) =="

serve_tmp=$(mktemp -d)
trap 'rm -rf "$serve_tmp"' EXIT
SERVE_CORPUS="-queries 12 -cases 3 -seed 1"
SERVE_CLIENTS=4
SERVE_REQS=400
SERVE_TRIALS=3

echo "-- training serving checkpoint (tiny model, saved once, reloaded per run)"
go run ./cmd/serve $SERVE_CORPUS -dim 16 -layers 1 \
    -pepochs 1 -ppairs 40 -epochs 1 -samples 120 \
    -save "$serve_tmp/model.gob" -selftest 1 -quiet >/dev/null 2>/dev/null

# serve_report <cmd/serve flags...> -> LoadReport JSON on stdout
serve_report() {
    go run ./cmd/serve $SERVE_CORPUS -load "$serve_tmp/model.gob" \
        -loadgen -clients $SERVE_CLIENTS -requests $SERVE_REQS \
        "$@" -quiet 2>/dev/null | tail -n 1
}

# serve_cell <workers> <max-batch> <window> runs one cell SERVE_TRIALS times
# and leaves the median rps in cell_median, the per-trial rps list in
# cell_trials, and the last trial's full LoadReport in cell_report.
serve_cell() {
    local w=$1 mb=$2 win=$3 t tp tps=""
    for t in $(seq 1 "$SERVE_TRIALS"); do
        cell_report=$(serve_report -workers "$w" -max-batch "$mb" -batch-window "$win")
        tp=$(printf '%s' "$cell_report" | sed 's/.*"throughput_rps": *\([0-9.]*\).*/\1/')
        echo "   trial $t: ${tp} rps"
        tps="$tps$tp\n"
    done
    cell_median=$(printf '%b' "$tps" | sort -g | sed -n "$(((SERVE_TRIALS + 1) / 2))p")
    cell_trials=$(printf '%b' "$tps" | paste -sd, -)
    echo "   median: ${cell_median} rps"
}

sv_rows=""
tp_base=""
tp_batch=""
for cfg in "1|0s" "8|2ms"; do
    IFS='|' read -r mb win <<< "$cfg"
    echo "-- workers=1 max-batch=$mb batch-window=$win"
    serve_cell 1 "$mb" "$win"
    sv_rows="$sv_rows    {\"workers\": 1, \"max_batch\": $mb, \"batch_window\": \"$win\", \"throughput_rps_median\": $cell_median, \"throughput_rps_trials\": [$cell_trials], \"report\": $cell_report},\n"
    if [ "$mb" = 1 ]; then tp_base="$cell_median"; else tp_batch="$cell_median"; fi
done

sv_speedup=$(awk -v a="$tp_batch" -v b="$tp_base" 'BEGIN { printf "%.2f", (b > 0) ? a/b : 0 }')
echo "-- medians at workers=1: max-batch 1 ${tp_base} rps; max-batch 8 ${tp_batch} rps (${sv_speedup}x)"

if [ "$CORES" -le 1 ] || [ "$N" -le 1 ]; then
    sv_workers_skipped=true
    echo "-- multi-worker serving sub-axis: skipped (cores=$CORES, N=$N)"
else
    sv_workers_skipped=false
    echo "-- multi-worker serving sub-axis (workers=$N)"
    for cfg in "1|0s" "8|2ms"; do
        IFS='|' read -r mb win <<< "$cfg"
        echo "-- workers=$N max-batch=$mb batch-window=$win"
        serve_cell "$N" "$mb" "$win"
        sv_rows="$sv_rows    {\"workers\": $N, \"max_batch\": $mb, \"batch_window\": \"$win\", \"throughput_rps_median\": $cell_median, \"throughput_rps_trials\": [$cell_trials], \"report\": $cell_report},\n"
    done
fi
sv_rows=$(printf '%b' "$sv_rows" | sed '$ s/,$//')

cat > "$SVOUT" <<EOF
{
  "generated_utc": "$(date -u +%Y-%m-%dT%H:%M:%SZ)",
  "host": $HOST_JSON,
  "cores": $CORES,
  "skipped": false,
  "workers_axis_skipped": $sv_workers_skipped,
  "clients": $SERVE_CLIENTS,
  "requests": $SERVE_REQS,
  "trials": $SERVE_TRIALS,
  "note": "Closed-loop loadgen (clients issue back-to-back) against cmd/serve over real TCP; every cell is the median of trials runs (per-trial rps kept in throughput_rps_trials; report is the last trial's full LoadReport). Latency quantiles (p50/p99/p999) over 200s only, 429 rejections counted and timed separately, never folded into the success percentiles. Ranking scores are bit-identical across batching configs, worker counts and windows (TestServeParitySequential). batching_throughput_speedup (max-batch 8 vs max-batch 1, one worker) isolates coalescing: a coalesced batch is scored through one cross-request packed RankMany call per replica. The multi-worker sub-axis is skipped on single-core hosts.",
  "batching_throughput_speedup": $sv_speedup,
  "matrix": [
$sv_rows
  ]
}
EOF
echo "wrote $SVOUT"

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

label_inner="$serve_tmp/label_inner.json"
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
