#!/usr/bin/env bash
# Tier-1 verify plus a serving smoke run. The four CI jobs are exactly
# the four invocations below.
#
# Usage:
#   scripts/check.sh [build_dir]           # full build + ctest + bench smoke
#                                          # (bench JSON into build_dir/bench_smoke/)
#                                          # + perfbench self-test
#   scripts/check.sh --tsan [build_dir]    # ThreadSanitizer build of the
#                                          # serving concurrency suites
#   scripts/check.sh --asan [build_dir]    # AddressSanitizer build of the
#                                          # serving + model suites (snapshot
#                                          # lifetime / use-after-free)
#   scripts/check.sh --werror [build_dir]  # warnings-hardened build of the
#                                          # core library (-Wall -Wextra -Werror)
#
# When ccache is installed it is wired through automatically
# (CMAKE_CXX_COMPILER_LAUNCHER), so repeat builds — and the CI jobs,
# which cache ~/.ccache — skip unchanged translation units.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

# ccache wiring: opt out with AWMOE_NO_CCACHE=1 (e.g. to benchmark a
# cold compiler).
CMAKE_LAUNCHER_ARGS=()
if [ -z "${AWMOE_NO_CCACHE:-}" ] && command -v ccache >/dev/null 2>&1; then
  CMAKE_LAUNCHER_ARGS+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
  echo "== ccache enabled ($(ccache --version | head -n1)) =="
fi

# Newer google-benchmark requires a unit suffix on --benchmark_min_time
# ("0.01s") and errors on the bare-number form; older releases reject
# the suffix. Probe the binary once (an empty filter runs no cases) and
# remember which form it speaks.
bench_min_time_flag() {
  local bin="$1"
  if "$bin" --benchmark_min_time=0.01s --benchmark_filter='^$' \
      >/dev/null 2>&1; then
    echo "--benchmark_min_time=0.01s"
  else
    echo "--benchmark_min_time=0.01"
  fi
}

TSAN=0
ASAN=0
WERROR=0
if [ "${1:-}" = "--tsan" ]; then
  TSAN=1
  shift
elif [ "${1:-}" = "--asan" ]; then
  ASAN=1
  shift
elif [ "${1:-}" = "--werror" ]; then
  WERROR=1
  shift
fi

if [ "$TSAN" = 1 ]; then
  BUILD_DIR="${1:-$REPO_ROOT/build-tsan}"
  echo "== configure (ThreadSanitizer) =="
  cmake -B "$BUILD_DIR" -S "$REPO_ROOT" -DAWMOE_TSAN=ON \
    -DAWMOE_BUILD_BENCHES=OFF -DAWMOE_BUILD_EXAMPLES=OFF \
    "${CMAKE_LAUNCHER_ARGS[@]}"

  echo "== build (tests only) =="
  cmake --build "$BUILD_DIR" -j "$(nproc)"

  # The threaded subsystem lives in src/serving/; its suites (async
  # queue, worker pool, model pool hot swaps, rollout ramps/storms,
  # stats contention) are where TSan has signal.
  # models_kernel_tier rides along: its row-parallel matmul tests are
  # the only place the kernel worker pool runs under TSan.
  # models_listwise rides along too: ParallelTrainer workers share the
  # listwise graph ops, and serving_slate_serving (matched by the
  # serving_ prefix) storms the slate path from four threads.
  # core_parallel_trainer: its workers run the tier-dispatched training
  # GEMMs concurrently and read the shared kernel-tier state.
  echo "== ctest (serving + kernel-tier + listwise + trainer suites under TSan) =="
  TSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir "$BUILD_DIR" --output-on-failure \
    -R "^(serving_|models_kernel_tier|models_listwise|core_parallel_trainer)"

  echo "== check.sh --tsan OK =="
  exit 0
fi

if [ "$ASAN" = 1 ]; then
  BUILD_DIR="${1:-$REPO_ROOT/build-asan}"
  echo "== configure (AddressSanitizer) =="
  cmake -B "$BUILD_DIR" -S "$REPO_ROOT" -DAWMOE_ASAN=ON \
    -DAWMOE_BUILD_BENCHES=OFF -DAWMOE_BUILD_EXAMPLES=OFF \
    "${CMAKE_LAUNCHER_ARGS[@]}"

  echo "== build (tests only) =="
  cmake --build "$BUILD_DIR" -j "$(nproc)"

  # Snapshot lifetime is the target: a retired ModelPool snapshot (or a
  # rollout candidate dropped while leased) freed while a lease still
  # reads its replicas is a heap-use-after-free TSan cannot see. The
  # models suite covers clone storage; the serving suites cover
  # lease/retire under load.
  echo "== ctest (serving + model suites under ASan) =="
  ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
    ctest --test-dir "$BUILD_DIR" --output-on-failure \
    -R "^(serving_|models_)"

  echo "== check.sh --asan OK =="
  exit 0
fi

if [ "$WERROR" = 1 ]; then
  BUILD_DIR="${1:-$REPO_ROOT/build-werror}"
  echo "== configure (warnings as errors) =="
  cmake -B "$BUILD_DIR" -S "$REPO_ROOT" -DAWMOE_WERROR=ON \
    -DAWMOE_BUILD_BENCHES=OFF -DAWMOE_BUILD_EXAMPLES=OFF \
    -DAWMOE_BUILD_TESTS=OFF "${CMAKE_LAUNCHER_ARGS[@]}"

  # Only the core library builds here: -Wall -Wextra -Werror over all
  # of src/ (the serving stack included). Any new warning fails this
  # job instead of scrolling by in the functional one.
  echo "== build (library, -Werror) =="
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target awmoe_lib

  echo "== check.sh --werror OK =="
  exit 0
fi

BUILD_DIR="${1:-$REPO_ROOT/build}"

echo "== configure =="
cmake -B "$BUILD_DIR" -S "$REPO_ROOT" "${CMAKE_LAUNCHER_ARGS[@]}"

echo "== build =="
cmake --build "$BUILD_DIR" -j "$(nproc)"

echo "== ctest =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

# Training and serving run the active kernel tier, so on an AVX2 runner
# the pass above exercises only the fast tier. Re-run the whole suite
# pinned to the scalar reference tier: the kernel and training suites,
# and the bitwise model and serving suites (graph == workspace == split
# == slate) the scoring API leans on.
echo "== ctest (whole suite, AWMOE_FORCE_SCALAR=1) =="
AWMOE_FORCE_SCALAR=1 ctest --test-dir "$BUILD_DIR" --output-on-failure \
  -j "$(nproc)"

# Bench smoke set: a ~10ms-per-case pass over the serving benches, with
# machine-readable output kept in $BUILD_DIR/bench_smoke/ (the CI check
# job uploads the directory as the bench-smoke artifact, so latency and
# occupancy counters are diffable across PRs).
SMOKE_DIR="$BUILD_DIR/bench_smoke"
mkdir -p "$SMOKE_DIR"

for bench in bench_inference_path bench_serving_gate_sharing \
             bench_serving_rollout; do
  if [ -x "$BUILD_DIR/$bench" ]; then
    echo "== $bench (smoke) =="
    MIN_TIME_FLAG="$(bench_min_time_flag "$BUILD_DIR/$bench")"
    "$BUILD_DIR/$bench" "$MIN_TIME_FLAG" \
      --benchmark_out="$SMOKE_DIR/$bench.json" \
      --benchmark_out_format=json
  else
    echo "$bench not built (google-benchmark missing); skipped"
  fi
done

# bench_serving_longtail is a table bench (no google-benchmark), so its
# smoke artifact is the printed table; tiny training keeps it to
# seconds.
if [ -x "$BUILD_DIR/bench_serving_longtail" ]; then
  echo "== bench_serving_longtail (smoke) =="
  "$BUILD_DIR/bench_serving_longtail" --train_sessions=300 --epochs=1 \
    | tee "$SMOKE_DIR/bench_serving_longtail.txt"
else
  echo "bench_serving_longtail not built; skipped"
fi

# bench_fleet_load smoke: 2 shards, 10k Zipf users, short closed-loop +
# overload sweep + the session-cache repeat-rate sweep (0.0/0.5/0.8,
# cache on vs off). Its own JSON (admission + fleet-scaling + cache
# gates) lands next to the google-benchmark artifacts. The cache gate
# is ENFORCED: a level-1 hit must be tail-cheaper than a miss, or the
# cache is not earning its memory.
if [ -x "$BUILD_DIR/bench_fleet_load" ]; then
  echo "== bench_fleet_load (smoke, cache repeat-rate sweep) =="
  "$BUILD_DIR/bench_fleet_load" --smoke --shards=2 --users=10000 \
    --json="$SMOKE_DIR/fleet_load.json" \
    | tee "$SMOKE_DIR/bench_fleet_load.txt"
  if ! grep -q '"cache_hit_p99_lt_miss_p99": true' \
      "$SMOKE_DIR/fleet_load.json"; then
    echo "bench_fleet_load: cache gate FAILED (hit-path p99 not below" \
         "miss-path p99 — see $SMOKE_DIR/fleet_load.json cache_sweep)"
    exit 1
  fi
else
  echo "bench_fleet_load not built; skipped"
fi

# bench_retrain_loop smoke: three continuous-retraining rounds through
# the drift-gated rollout, one of them sabotaged with untrained weights.
# Both gates are ENFORCED: at least one healthy round must auto-promote
# and the sabotaged round must auto-roll-back, or the train->serve loop
# is broken (see docs/training.md).
if [ -x "$BUILD_DIR/bench_retrain_loop" ]; then
  echo "== bench_retrain_loop (smoke, drift-gated retrain rounds) =="
  "$BUILD_DIR/bench_retrain_loop" --smoke --rounds=3 \
    --json="$SMOKE_DIR/retrain_loop.json" \
    | tee "$SMOKE_DIR/bench_retrain_loop.txt"
  if ! grep -q '"promoted_at_least_one": true' \
      "$SMOKE_DIR/retrain_loop.json"; then
    echo "bench_retrain_loop: promote gate FAILED (no healthy round" \
         "promoted — see $SMOKE_DIR/retrain_loop.json round_results)"
    exit 1
  fi
  if ! grep -q '"sabotage_rolled_back": true' \
      "$SMOKE_DIR/retrain_loop.json"; then
    echo "bench_retrain_loop: rollback gate FAILED (sabotaged round was" \
         "not rolled back — see $SMOKE_DIR/retrain_loop.json round_results)"
    exit 1
  fi
else
  echo "bench_retrain_loop not built; skipped"
fi

# bench_rerank smoke: trains the pointwise retriever and the listwise
# reranker, runs the two-stage pipeline over the holdout, and measures
# the slate path at sizes 10/25/50. The accuracy gate is ENFORCED: the
# two-stage NDCG@10 must not fall below pointwise-only, or the reranker
# stopped earning its serving cost (see docs/reranking.md).
if [ -x "$BUILD_DIR/bench_rerank" ]; then
  echo "== bench_rerank (smoke, two-stage retrieve->rerank) =="
  "$BUILD_DIR/bench_rerank" --smoke \
    --json="$SMOKE_DIR/rerank.json" \
    | tee "$SMOKE_DIR/bench_rerank.txt"
  if ! grep -q '"rerank_ndcg_ge_pointwise": true' \
      "$SMOKE_DIR/rerank.json"; then
    echo "bench_rerank: accuracy gate FAILED (two-stage NDCG@10 below" \
         "pointwise-only — see $SMOKE_DIR/rerank.json accuracy)"
    exit 1
  fi
else
  echo "bench_rerank not built; skipped"
fi

# Repository benchmark self-test: every BENCHMARK.json workload at tiny
# size, untraced and traced, must build, read correct with no failures
# and report exactly the declared metrics. Catches a benchmark that
# would read `correct: false` before merge.
echo "== perfbench self-test =="
CARGO_TARGET_DIR="$BUILD_DIR/perfbench_build" \
  python3 "$REPO_ROOT/perfbench/selftest.py"

echo "== docs link check =="
"$REPO_ROOT/scripts/check_docs.sh"

echo "== check.sh OK (bench smoke artifacts in $SMOKE_DIR) =="
