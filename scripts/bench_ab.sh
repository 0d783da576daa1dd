#!/usr/bin/env bash
# Paired A/B run of the repository benchmark: a base commit against the
# working tree, on the same host, in alternating order.
#
# Usage:
#   scripts/bench_ab.sh <base-ref> <workload> [--pairs N] [--seconds S]
#                       [--size full|tiny] [--no-bounds] [--trace]
#
# The base is exported with `git archive <base-ref>` into a temporary
# directory and built there with its own CARGO_TARGET_DIR; the head is
# the working tree, built into $CARGO_TARGET_DIR (default .bench_build).
# Pair i runs seed 9101+i on both sides, base first on even pairs and
# head first on odd ones, so a slow drift of the host's load does not
# favour one side. The seeds are kept away from the small ones used
# while developing.
#
# For every end-to-end metric of BENCHMARK.json it prints the base and
# head median and IQR, the pairs head won, the median relative gap
# (positive = head better) and the pairs where head was worse than the
# base by more than the metric's bound. Exits non-zero when any run
# fails, reads `correct: false` or reports failed operations, or when a
# metric is worse than its bound in a majority of pairs (--no-bounds
# reports the bound column without failing on it: a smoke run of one
# tiny pair checks that the pipeline works, it measures nothing).
#
# --trace adds a second run per side and pair, with `--trace 1`, in the
# same order, and prints the base and head medians of every per-layer
# metric of BENCHMARK.json that the workload reports as non-zero. The
# traced runs attribute a change to layers; they never enter the
# end-to-end table or its bounds.
# BENCHMARK.json is only read.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

usage() {
  sed -n '2,8p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//'
  exit 2
}

[ $# -ge 2 ] || usage
BASE_REF="$1"
WORKLOAD="$2"
shift 2
PAIRS=10
SECONDS_PER_RUN=20
SIZE=full
GATE_BOUNDS=1
TRACE=0
while [ $# -gt 0 ]; do
  case "$1" in
    --pairs) PAIRS="$2"; shift 2 ;;
    --seconds) SECONDS_PER_RUN="$2"; shift 2 ;;
    --size) SIZE="$2"; shift 2 ;;
    --no-bounds) GATE_BOUNDS=0; shift ;;
    --trace) TRACE=1; shift ;;
    *) echo "bench_ab: unknown argument $1" >&2; usage ;;
  esac
done

BASE_SHA="$(git -C "$REPO_ROOT" rev-parse --verify "$BASE_REF^{commit}")"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/bench_ab.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT
mkdir -p "$WORK/base"
git -C "$REPO_ROOT" archive "$BASE_SHA" | tar -x -C "$WORK/base"

HEAD_TARGET="${CARGO_TARGET_DIR:-$REPO_ROOT/.bench_build}"
BASE_TARGET="$WORK/base_build"
RESULTS="$WORK/results.jsonl"
TRACED="$WORK/traced.jsonl"
: > "$RESULTS"
: > "$TRACED"

# run_side <base|head> <pair> <seed> <trace 0|1>: one benchmark run;
# appends {"side", "pair", "result"} to $RESULTS (or $TRACED for a
# traced run), or stops the script.
run_side() {
  local side="$1" pair="$2" seed="$3" trace="$4" root target out results
  if [ "$side" = base ]; then
    root="$WORK/base"; target="$BASE_TARGET"
  else
    root="$REPO_ROOT"; target="$HEAD_TARGET"
  fi
  results="$RESULTS"
  [ "$trace" = 1 ] && results="$TRACED"
  if ! out="$(CARGO_TARGET_DIR="$target" python3 "$root/perfbench/run.py" \
      --workload "$WORKLOAD" --seed "$seed" --seconds "$SECONDS_PER_RUN" \
      --trace "$trace" --size "$SIZE" 2> "$WORK/$side.log")"; then
    tail -n 40 "$WORK/$side.log" >&2
    echo "bench_ab: $side run failed (pair $pair, seed $seed, trace" \
         "$trace)" >&2
    exit 1
  fi
  printf '{"side": "%s", "pair": %d, "result": %s}\n' "$side" "$pair" \
    "$(printf '%s\n' "$out" | tail -n 1)" >> "$results"
  echo "bench_ab: pair $pair seed $seed $side done (trace $trace)" >&2
}

echo "bench_ab: $WORKLOAD, base $BASE_REF (${BASE_SHA:0:12}) vs working" \
     "tree, $PAIRS pairs of ${SECONDS_PER_RUN}s at size $SIZE" >&2
traces=(0)
[ "$TRACE" = 1 ] && traces=(0 1)
for ((i = 0; i < PAIRS; i++)); do
  seed=$((9101 + i))
  for trace in "${traces[@]}"; do
    if ((i % 2 == 0)); then
      run_side base "$i" "$seed" "$trace"
      run_side head "$i" "$seed" "$trace"
    else
      run_side head "$i" "$seed" "$trace"
      run_side base "$i" "$seed" "$trace"
    fi
  done
done

python3 - "$REPO_ROOT/BENCHMARK.json" "$RESULTS" "$WORKLOAD" "$GATE_BOUNDS" \
    "$TRACED" <<'EOF'
import json
import statistics
import sys

spec = json.load(open(sys.argv[1]))
runs = [json.loads(line) for line in open(sys.argv[2])]
workload = sys.argv[3]
gate_bounds = sys.argv[4] == "1"
traced = [json.loads(line) for line in open(sys.argv[5])]
status = 0
for run in runs + traced:
    result = run["result"]
    if result["correct"] is not True or result["failed"] > 0:
        print(f"FAIL {run['side']} pair {run['pair']}: correct="
              f"{result['correct']} failed={result['failed']}")
        status = 1
pairs = sorted({run["pair"] for run in runs})
value = {(run["side"], run["pair"], name): metric["value"]
         for run in runs for name, metric in run["result"]["metrics"].items()}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


print(f"{workload}: {len(pairs)} pairs, head = working tree")
print(f"{'metric':<18}{'base median':>13}{'base IQR':>11}{'head median':>13}"
      f"{'head IQR':>11}{'wins':>7}{'gap':>9}{'worse>bound':>13}")
for metric in spec["end_to_end"]:
    name, bound = metric["name"], metric["bound"]
    sign = 1.0 if metric["better"] == "higher" else -1.0
    base = [value[("base", p, name)] for p in pairs]
    head = [value[("head", p, name)] for p in pairs]
    # Relative change per pair, signed so that positive is better.
    gaps = [sign * (h - b) / b if b else 0.0 for b, h in zip(base, head)]
    wins = sum(g > 0 for g in gaps)
    worse = sum(g < -bound for g in gaps)
    b1, b2, b3 = quartiles(base)
    h1, h2, h3 = quartiles(head)
    print(f"{name:<18}{b2:>13.4g}{b3 - b1:>11.3g}{h2:>13.4g}{h3 - h1:>11.3g}"
          f"{wins:>4}/{len(pairs):<2}{statistics.median(gaps):>+9.1%}"
          f"{worse:>10}/{len(pairs):<2}")
    if gate_bounds and worse * 2 > len(pairs):
        print(f"FAIL {name}: worse than its {bound:.0%} bound in {worse} of "
              f"{len(pairs)} pairs")
        status = 1

if traced:
    layer = {(run["side"], run["pair"], name): metric["value"]
             for run in traced
             for name, metric in run["result"]["metrics"].items()}
    print(f"{workload}: per-layer medians of the --trace 1 runs "
          f"({len(pairs)} pairs)")
    print(f"{'metric':<34}{'unit':>9}{'base median':>13}{'head median':>13}"
          f"{'wins':>7}{'gap':>9}")
    for metric in spec["per_layer"]:
        name = metric["name"]
        sign = 1.0 if metric["better"] == "higher" else -1.0
        base = [layer.get(("base", p, name), 0.0) for p in pairs]
        head = [layer.get(("head", p, name), 0.0) for p in pairs]
        if not any(base + head):
            continue
        gaps = [sign * (h - b) / b if b else 0.0 for b, h in zip(base, head)]
        wins = sum(g > 0 for g in gaps)
        print(f"{name:<34}{metric['unit']:>9}{statistics.median(base):>13.4g}"
              f"{statistics.median(head):>13.4g}{wins:>4}/{len(pairs):<2}"
              f"{statistics.median(gaps):>+9.1%}")
sys.exit(status)
EOF
