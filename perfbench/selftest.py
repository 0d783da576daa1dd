#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at --size tiny for two seconds,
untraced and traced, through perfbench/run.py, and checks that each run
exits 0, prints a result object with exactly the four result keys, reads
correct with no failures, and prints exactly the end-to-end (untraced)
or per-layer (traced) metrics of BENCHMARK.json, by name and unit.
Exits non-zero on the first mismatch.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check_run(spec, workload, trace):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", "3", "--seconds", "2",
               "--trace", trace, "--size", "tiny"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    label = f"{workload} trace={trace}"
    if done.returncode != 0:
        return f"{label}: exit {done.returncode}\n{done.stderr[-2000:]}"
    result = json.loads(done.stdout.splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return f"{label}: result keys {sorted(result)}"
    if result["correct"] is not True or result["failed"] != 0 or \
            result["attempted"] < 1:
        return f"{label}: correct={result['correct']} " \
               f"attempted={result['attempted']} failed={result['failed']}"
    expected = spec["per_layer" if trace == "1" else "end_to_end"]
    want = {m["name"]: m["unit"] for m in expected}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        return f"{label}: metrics {got} != BENCHMARK.json {want}"
    for name, metric in result["metrics"].items():
        if not isinstance(metric["value"], (int, float)):
            return f"{label}: {name} value {metric['value']!r}"
        if trace == "0" and not metric["value"] > 0:
            return f"{label}: end-to-end {name} reads {metric['value']}"
    return None


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in ("0", "1"):
            error = check_run(spec, workload, trace)
            if error:
                print(f"FAIL {error}")
                return 1
            print(f"ok   {workload} trace={trace}", flush=True)
    print("perfbench self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
