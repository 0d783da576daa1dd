#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--size full|tiny]

Run from the root of a checkout. Builds perfbench/ (the awmoe library
plus the perfbench binary, CMake Release) into $CARGO_TARGET_DIR (default
.bench_build) on first use, then runs the binary once and relays its
output. The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it is the
report (fingerprint, sample counts, supporting figures). A traced run
also writes its spans to <build dir>/traces/. Exits non-zero without a
result when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 170


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds the binary; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, check=False)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(step)}")
            return None
    binary = build_dir / "perfbench"
    return binary if binary.is_file() else None


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--size", default="full", choices=["full", "tiny"])
    args = parser.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    binary = build(build_dir)
    if binary is None:
        return 1

    command = [str(binary), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               args.trace, "--size", args.size]
    if args.trace == "1":
        traces = target / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        command += ["--trace_out",
                    str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s and was killed")
        return 1
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or len(lines) < 2 or \
            not lines[-2].startswith("report "):
        sys.stderr.write(done.stdout)
        log(f"perfbench exited with code {done.returncode}")
        return 1
    report = json.loads(lines[-2][len("report "):])
    report["fingerprint"]["commit"] = git_commit()
    for line in lines[:-2]:
        print(line)
    print("report " + json.dumps(report))
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
