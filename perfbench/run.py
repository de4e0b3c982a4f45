#!/usr/bin/env python3
"""End-to-end benchmark: from a materialized image to TTFT.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rps2 --seed 1 --seconds 20 --trace 0

Builds perfbench/ (the repository's src/ libraries plus the
medusa_perfbench binary, Release) under $CARGO_TARGET_DIR, default
.bench_build, then runs one measurement and relays its result: the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Build logs go to standard error. Exits
non-zero without a result when the build or the run fails.

--trace 1 reports the per-layer metrics instead of the end-to-end ones
and leaves the run's spans, and the cluster scheduler's own spans, as
Chrome trace JSON in <build>/traces/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Seconds a run may take beyond its measuring window (set-up, start-up).
RUN_SLACK_SEC = 120


def build(build_dir):
    """Configure (once) and build medusa_perfbench; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--parallel", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "medusa_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(root, "perfbench"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-dir", trace_dir]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=args.seconds + RUN_SLACK_SEC)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        print(f"perfbench: run failed with code {run.returncode}",
              file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: malformed result", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
