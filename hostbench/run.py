#!/usr/bin/env python3
"""Builds and runs the gnnpart host-time benchmark for one workload.

    python3 hostbench/run.py --workload distgnn --seed 42 --seconds 25 --trace 0

Run it from the root of a source tree. The first run builds the benchmark
binary and the gnnpart libraries from source under .bench_build/ (the
repository's default settings: RelWithDebInfo, GNNPART_CHECK_LEVEL=cheap);
later runs only rebuild what changed. Its inputs are generated from --seed.

With --trace 0 the result holds the end-to-end metrics, with --trace 1 the
per-layer metrics (spans go to .bench_build/traces/). The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics. The exit code is 0 only when every cell succeeded and every output
digest matched (a failed cell still prints its result line); a failed build,
or a benchmark binary that ends without a result, exits 1 without a
result line.

    --pin   run without the pinned digests and write this run's digests for
            (workload, seed) into hostbench/digests.tsv instead
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
DIGESTS = BENCH_DIR / "digests.tsv"
WORKLOADS = ("distgnn", "distdgl", "serve-congested", "serve-light")
# One fixed thread count, no larger than the machine's.
THREADS = min(4, os.cpu_count() or 1)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"hostbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (until a build has succeeded) and builds the benchmark binary;
    returns its path."""
    cmake_dir = BUILD_DIR / "cmake"
    cmake_dir.mkdir(parents=True, exist_ok=True)
    binary = cmake_dir / "hostbench"
    log_path = BUILD_DIR / "build.log"
    steps = []
    if not binary.exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(cmake_dir)])
    steps.append(["cmake", "--build", str(cmake_dir), "--target", "hostbench",
                  "-j", str(THREADS)])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                rc = -1
            if rc != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build step failed: {' '.join(cmd)}")
    return binary


def run_bench(binary, workload, seed, seconds, trace, threads=THREADS,
               tiny=False, digests=DIGESTS):
    """Runs the benchmark binary once; returns (exit code, parsed last line
    or None, stderr text)."""
    work = BUILD_DIR / "work"
    work.mkdir(parents=True, exist_ok=True)
    tag = f"{workload}-{seed}-{os.getpid()}"
    cmd = [str(binary), workload, "--seed", str(seed), "--threads",
           str(threads), "--seconds", str(seconds),
           "--graph-file", str(work / f"{tag}.bin")]
    if digests is not None:
        cmd += ["--digests", str(digests)]
    if trace:
        traces = BUILD_DIR / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{tag}.jsonl")]
    if tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result, proc.stderr


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def pin(workload, seed, digests):
    """Replaces the pinned digests of (workload, seed) with `digests`."""
    keep = []
    if DIGESTS.exists():
        for line in DIGESTS.read_text().splitlines():
            fields = line.split()
            if len(fields) == 4 and fields[:2] == [workload, str(seed)]:
                continue
            keep.append(line)
    keep += [f"{workload}\t{seed}\t{cell}\t{digest}"
             for cell, digest in digests.items()]
    DIGESTS.write_text("\n".join(keep) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    binary = build()
    rc, result, stderr = run_bench(
        binary, args.workload, args.seed, args.seconds, args.trace,
        digests=None if args.pin else DIGESTS)
    sys.stderr.write(stderr)
    if result is None:
        fail(f"{args.workload} exited {rc} without a result")
    names = sorted(result["metrics"])
    if names != sorted(expected_metrics(args.trace)):
        fail(f"metric set differs from BENCHMARK.json: {names}")
    for error in result.get("errors", []):
        print(f"hostbench: {error}", file=sys.stderr)
    if args.pin:
        if rc != 0:
            fail("not pinning the digests of a failed run")
        pin(args.workload, args.seed, result["digests"])
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    sys.exit(rc)


if __name__ == "__main__":
    main()
