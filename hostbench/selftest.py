#!/usr/bin/env python3
"""Self-tests of the host-time benchmark, each at hostbench's tiny size.

    python3 hostbench/selftest.py

Builds the benchmark binary like run.py does, then checks that
  - two runs with the same seed give identical work counters and digests;
  - the digests at --threads 1 equal those at the benchmark's thread count;
  - a different seed changes every digest;
  - a pinned digest is checked: a matching pin passes, a wrong one fails;
  - an unknown workload, a bad seed or a bad thread count exits 2 with usage.
Exits 0 when every check passes.
"""
import subprocess
import sys

import run

SECONDS = 0.2
failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def counters(result):
    """The per-layer metrics that count work rather than time it."""
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] not in ("s", "1/s", "ratio")}


def tiny(binary, workload, seed, threads=run.THREADS, trace=1,
         digests=None):
    rc, result, stderr = run.run_bench(binary, workload, seed, SECONDS,
                                        trace, threads=threads, tiny=True,
                                        digests=digests)
    if rc != 0 or result is None or not result["correct"]:
        check(False, f"{workload} seed {seed} runs cleanly: {stderr.strip()}")
        return None
    return result


def main():
    binary = run.build()
    for workload in run.WORKLOADS:
        a = tiny(binary, workload, 1)
        b = tiny(binary, workload, 1)
        one = tiny(binary, workload, 1, threads=1, trace=0)
        other = tiny(binary, workload, 2)
        if None in (a, b, one, other):
            continue
        check(counters(a) == counters(b) and a["digests"] == b["digests"],
              f"{workload}: same seed, same counters and digests")
        check(one["digests"] == a["digests"],
              f"{workload}: --threads 1 digests equal --threads "
              f"{run.THREADS} digests")
        changed = [cell for cell in a["digests"]
                   if a["digests"][cell] == other["digests"].get(cell)]
        check(not changed, f"{workload}: another seed changes every digest"
              + (f" (unchanged: {changed})" if changed else ""))

    # Pinned digests: tiny runs are pinned under "<workload>@tiny".
    pins = run.BUILD_DIR / "selftest_digests.tsv"
    a = tiny(binary, "distgnn", 1)
    if a is not None:
        good = "".join(f"distgnn@tiny\t1\t{cell}\t{digest}\n"
                       for cell, digest in a["digests"].items())
        pins.write_text(good)
        b = tiny(binary, "distgnn", 1, digests=pins)
        check(b is not None and b["pinned"], "matching pins pass")
        pins.write_text(good.replace(a["digests"]["0:HDRF"], "0" * 16))
        rc, result, _ = run.run_bench(binary, "distgnn", 1, SECONDS, 0,
                                       tiny=True, digests=pins)
        check(rc == 1 and result is not None and not result["correct"]
              and result["failed"] == 1, "a wrong pin fails the run")
        pins.unlink()

    for args in (["nosuch", "--seed", "1"], ["distgnn", "--seed", "-1"],
                 ["distgnn", "--seed", "x"], ["distgnn"],
                 ["distgnn", "--seed", "1", "--threads", "0"],
                 ["distgnn", "--seed", "1", "--threads", "many"],
                 ["distgnn", "--seed", "1", "--bogus"]):
        proc = subprocess.run([str(binary)] + args + ["--tiny"],
                              capture_output=True, text=True, timeout=60)
        check(proc.returncode == 2 and "usage:" in proc.stderr
              and not proc.stdout, f"exit 2 with usage: {' '.join(args)}")

    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
