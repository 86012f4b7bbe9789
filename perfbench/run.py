#!/usr/bin/env python3
"""End-to-end benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload gen-seam --seed 3 --seconds 8 --trace 0
    python3 perfbench/run.py --all --seed 3      # every workload, both modes
    python3 perfbench/run.py --self-test

Run from the repository root.  Builds the dpgen libraries and the harness
(Release) under $CARGO_TARGET_DIR (default .bench_build), runs one workload
and relays its report; the last line of stdout is the JSON result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["engine-lcs", "gen-bandit2", "gen-seam", "sim-whatif"]


def run_timeout(seconds):
    """Bounds a hung run.  A gen-* run solves for about 2 x --seconds and
    makes up to three compiles on top; 170 s covers that at --seconds 12."""
    return max(170, 120 + 3 * seconds)


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Configures once, then builds incrementally; returns the harness path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "dpgen.hpp")):
        log(f"no dpgen sources under {ROOT}/src; run from a full checkout")
        sys.exit(2)
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", "4"], check=True,
                   stdout=sys.stderr)
    return os.path.join(out, "dpgen_perfbench")


def run_harness(binary, workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns (exit code, stdout lines)."""
    out_dir = os.path.join(build_dir(), "runs",
                           f"{workload}-seed{seed}-trace{trace}")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", out_dir, *extra]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=run_timeout(seconds))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"{workload} did not finish within {run_timeout(seconds)} s")
        return 1, []
    return proc.returncode, stdout.splitlines()


def self_test(binary):
    """A corrupted expected value, or a solve past its timeout, must be
    counted in failed_frac; the check must not pass them as correct."""
    cases = [
        ("engine-lcs", ["--corrupt-expected"]),
        ("sim-whatif", ["--corrupt-expected"]),
        ("gen-seam", ["--corrupt-expected"]),
        ("gen-seam", ["--solve-timeout", "0.001"]),
    ]
    ok = True
    for workload, extra in cases:
        code, lines = run_harness(binary, workload, 1, 0, 0, extra)
        result = json.loads(lines[-1]) if code == 0 and lines else None
        passed = (result is not None and not result["correct"]
                  and result["failed"] > 0)
        frac = result["failed"] / result["attempted"] if result else None
        print(f"{'PASS' if passed else 'FAIL'} {workload} {' '.join(extra)}: "
              f"failed_frac={frac}")
        ok = ok and passed
    return 0 if ok else 1


def run_all(binary, seed, seconds):
    """Every workload untraced, then traced; fails if any run is incorrect."""
    bad = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, lines = run_harness(binary, workload, seed, seconds, trace)
            for line in lines[:-1]:
                print(line)
            result = json.loads(lines[-1]) if code == 0 and lines else None
            if result is None or not result["correct"]:
                bad.append(f"{workload} trace={trace}")
            print(flush=True)
    print("all correct" if not bad else "incorrect: " + ", ".join(bad))
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=8)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload, untraced then traced")
    ap.add_argument("--self-test", action="store_true",
                    help="check that failures are counted, then exit")
    args = ap.parse_args()
    if not (args.self_test or args.all or args.workload):
        ap.error("--workload, --all or --self-test is required")

    binary = build()
    if args.self_test:
        return self_test(binary)
    if args.all:
        return run_all(binary, args.seed, args.seconds)
    code, lines = run_harness(binary, args.workload, args.seed, args.seconds,
                              args.trace)
    for line in lines:
        print(line)
    if code != 0 or not lines:
        return code or 1
    json.loads(lines[-1])  # the result line must parse
    return 0


if __name__ == "__main__":
    sys.exit(main())
