#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds the
benchmark (the `atlas` library plus the perfbench binary, Release) under
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
only rebuild what changed. The binary's last stdout line is the JSON
result; build output goes to stderr.

--self-test runs every workload of BENCHMARK.json for a few ops with
tracing off and on, and asserts that every metric BENCHMARK.json names
is printed with its unit, that no op failed and that every output check
passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds; returns the binary path or None."""
    out = build_dir()
    binary = os.path.join(out, "perfbench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    return binary if os.path.exists(binary) else None


def run_workload(binary, args, capture):
    spans = os.path.join(build_dir(), "spans")
    os.makedirs(spans, exist_ok=True)
    cmd = [binary] + args + ["--span-dir", spans]
    return subprocess.run(cmd, cwd=ROOT, timeout=175,
                          stdout=subprocess.PIPE if capture else None)


def self_test(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in ("0", "1"):
            args = ["--workload", workload, "--seed", "7", "--seconds", "1",
                    "--trace", trace, "--max-ops", "3"]
            proc = run_workload(binary, args, capture=True)
            lines = proc.stdout.decode().strip().splitlines()
            tag = f"{workload} trace={trace}"
            if proc.returncode != 0 or not lines:
                problems.append(f"{tag}: exit {proc.returncode}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{tag}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] != 0 or \
                    result["attempted"] < 1:
                problems.append(f"{tag}: correct={result['correct']} "
                                f"failed={result['failed']} "
                                f"attempted={result['attempted']}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                units = sorted(k for k in got if k in expected[trace]
                               and got[k] != expected[trace][k])
                problems.append(f"{tag}: missing {missing} extra {extra} "
                                f"wrong units {units}")
            print(f"self-test {tag}: {len(got)} metrics, "
                  f"{result['attempted']} ops", file=sys.stderr)
    for p in problems:
        print("self-test FAIL: " + p, file=sys.stderr)
    print("self-test " + ("FAIL" if problems else "PASS"), file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed")
    parser.add_argument("--seconds")
    parser.add_argument("--trace", choices=["0", "1"])
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and None in (args.workload, args.seed, args.seconds,
                                       args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.self_test:
        return self_test(binary)
    proc = run_workload(binary, ["--workload", args.workload, "--seed",
                                 args.seed, "--seconds", args.seconds,
                                 "--trace", args.trace], capture=False)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
