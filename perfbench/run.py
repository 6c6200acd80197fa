#!/usr/bin/env python3
"""Build and run the DirQ benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

The first form builds the benchmark program from this checkout's sources
(into .bench_build/, reused by later runs) and runs one workload; the last
line of standard output is the JSON result, and a traced run writes its
Chrome trace to .bench_build/traces/<workload>.json. --smoke is the
benchmark's own test: every workload at a tiny size, on seeds 42 and 7,
untraced and traced, checking that every metric BENCHMARK.json names is
present, finite and carries its unit.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
PROGRAM = os.path.join(BUILD, "perfbench")
WORKLOADS = ("paper_grid", "serve4", "lmac_lossy")
RUN_TIMEOUT_S = 170
SMOKE_SEEDS = (42, 7)

# The sources whose entry points src/replica.cpp mirrors, with their
# SHA-256 when the replica was last checked against them. A mismatch is
# reported, not fatal: the byte-identity gate decides whether the replica
# still reproduces the entry point.
MIRRORED = {
    "src/core/experiment.cpp":
        "7aa0b4ac5b9c8c2466fa07103bb0a08cd08e006971e26e4b339e98d2545ab62d",
    "src/serve/server.cpp":
        "1b85236e7c72fc473b224f7468d8f2b505c5e932ec398a6b9c787fba103b8be7",
    "src/sweep/runner.cpp":
        "fefe2b6c48d90c3ba9a616b16463bcc1adea7afd0ea3b0040a2825aaf1894961",
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    for name in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, name)):
            fail(f"{name} not found beside perfbench/; "
                 "run from a DirQ checkout")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", "4"])
    for cmd in steps:
        # Build logs go to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() or "unknown"


def replica_sources():
    for path, digest in MIRRORED.items():
        with open(os.path.join(ROOT, path), "rb") as f:
            if hashlib.sha256(f.read()).hexdigest() != digest:
                print(f"perfbench: {path} changed since the traced replica "
                      "was checked against it", file=sys.stderr)
                return "changed"
    return "match"


def run_program(workload, seed, seconds, trace, size="full", capture=False):
    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [PROGRAM, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--size", size,
           "--trace-out", os.path.join(traces, f"{workload}.json"),
           "--commit", commit(), "--replica-sources", replica_sources()]
    try:
        return subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    wanted = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    for workload in WORKLOADS:
        for seed in SMOKE_SEEDS:
            for trace in (0, 1):
                where = f"{workload} seed {seed} trace {trace}"
                r = run_program(workload, seed, 0.25, trace, "tiny", True)
                if r.returncode != 0:
                    problems.append(f"{where}: exit code {r.returncode}")
                    continue
                result = json.loads(r.stdout.strip().splitlines()[-1])
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"{where}: result keys {sorted(result)}")
                    continue
                if not result["correct"] or result["failed"] != 0:
                    problems.append(f"{where}: correct={result['correct']} "
                                    f"failed={result['failed']}")
                metrics = result["metrics"]
                if set(metrics) != set(wanted[trace]):
                    diff = sorted(set(metrics) ^ set(wanted[trace]))
                    problems.append(f"{where}: metrics differ from "
                                    f"BENCHMARK.json: {diff}")
                for name, m in metrics.items():
                    value = m.get("value")
                    if not isinstance(value, (int, float)) or \
                            not math.isfinite(value):
                        problems.append(f"{where}: {name} = {value!r}")
                    if m.get("unit") != wanted[trace].get(name):
                        problems.append(
                            f"{where}: {name} unit {m.get('unit')!r}")
                print(f"smoke {where}: {len(metrics)} metrics", flush=True)
    for p in problems:
        print(f"smoke FAILED {p}", file=sys.stderr)
    print("smoke: " + ("FAILED" if problems else "all checks passed"))
    return 1 if problems else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--smoke", action="store_true",
                   help="tiny-size self-test of every workload and metric")
    a = p.parse_args()
    if not a.smoke and None in (a.workload, a.seed, a.seconds, a.trace):
        p.error("--workload, --seed, --seconds and --trace are required")
    build()
    if a.smoke:
        return smoke()
    return run_program(a.workload, a.seed, a.seconds, a.trace).returncode


if __name__ == "__main__":
    sys.exit(main())
