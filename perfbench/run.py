#!/usr/bin/env python3
"""The expmk benchmark: build perfbench from source, then run one workload.

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-check

Run from the root of a checkout. The benchmark binary is built with CMake
into .bench_build/ (or $CARGO_TARGET_DIR when set); the first run builds
the library from src/, later runs only relink what changed. Build output
goes to stderr, so the last line of stdout is the benchmark's JSON result.

Exit status: 0 when every output check passed, 1 when a check failed or
the build failed (e.g. src/ is missing), 2 on a command-line error.
--self-check runs a few ops of every workload and fails when a metric
named in BENCHMARK.json is missing or not finite, or when a deliberately
corrupted reference is not caught by the output check.
"""

import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("paper_grid", "whatif_scale", "serve_mixed")
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def fail(message, status=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(status)


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "scenario", "scenario.hpp")):
        fail("library sources not found under src/; run from a full checkout")
    out = build_dir()
    os.makedirs(os.path.join(out, "tmp"), exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.join(out, "tmp"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "expmk_perfbench", "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                                  stderr=sys.stderr, check=False)
        except OSError as e:
            fail(f"cannot run {cmd[0]}: {e}")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(out, "expmk_perfbench")


def git_sha():
    """HEAD's commit read from .git when the checkout has one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def invoke(binary, workload, seed, seconds, trace, extra=(), capture=False):
    traces = os.path.join(build_dir(), "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--trace-out", os.path.join(traces, f"{workload}-seed{seed}.json"),
           "--git-sha", git_sha(), *extra]
    try:
        return subprocess.run(cmd, cwd=ROOT, check=False, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")


def last_json(stdout):
    lines = [line for line in (stdout or "").splitlines() if line.strip()]
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def self_check(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    problems = []

    def metrics_ok(label, result, names):
        if result is None:
            problems.append(f"{label}: no JSON result line")
            return
        metrics = result.get("metrics", {})
        for name in names:
            value = metrics.get(name, {}).get("value")
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                problems.append(f"{label}: metric {name} missing or not finite ({value!r})")

    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]
    for w in (w["name"] for w in spec["workloads"]):
        plain = invoke(binary, w, 1, 1, 0, capture=True)
        result = last_json(plain.stdout)
        if plain.returncode != 0 or not (result or {}).get("correct"):
            problems.append(f"{w}: quick run failed (exit {plain.returncode})")
        metrics_ok(f"{w} --trace 0", result, e2e)
        ok = (result or {}).get("metrics", {}).get("ok_frac", {}).get("value")
        if ok != 1:
            problems.append(f"{w}: ok_frac is {ok!r}, not 1")
        traced = invoke(binary, w, 2, 2, 1, capture=True)
        metrics_ok(f"{w} --trace 1", last_json(traced.stdout), layers)
        corrupt = invoke(binary, w, 3, 1, 0, extra=("--corrupt-reference",), capture=True)
        result = last_json(corrupt.stdout) or {}
        if corrupt.returncode != 1 or result.get("correct") is not False \
                or not result.get("failed"):
            problems.append(f"{w}: a corrupted reference was not caught "
                            f"(exit {corrupt.returncode})")
        print(f"self-check {w}: done", file=sys.stderr)
    for bad in (["--workload", "paper_grid", "--seed", "1", "--seconds", "1",
                 "--trace", "0", "--bogus", "1"],
                ["--workload", "paper_grid", "--seed", "x", "--seconds", "1",
                 "--trace", "0"]):
        status = subprocess.run([binary, *bad], cwd=ROOT, check=False,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL).returncode
        if status != 2:
            problems.append(f"bad command line {bad} exited {status}, not 2")
    for p in problems:
        print(f"self-check FAILED: {p}", file=sys.stderr)
    print("self-check " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Build and run the expmk benchmark.", allow_abbrev=False)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    run_args = (args.workload, args.seed, args.seconds, args.trace)
    if args.self_check:
        if any(a is not None for a in run_args):
            parser.error("--self-check takes no other flag")
    elif any(a is None for a in run_args):
        parser.error("--workload, --seed, --seconds and --trace are required")
    elif args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv):
    args = parse_args(argv)
    binary = build()
    if args.self_check:
        return self_check(binary)
    done = invoke(binary, args.workload, args.seed, args.seconds, args.trace)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
