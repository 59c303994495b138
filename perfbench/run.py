#!/usr/bin/env python3
"""End-to-end simulator ledger for LIDC: build, run, and report.

Run from the repository root:

    python3 perfbench/run.py --workload fig5-genomics --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

The first form builds the benchmark (a cargo package of its own in this
directory, path-depending on the repository's crates), runs one workload,
and prints as its last stdout line one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer profile with `--trace 1`. End-to-end run times
are in `ref`, the time of a fixed reference kernel timed around each run,
so that the shared host's drifting speed cancels out; the per-layer profile
and the meta line carry the plain seconds. The line before it is
the run metadata: usable CPUs, rustc version, git commit, seed, held-out
seed and engine threads. The second form runs every workload both ways and
prints every metric in one table.

The exit code is non-zero when a build, an output check or a fingerprint
check fails. `CARGO_TARGET_DIR` (default `.bench_build` in the current
directory) holds the build.

Seed 7919 (HELD_OUT_SEED) was not used while the workloads were tuned:
re-check a gain claim on it.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["fig5-genomics", "chaos-storm", "lake-fetch"]
HELD_OUT_SEED = 7919
# A run must end within 180 s; leave room for the (no-op) build.
RUN_TIMEOUT_S = 170

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as e:
        return f"unknown ({e})"
    if out.returncode != 0:
        return "unknown (" + (out.stderr.strip().splitlines() or ["failed"])[-1] + ")"
    return out.stdout.strip()


def build():
    """Build the benchmark binary; returns its path, or None on failure."""
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        log("perfbench: the repository's crates/ directory is missing")
        return None
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        # Cargo's own output goes to stderr; stdout stays the result channel.
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        log(f"perfbench: cannot run cargo: {e}")
        return None
    if done.returncode != 0:
        log("perfbench: build failed")
        return None
    return os.path.join(target, "release", "lidc-perfbench")


def declared_metrics(trace):
    """The metric names and units BENCHMARK.json declares for a mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(binary, workload, seed, seconds, trace):
    """Run one workload; returns (exit code, stdout lines, result, binary meta)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1, [], None, {}
    lines = done.stdout.splitlines()
    result, meta = None, {}
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    for line in lines:
        if line.startswith("meta "):
            meta = json.loads(line[len("meta "):])
    valid = (isinstance(result, dict)
             and set(result) == {"correct", "attempted", "failed", "metrics"})
    if not valid:
        log("perfbench: the benchmark printed no result line")
        return done.returncode or 1, lines, None, meta
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != declared_metrics(trace):
        log("perfbench: the printed metrics differ from those BENCHMARK.json declares")
        result["correct"] = False
        return done.returncode or 1, lines, result, meta
    return done.returncode, lines, result, meta


def run_meta(seed, binary_meta):
    meta = {
        "usable_cpus": len(os.sched_getaffinity(0)),
        "rustc": command_output(["rustc", "--version"]),
        "git_commit": command_output(["git", "rev-parse", "HEAD"]),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }
    meta.update({k: v for k, v in binary_meta.items() if k != "seed"})
    return meta


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    binary = build()
    if binary is None:
        return 2

    if args.workload != "all":
        code, lines, result, meta = run_one(binary, args.workload, args.seed,
                                            args.seconds, args.trace)
        for line in lines[:-1]:
            if not line.startswith("meta "):
                print(line)
        if result is None:
            return code or 1
        print("meta " + json.dumps(run_meta(args.seed, meta)))
        print(json.dumps(result))
        return code

    # Every workload, untraced then traced, in one table.
    correct, attempted, failed, code = True, 0, 0, 0
    merged = {}
    rows = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            rc, lines, result, meta = run_one(binary, workload, args.seed,
                                              args.seconds, trace)
            for line in lines[:-1]:
                if not line.startswith("meta "):
                    print(line)
            print(f"meta {workload} trace={trace} " + json.dumps(run_meta(args.seed, meta)))
            if result is None:
                correct, code = False, rc or 1
                continue
            correct = correct and result["correct"]
            code = code or rc
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                merged[f"{workload}/{name}"] = m
                rows.append((workload, name, m["value"], m["unit"]))
    width = max((len(r[1]) for r in rows), default=10)
    for workload, name, value, unit in rows:
        print(f"{workload:<14} {name:<{width}} {value!s:>22} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return code


if __name__ == "__main__":
    sys.exit(main())
