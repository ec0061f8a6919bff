#!/usr/bin/env python3
"""Builds and runs the two-clock benchmark, then checks determinism.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: lb_spill, lb_churn, rpc_mix, fail2ban (see perfbench/README.md).
Default seed 1, held-out seed 2.

The benchmark binary is built from source with cargo into
``$CARGO_TARGET_DIR`` (default ``.bench_build``). Its last line of output
carries a fingerprint: the exact virtual-clock results and counts of the
run. This script keeps the first fingerprint seen for each (build,
workload, seed, trace mode) under the target directory and fails the run
if a later run of the same build and seed reaches a different one; any
change to the program rebuilds the binary and starts a fresh record. The last line printed here
is the result: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lb_spill", "lb_churn", "rpc_mix", "fail2ban")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def target_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(target):
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return None
    if r.returncode != 0:
        log(f"build failed with exit code {r.returncode}")
        return None
    return os.path.join(target, "release", "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_fingerprint(target, binary, args, fingerprint):
    """Returns a problem string, or None when this run agrees with every
    earlier run of the same build and seed."""
    with open(binary, "rb") as f:
        build_id = hashlib.sha256(f.read()).hexdigest()[:16]
    d = os.path.join(target, "perfbench-out", "fingerprints", build_id)
    os.makedirs(d, exist_ok=True)
    path = os.path.join(
        d, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    if os.path.exists(path):
        with open(path) as f:
            first = json.load(f)
        keys = sorted(set(first) | set(fingerprint))
        differ = [k for k in keys if first.get(k) != fingerprint.get(k)]
        if differ:
            return ("virtual results differ from an earlier run of this build "
                    "and seed: " + ", ".join(
                        f"{k}: {first.get(k)} vs {fingerprint.get(k)}"
                        for k in differ[:4]))
        return None
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(fingerprint, f, sort_keys=True)
    os.replace(tmp, path)
    return None


def main():
    args = parse_args()
    target = target_dir()
    binary = build(target)
    if binary is None:
        return 2
    cmd = [
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--out-dir", os.path.join(target, "perfbench-out"),
    ]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
        return 3
    lines = r.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"benchmark exited with {r.returncode} and printed no result")
        return 3

    fingerprint = result.pop("fingerprint")
    problem = check_fingerprint(target, binary, args, fingerprint)
    if problem:
        log(f"FAILED: {problem}")
        result["correct"] = False
    missing = expected_metrics(args.trace) ^ set(result["metrics"])
    if missing:
        log(f"FAILED: metrics differ from BENCHMARK.json: {sorted(missing)}")
        result["correct"] = False

    print(json.dumps(result), flush=True)
    return 0 if result["correct"] and r.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
