#!/usr/bin/env python3
"""Builds the simulator benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR, or
.bench_build when unset, then runs the benchmark binary. Its last stdout
line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The metric names and units are checked against BENCHMARK.json; a mismatch,
a failed build or a crashed run exits non-zero without printing a result.
With --trace 1 the traced run's spans are written to
.bench_out/<workload>.spans (the latest traced run of each workload).
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("beacon-baseline", "beacon-diversity", "bgp-internet", "churn")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("simulator sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", "4"], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def expected_metrics(trace):
    """(name -> unit) the run must emit, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def validate(result, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError(f"result keys {sorted(result)}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        raise RuntimeError(f"metrics differ from BENCHMARK.json: missing "
                           f"{missing}, extra {extra}, wrong units {wrong}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    try:
        binary = build(build_dir)
    except (RuntimeError, subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(out_dir, f"{args.workload}.spans")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"benchmark exited with {proc.returncode}")
        return 1
    try:
        result = json.loads(lines[-1])
        validate(result, args.trace)
    except (ValueError, KeyError, RuntimeError, OSError) as e:
        log(f"invalid result: {e}")
        return 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
