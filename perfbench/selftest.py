#!/usr/bin/env python3
"""Fast self-test of the benchmark.

Usage (from the repository root):

    python3 perfbench/selftest.py               # every workload, tiny size
    python3 perfbench/selftest.py --held-out N  # every workload, full size,
                                                # at seed N

Runs every workload with --trace 0 and --trace 1 and asserts that:
  * every run passes its output checks (correct, failed == 0);
  * the emitted metric names and units match BENCHMARK.json exactly, and
    every end-to-end value is positive;
  * the traced run's span log is well nested, and the span self times plus
    simnet.loop_self_s add up to the traced core-beaconing wall time;
  * the per-kind self-time metrics equal the sums over the span log.
Exits non-zero on the first failure.
"""
import argparse
import json
import os
import subprocess
import sys

import run

SCION_KINDS = {"core.handle_pcb", "core.on_interval", "simnet.send",
               "faults.hook", "core.on_link_down", "core.on_link_up",
               "experiment.probe", "perfbench.harvest"}
TOLERANCE_S = 1e-6


def fail(msg):
    print(f"selftest: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def run_once(binary, workload, seed, size, trace, spans):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), "--size", size]
    if spans:
        cmd += ["--spans-out", spans]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        fail(f"{workload} trace={trace}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    try:
        run.validate(result, trace)
    except RuntimeError as e:
        fail(f"{workload} trace={trace}: {e}")
    if not result["correct"] or result["failed"] != 0:
        fail(f"{workload} trace={trace}: checks failed: {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def check_spans(workload, path, metrics):
    """Self times from the span log add up to the traced wall time."""
    spans = []
    kinds = {}
    with open(path) as f:
        for line in f:
            fields = line.split()
            if fields[0] == "#":
                continue
            if fields[0] == "scion_wall_ns":
                wall_s = int(fields[1]) * 1e-9
            elif fields[0] == "kind":
                kinds[fields[1]] = fields[2]
            else:
                kind, start, dur, parent, _allocs = fields
                spans.append((kinds[kind], int(start), int(start) + int(dur),
                              int(parent)))
    child = [0] * len(spans)
    for kind, start, end, parent in spans:
        if end < start:
            fail(f"{workload}: span {kind} ends before it starts")
        if parent >= 0:
            _, p_start, p_end, _ = spans[parent]
            if not (p_start <= start and end <= p_end):
                fail(f"{workload}: span {kind} escapes its parent")
            child[parent] += end - start
    self_s = {}
    for i, (kind, start, end, _) in enumerate(spans):
        self_s[kind] = self_s.get(kind, 0.0) + (end - start - child[i]) * 1e-9
    accounted = metrics["simnet.loop_self_s"] + sum(
        s for k, s in self_s.items() if k in SCION_KINDS)
    if abs(accounted - wall_s) > TOLERANCE_S:
        fail(f"{workload}: span self times + loop self = {accounted:.9f} s, "
             f"traced wall = {wall_s:.9f} s")
    for metric, kind in (("core.handle_pcb_s", "core.handle_pcb"),
                         ("core.on_interval_self_s", "core.on_interval"),
                         ("simnet.send_s", "simnet.send")):
        if abs(metrics[metric] - self_s.get(kind, 0.0)) > TOLERANCE_S:
            fail(f"{workload}: {metric} = {metrics[metric]} but the span log "
                 f"sums to {self_s.get(kind, 0.0)}")
    return len(spans), wall_s


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--held-out", type=int, default=None, metavar="SEED",
                    help="run the full-size workloads at this seed instead")
    args = ap.parse_args()
    size = "tiny" if args.held_out is None else "full"
    seed = 1 if args.held_out is None else args.held_out

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(run.ROOT, ".bench_build"))
    binary = run.build(build_dir)
    out_dir = os.path.join(run.ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    for workload in run.WORKLOADS:
        e2e = run_once(binary, workload, seed, size, 0, None)
        for name, value in e2e.items():
            if not value > 0:
                fail(f"{workload}: end-to-end metric {name} = {value}")
        spans = os.path.join(out_dir, f"selftest-{workload}.spans")
        layer = run_once(binary, workload, seed, size, 1, spans)
        n, wall = check_spans(workload, spans, layer)
        print(f"selftest: {workload} ({size}, seed {seed}): ok — wall "
              f"{e2e['wall_s']:.3f} s, {n} spans over {wall:.3f} s traced")
    print("selftest: all workloads passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
