#!/usr/bin/env python3
"""Serving benchmark entry point.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload bibnet_unique --seed 1 --seconds 40 --trace 0

Builds the library and rtr_perfbench from source into .bench_build/ (or
$CARGO_TARGET_DIR), writes the workload's graph snapshot, runs one
measurement and relays its output; the last line of standard output is the
result object. Workload settings live in perfbench/workloads.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ENV_KNOBS = ("RTR_NUM_THREADS", "RTR_GRAPH_MMAP", "RTR_MMAP_VERIFY",
             "RTR_SIMD", "RTR_F32_KERNELS", "RTR_LOG_LEVEL")
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170
# Keys of workloads.json that (also) go to the graph generator.
GEN_KEYS = ("dataset", "dataset_seed")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = (["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    set_knobs = [k for k in ENV_KNOBS if k in os.environ]
    if set_knobs:
        log("refusing to run: " + ", ".join(set_knobs) +
            " would change the code path under test")
        return 2
    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)
    if args.workload not in workloads:
        log("unknown workload %r; known: %s" %
            (args.workload, ", ".join(sorted(workloads))))
        return 2
    settings = workloads[args.workload]

    out_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                               ".bench_build")
    build_dir = os.path.join(out_root, "perfbench")
    if not build(build_dir):
        return 1
    # Only the traced binary counts heap allocations (see alloc_probe.h).
    binary = os.path.join(build_dir, "rtr_perfbench_traced" if args.trace
                          else "rtr_perfbench")

    data_dir = os.path.join(out_root, "perfbench-data",
                            "%s-%d-%d" % (args.workload, args.seed,
                                          os.getpid()))
    os.makedirs(data_dir, exist_ok=True)
    try:
        graph = os.path.join(data_dir, "graph.rtrsnap")
        gen = [binary, "gen", "--out", graph]
        for key in GEN_KEYS:
            gen += ["--" + key, str(settings[key])]
        if subprocess.run(gen, stdout=sys.stderr, timeout=RUN_TIMEOUT_S,
                          check=False).returncode != 0:
            log("graph generation failed")
            return 1
        cmd = [binary, "run", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--graph", graph]
        # The latest run's raw samples (and spans, when traced) stay in
        # the build directory for inspection.
        cmd += ["--samples-out", os.path.join(
            out_root, "perfbench-samples-%s.jsonl" % args.workload)]
        if args.trace:
            cmd += ["--spans-out", os.path.join(
                out_root, "perfbench-spans-%s.jsonl" % args.workload)]
        for key, value in settings.items():
            cmd += ["--" + key, str(value)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, check=False, text=True)
        sys.stdout.write(done.stdout)
        sys.stdout.flush()
        return done.returncode
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
