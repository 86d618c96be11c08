#!/usr/bin/env python3
"""Repository benchmark: builds the benchmark program in perfbench/ and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see BENCHMARK.json for why each exists):

  prefill_spmm  one caller, closed loop: a 256-token prompt through the five
                Llama-7B projection roles (Engine::spmm), 50% to 87.5% sparse.
  decode_long   one caller, closed loop: DecoderPlan::decode on 8 sequences
                from an empty context to 1024 tokens (one full decode per
                run, whatever --seconds says).
  serve_mixed   one generator thread into one Server shard: four decode
                session slots, closed loop, plus open-loop prompts
                (QKV + FFN) on a jittered grid.

Every engine is serial (num_threads = 1). The last stdout line is the
result: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json; with --trace 1 the
per-layer ones, where a layer a workload does not exercise reads 0.
Lines starting with '#' before it carry sample counts, the input hash,
the host calibration timings at the run's start and end, and the reason
of any failed check.

The benchmark binary builds from the repository sources into .bench_build/
on first use. A traced run first runs the workload untraced with the same
seed and seconds, and reports obs.trace_overhead_frac as the traced
latency_ms_p50 over that untraced one, minus 1.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
# Every run of this script ends within this many seconds of its start,
# building aside.
RUN_BUDGET_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "core", "engine.cpp")):
        log("perfbench: library sources (src/) not found next to perfbench/")
        return False
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", jobs])
        for cmd in steps:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if proc.returncode != 0:
                log(proc.stdout[-4000:])
                log("perfbench: build failed: " + " ".join(cmd))
                return False
    return True


def run_bench(args, trace, deadline):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if trace else "0",
           "--out-dir", BUILD]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log("perfbench: benchmark timed out")
        return None, []
    notes = [ln for ln in proc.stdout.splitlines() if ln.startswith("#")]
    for line in notes:
        print(line)
    if proc.returncode != 0:
        log(proc.stderr[-4000:])
        log(f"perfbench: benchmark exited with {proc.returncode}")
        return None, notes
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    return json.loads(lines[-1]), notes


def note_value(notes, key):
    for line in notes:
        if line.startswith("# " + key + " "):
            return float(line.split()[2])
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"perfbench: unknown workload {args.workload}")
        return 2
    if not build():
        return 1

    deadline = time.monotonic() + RUN_BUDGET_S
    expected = spec["per_layer"] if args.trace else spec["end_to_end"]
    baseline = None
    trace_file = os.path.join(BUILD, f"trace_{args.workload}.json")
    if args.trace:
        if os.path.exists(trace_file):
            os.remove(trace_file)
        untraced, _ = run_bench(args, trace=False, deadline=deadline)
        if untraced is None:
            return 1
        baseline = untraced["metrics"]["latency_ms_p50"]["value"]
    result, notes = run_bench(args, trace=bool(args.trace), deadline=deadline)
    if result is None:
        return 1
    metrics = result["metrics"]

    if args.trace:
        result["correct"] = result["correct"] and untraced["correct"]
        traced = note_value(notes, "latency_ms_p50")
        metrics["obs.trace_overhead_frac"] = {
            "value": traced / baseline - 1.0, "unit": "ratio"}
        if os.path.exists(trace_file):
            check = subprocess.run(
                [sys.executable, os.path.join(ROOT, "scripts",
                                              "validate_trace.py"),
                 trace_file], stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT, text=True)
            print("# validate_trace: " + " | ".join(check.stdout.split("\n")[:3]))
            if check.returncode != 0:
                result["correct"] = False

    # Exactly the metrics BENCHMARK.json names, with its units; a layer
    # the workload does not exercise reads 0.
    out = {}
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            if not args.trace:
                log(f"perfbench: end-to-end metric {m['name']} missing")
                return 1
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            log(f"perfbench: {m['name']} unit {got['unit']} != {m['unit']}")
            return 1
        out[m["name"]] = got
    unknown = sorted(set(metrics) - set(out))
    if unknown:
        log("perfbench: metrics not declared in BENCHMARK.json: " +
            ", ".join(unknown))
        return 1
    result["metrics"] = out
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
