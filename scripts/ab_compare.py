#!/usr/bin/env python3
"""A/B comparison of two revisions on one perfbench workload.

Usage (from the repository root):

    python3 scripts/ab_compare.py --workload decode_long \\
        --metric tokens_per_s[,latency_ms_p50,...] \\
        [--parent HEAD~1] [--change HEAD|worktree] [--seeds 1,2,3] \\
        [--trace 0] [--workdir DIR]

Both revisions are exported into <workdir>/parent and <workdir>/change,
two paths of equal length (perfbench's peak_rss_mb depends on the length
of its --out-dir path). `--change worktree` exports the working tree,
uncommitted edits included. For each seed, the two sides run
perfbench/run.py back to back, the side that goes first alternating from
seed to seed so that a drifting host does not favour one side. The first
run of each side also builds it, and every run's output is kept in
<workdir>/<side>-<seed>.txt. Each run lasts BENCHMARK.json's run_seconds.

Prints, per named metric and seed, both values, their ratio (change over
parent) and each run's mean `# calibration` dram_ms, then the median
ratio with a seeded 95% bootstrap interval over the pairs. Exit status
(the worst over the metrics):
  0  a verdict was printed;
  1  a run failed, reported incorrect output, or failed operations;
  2  bad arguments;
  3  no verdict: the calibration dram_ms of the runs spread by more than
     MAX_CAL_SPREAD (max / min - 1), so the host drifted too much for
     the ratios to mean anything.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")  # equal length on purpose
# Largest calibration dram_ms spread (max / min - 1) across a set of runs
# that still gets a verdict. Same-host runs sit well inside it; a host
# whose memory bandwidth moved by 30% no longer compares like with like.
MAX_CAL_SPREAD = 0.30
# Resamples behind the median ratio's bootstrap interval, drawn from a
# fixed seed so the same ratios always print the same interval.
BOOTSTRAP_RESAMPLES = 10000
BOOTSTRAP_SEED = 1


def parse_run(stdout):
    """The result of one perfbench/run.py invocation from its stdout.

    Returns {"metrics": {name: value}, "correct": bool, "failed": int,
    "dram_ms": [every `# calibration ...` dram_ms]}; raises ValueError
    when the output has no result line.
    """
    dram = []
    result = None
    for line in stdout.splitlines():
        line = line.strip()
        if line.startswith("# calibration") and " dram_ms " in line:
            fields = line.split()
            dram.append(float(fields[fields.index("dram_ms") + 1]))
        elif line.startswith("{"):
            result = json.loads(line)
    if result is None:
        raise ValueError("no result line in perfbench output")
    return {
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "correct": bool(result.get("correct")),
        "failed": int(result.get("failed", 0)),
        "dram_ms": dram,
    }


def calibration_spread(runs):
    """max / min - 1 over the runs' mean dram_ms (None without any)."""
    means = [statistics.fmean(r["dram_ms"]) for r in runs if r["dram_ms"]]
    if not means:
        return None
    return max(means) / min(means) - 1.0


def bootstrap_interval(ratios):
    """95% percentile-bootstrap interval (lo, hi) of the median of ratios.

    Resamples the pairs with replacement BOOTSTRAP_RESAMPLES times from
    BOOTSTRAP_SEED and takes the 2.5th and 97.5th percentile medians.
    """
    rng = random.Random(BOOTSTRAP_SEED)
    medians = sorted(
        statistics.median(rng.choices(ratios, k=len(ratios)))
        for _ in range(BOOTSTRAP_RESAMPLES))
    return (medians[int(0.025 * (BOOTSTRAP_RESAMPLES - 1))],
            medians[int(0.975 * (BOOTSTRAP_RESAMPLES - 1))])


def summarize(pairs, metric, better, max_spread):
    """Report lines and exit status for a list of (seed, parent, change).

    @p better is "higher" or "lower" (BENCHMARK.json's direction).
    """
    lines = []
    status = 0
    ratios = []
    lines.append(f"{'seed':>6} {'parent':>12} {'change':>12} {'ratio':>7}"
                 f" {'dram_ms p/c':>15}")
    for seed, a, b in pairs:
        for side, run in (("parent", a), ("change", b)):
            if not run["correct"] or run["failed"]:
                lines.append(f"seed {seed}: {side} run incorrect or "
                             f"{run['failed']} failed ops")
                status = 1
        va, vb = a["metrics"].get(metric), b["metrics"].get(metric)
        if va is None or vb is None:
            lines.append(f"seed {seed}: metric {metric} missing")
            return lines, 1
        ratio = vb / va if va else float("inf")
        ratios.append(ratio)
        da = statistics.fmean(a["dram_ms"]) if a["dram_ms"] else float("nan")
        db = statistics.fmean(b["dram_ms"]) if b["dram_ms"] else float("nan")
        lines.append(f"{seed:>6} {va:>12.4g} {vb:>12.4g} {ratio:>7.3f}"
                     f" {da:>7.3f}/{db:<7.3f}")
    if status:
        return lines, status
    spread = calibration_spread([r for _, a, b in pairs for r in (a, b)])
    if spread is None:
        lines.append("no verdict: no run printed a calibration line")
        return lines, 3
    lines.append(f"calibration dram_ms spread {spread:.3f} "
                 f"(bound {max_spread:.3f})")
    if spread > max_spread:
        lines.append("no verdict: the host drifted beyond the bound")
        return lines, 3
    wins = sum(1 for r in ratios if (r > 1.0) == (better == "higher")
               and r != 1.0)
    lo, hi = bootstrap_interval(ratios)
    lines.append(f"{metric}: median ratio {statistics.median(ratios):.3f} "
                 f"[95% bootstrap {lo:.3f}, {hi:.3f}] (change/parent, "
                 f"{better} is better); change better in {wins} of "
                 f"{len(ratios)} pairs")
    return lines, 0


def export(rev, dest):
    """Write revision @p rev (or the working tree for "worktree") to dest."""
    os.makedirs(dest)
    if rev == "worktree":
        files = subprocess.run(
            ["git", "ls-files", "-z", "-co", "--exclude-standard"], cwd=ROOT,
            check=True, stdout=subprocess.PIPE).stdout.split(b"\0")
        for name in filter(None, files):
            path = os.path.join(ROOT, name.decode())
            if os.path.isfile(path):
                out = os.path.join(dest, name.decode())
                os.makedirs(os.path.dirname(out), exist_ok=True)
                with open(path, "rb") as src, open(out, "wb") as dst:
                    dst.write(src.read())
        return
    with tempfile.TemporaryFile() as tar:
        subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                       check=True, stdout=tar)
        tar.seek(0)
        with tarfile.open(fileobj=tar) as t:
            t.extractall(dest)


def run_side(checkout, args, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    with open(f"{checkout}-{seed}.txt", "w") as log:
        log.write(proc.stdout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode} "
                           f"in {checkout}")
    return parse_run(proc.stdout)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--metric", required=True,
                        help="one or more comma-separated metric names")
    parser.add_argument("--parent", default="HEAD~1")
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--seeds", default="1,2,3")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    names = [m for m in args.metric.split(",") if m]
    unknown = [m for m in names if m not in metrics]
    if not names or unknown:
        print(f"unknown metric {','.join(unknown)}", file=sys.stderr)
        return 2
    seeds = [int(s) for s in args.seeds.split(",") if s]
    workdir = args.workdir or tempfile.mkdtemp(prefix="ab_compare_")
    checkouts = [os.path.join(workdir, side) for side in SIDES]
    for rev, dest in zip((args.parent, args.change), checkouts):
        if os.path.exists(dest):
            print(f"{dest} exists; pass an empty --workdir", file=sys.stderr)
            return 2
        export(rev, dest)
    print(f"# parent {args.parent} -> {checkouts[0]}")
    print(f"# change {args.change} -> {checkouts[1]}")

    pairs = []
    for i, seed in enumerate(seeds):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        runs = {}
        for side in order:
            runs[side] = run_side(checkouts[side], args, seed,
                                  spec["run_seconds"])
        pairs.append((seed, runs[0], runs[1]))
    status = 0
    for name in names:
        lines, code = summarize(pairs, name, metrics[name]["better"],
                                MAX_CAL_SPREAD)
        print(f"## {name}")
        print("\n".join(lines))
        status = max(status, code)
    return status


if __name__ == "__main__":
    sys.exit(main())
