#!/usr/bin/env python3
"""Perf-trend gate: diff a fresh BENCH_spmm.json against the checked-in one.

Fails (exit 1) on a >threshold regression for any kernel variant
(GFLOP/s), for serving decode throughput, or for the model-layer fused
FFN time — the compute hot path must not rot. All three gate hard ONLY
when the baseline verifiably comes from the same CPU model as the
runner (the artifact's "cpu" field); across machines everything is
advisory, because absolute numbers on different silicon mean nothing.

Shapes/threads must match between the two artifacts for the comparison
to mean anything; on mismatch the script warns and skips (exit 0) so a
deliberate bench re-parameterization doesn't hard-fail CI — land the
regenerated baseline in the same change.

--write-baseline copies the fresh artifact over the baseline path after
a passing comparison (or unconditionally when the baseline is missing),
which is how a stable runner class arms the hard gate: run the bench on
the runner, pass --write-baseline, and commit the result.

Usage: check_perf_trend.py <baseline.json> <fresh.json>
           [--threshold 0.10] [--write-baseline]
"""

import argparse
import json
import shutil
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="max tolerated fractional regression")
    parser.add_argument("--write-baseline", action="store_true",
                        help="on success, copy the fresh artifact over the "
                             "baseline path (arms the same-CPU hard gate "
                             "once committed from a stable runner class)")
    args = parser.parse_args(argv)

    def adopt_baseline():
        shutil.copyfile(args.fresh, args.baseline)
        print(f"wrote {args.fresh} -> {args.baseline}")

    try:
        base = load(args.baseline)
    except FileNotFoundError:
        if args.write_baseline:
            print(f"no baseline at {args.baseline}; adopting fresh artifact")
            adopt_baseline()
            return 0
        raise
    fresh = load(args.fresh)

    # Every gate below skips a section the fresh artifact lacks, so name
    # each one: a dropped section must not pass in silence.
    for name in base:
        if name not in fresh:
            print(f"WARN: baseline section {name!r} is missing from "
                  f"{args.fresh}; its gates are skipped")

    if base.get("shape") != fresh.get("shape") or \
       base.get("threads") != fresh.get("threads"):
        print(f"WARN: shape/threads differ between {args.baseline} "
              f"({base.get('shape')}, threads={base.get('threads')}) and "
              f"{args.fresh} ({fresh.get('shape')}, "
              f"threads={fresh.get('threads')}); skipping trend check — "
              "regenerate and commit the baseline artifact.")
        if args.write_baseline:
            adopt_baseline()
        return 0

    # Absolute numbers only gate hard when both artifacts verifiably come
    # from the same CPU class; across machines (or when the model string
    # could not be read — "unknown" never matches) everything is advisory.
    same_cpu = (base.get("cpu") == fresh.get("cpu") and base.get("cpu")
                and base.get("cpu") != "unknown")
    if not same_cpu:
        print(f"WARN: baseline CPU ({base.get('cpu')}) != this machine "
              f"({fresh.get('cpu')}); regressions reported warn-only. "
              "Commit a baseline from this runner class to arm the gate.")

    failures = []

    def judge(delta, line):
        # delta < -threshold == regression (callers negate where lower is
        # better; the line itself names the section). Hard only on a
        # same-CPU baseline.
        if delta < -args.threshold and same_cpu:
            failures.append(line)
            print(f"FAIL {line}")
        elif delta < -args.threshold:
            print(f"WARN {line} [cross-machine, warn-only]")
        else:
            print(f"ok   {line}")

    # Per-point sections (kernel variants, decode depths, submit-scaling
    # thread counts) match each fresh point to the baseline point with the
    # same key. The points sit at @p path in both artifacts; yields (key,
    # was, now) of their @p value. A fresh point without a baseline value,
    # or with a null one, is named (label.format(key)) in a WARN and
    # skipped; one without the key is skipped silently.
    def matched(path, key, value, label):
        base_points, fresh_points = base, fresh
        for name in path:
            base_points = base_points.get(name, {})
            fresh_points = fresh_points.get(name, {})
        by_key = {p.get(key): p for p in base_points}
        for p in fresh_points:
            k = p.get(key)
            was = by_key.get(k, {}).get(value)
            now = p.get(value)
            if not was or now is None:
                if k is not None:
                    print(f"WARN: {label.format(k)} has no baseline; "
                          "skipping")
                continue
            yield k, was, now

    for name, was, now in matched(("variants",), "variant", "gflops",
                                  "variant {}"):
        delta = (now - was) / was
        judge(delta,
              f"{name}: {was:.2f} -> {now:.2f} GFLOP/s ({delta:+.1%})")

    # Serving and model-layer sections gate exactly like the kernel
    # variants: hard on a same-CPU baseline, advisory across machines.
    bs, fs = base.get("serving", {}), fresh.get("serving", {})
    if bs.get("requests_per_s") and fs.get("requests_per_s"):
        was, now = bs["requests_per_s"], fs["requests_per_s"]
        delta = (now - was) / was
        judge(delta,
              f"decode serving: {was:.0f} -> {now:.0f} requests/s "
              f"({delta:+.1%})")

    bm, fm = base.get("model", {}), fresh.get("model", {})
    if bm.get("fused_ms") and fm.get("fused_ms"):
        was, now = bm["fused_ms"], fm["fused_ms"]
        delta = (now - was) / was  # lower is better for ms: negate
        judge(-delta,
              f"model fused FFN: {was:.2f} -> {now:.2f} ms ({delta:+.1%})")
    if fm.get("fused_speedup") is not None:
        tag = "ok  " if fm["fused_speedup"] >= 1.0 else "WARN"
        print(f"{tag} model fused vs unfused: {fm['fused_speedup']:.3f}x "
              "[warn-only]")

    # Decoder-layer decode throughput: tokens/s per context-length point
    # (bench_decode), matched by context depth. Attention cost grows with
    # context, so each depth is its own quantity and gates like a kernel
    # variant: hard on a same-CPU baseline, advisory across machines.
    for ctx, was, now in matched(("model_decode", "points"), "context",
                                 "tokens_per_s", "model_decode context {}"):
        delta = (now - was) / was
        judge(delta,
              f"model_decode ctx {ctx}: {was:.0f} -> {now:.0f} tokens/s "
              f"({delta:+.1%})")

    # Open-loop tail latency (serving_open blocks): p99 at a *different*
    # offered load is a different quantity, so a block only compares when
    # the two artifacts measured loads within 25% of each other
    # (capacity-relative loads drift with the machine). Lower is better.
    # pairs(base_block, fresh_block) yields (label, was, now) lazily, so
    # a skipped block prints none of its per-item warnings.
    def gate_p99(block, load, what, pairs):
        b = base.get("serving_open", {}).get(block, {})
        f = fresh.get("serving_open", {}).get(block, {})
        if not (b.get("offered_rps") and f.get("offered_rps")):
            return
        was_rps, now_rps = b["offered_rps"], f["offered_rps"]
        if abs(now_rps - was_rps) > 0.25 * was_rps:
            print(f"WARN: serving_open {load} moved {was_rps:.0f} -> "
                  f"{now_rps:.0f} rps (>25%); {what} skipped — "
                  "regenerate and commit the baseline artifact.")
            return
        for label, was, now in pairs(b, f):
            delta = (now - was) / was
            judge(-delta,
                  f"serving_open {label} p99: {was} -> {now} us "
                  f"({delta:+.1%})")

    def class_p99s(prefix):
        def pairs(b, f):
            for cls in ("decode", "prefill"):
                was = b.get(f"{cls}_p99_us")
                now = f.get(f"{cls}_p99_us")
                if was and now is not None:
                    yield f"{prefix}{cls}", was, now
        return pairs

    # Overload response: decode p99 at ~1.5x capacity under the shedding
    # admission policies. kBlock is skipped by design — its p99 inherits
    # the whole backlog and is unbounded at any overload factor, so it
    # would only gate on noise.
    def overload_p99s(b, f):
        base_policies = {p.get("policy"): p for p in b.get("policies", [])}
        for p in f.get("policies", []):
            name = p.get("policy")
            if name == "block":
                continue
            was = base_policies.get(name, {}).get("decode_p99_us")
            now = p.get("decode_p99_us")
            if not was or now is None:
                if name is not None:
                    print(f"WARN: overload policy {name} has no "
                          "baseline; skipping")
                continue
            yield f"overload {name} decode", was, now

    # The gate block is the mid-load per-class p99; bursty is the same
    # under MMPP-2 arrivals.
    gate_p99("gate", "offered load", "p99 gate", class_p99s(""))
    gate_p99("bursty", "bursty load", "bursty p99 gate",
             class_p99s("bursty "))
    gate_p99("overload", "overload load", "overload p99 gate",
             overload_p99s)

    # Contended-submit scaling: achieved rps per submitter-thread count.
    # A point regressing means the lock-free submit path (or a shard
    # dispatcher behind it) started serializing; each point gates like a
    # kernel variant. Points are matched by thread count.
    for threads, was, now in matched(
            ("serving_open", "submit_scaling", "points"), "threads", "rps",
            "submit_scaling {}t"):
        delta = (now - was) / was
        judge(delta,
              f"submit_scaling {threads}t: {was:.0f} -> {now:.0f} rps "
              f"({delta:+.1%})")

    # Tracing overhead: 1-in-N sampled span capture vs tracing off,
    # measured interleaved in one bench run on one machine — a
    # self-relative ratio, so it gates hard WITHOUT a same-CPU baseline
    # (the two sides of the ratio already share their silicon). Sampled
    # tracing must stay within 3% of tracing-off throughput.
    ft = fresh.get("serving_open", {}).get("trace_overhead", {})
    ratio = ft.get("on_off_ratio")
    if ratio is not None:
        line = (f"trace_overhead: sampled 1/{ft.get('sample_n')} tracing "
                f"at {ratio:.3f}x of tracing-off submit throughput")
        if ratio < 0.97:
            failures.append(line)
            print(f"FAIL {line}")
        else:
            print(f"ok   {line}")

    if failures:
        print(f"\n{len(failures)} section(s) regressed more than "
              f"{args.threshold:.0%}:")
        for line in failures:
            print(f"  {line}")
        return 1
    print("\nperf trend OK")
    if args.write_baseline:
        adopt_baseline()
    return 0


if __name__ == "__main__":
    sys.exit(main())
