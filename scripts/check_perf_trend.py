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

    base_variants = {v["variant"]: v for v in base.get("variants", [])}
    for v in fresh.get("variants", []):
        name = v["variant"]
        if name not in base_variants:
            print(f"WARN: variant {name} has no baseline; skipping")
            continue
        was, now = base_variants[name]["gflops"], v["gflops"]
        if was <= 0:
            continue
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
    bd = {p.get("context"): p
          for p in base.get("model_decode", {}).get("points", [])}
    for p in fresh.get("model_decode", {}).get("points", []):
        ctx = p.get("context")
        was = bd.get(ctx, {}).get("tokens_per_s")
        now = p.get("tokens_per_s")
        if not was or now is None:
            if ctx is not None:
                print(f"WARN: model_decode context {ctx} has no baseline; "
                      "skipping")
            continue
        delta = (now - was) / was
        judge(delta,
              f"model_decode ctx {ctx}: {was:.0f} -> {now:.0f} tokens/s "
              f"({delta:+.1%})")

    # Open-loop tail latency: the serving_open gate block carries the
    # mid-load per-class p99 plus the offered rate it was measured at.
    # p99 at a *different* offered load is a different quantity, so the
    # gate only compares when the two artifacts measured loads within
    # 25% of each other (capacity-relative loads drift with the machine).
    bo = base.get("serving_open", {}).get("gate", {})
    fo = fresh.get("serving_open", {}).get("gate", {})
    if bo.get("offered_rps") and fo.get("offered_rps"):
        was_rps, now_rps = bo["offered_rps"], fo["offered_rps"]
        if abs(now_rps - was_rps) > 0.25 * was_rps:
            print(f"WARN: serving_open offered load moved {was_rps:.0f} -> "
                  f"{now_rps:.0f} rps (>25%); p99 gate skipped — "
                  "regenerate and commit the baseline artifact.")
        else:
            for cls in ("decode", "prefill"):
                was = bo.get(f"{cls}_p99_us")
                now = fo.get(f"{cls}_p99_us")
                if not was or now is None:
                    continue
                delta = (now - was) / was  # lower is better for us: negate
                judge(-delta,
                      f"serving_open {cls} p99: {was} -> {now} us "
                      f"({delta:+.1%})")

    # Bursty tail: MMPP-2 arrivals at the mid load. Same quantity caveat
    # as the gate block — p99 under a different offered load is a
    # different number, so skip when the loads moved more than 25%.
    bb = base.get("serving_open", {}).get("bursty", {})
    fb = fresh.get("serving_open", {}).get("bursty", {})
    if bb.get("offered_rps") and fb.get("offered_rps"):
        was_rps, now_rps = bb["offered_rps"], fb["offered_rps"]
        if abs(now_rps - was_rps) > 0.25 * was_rps:
            print(f"WARN: serving_open bursty load moved {was_rps:.0f} -> "
                  f"{now_rps:.0f} rps (>25%); bursty p99 gate skipped — "
                  "regenerate and commit the baseline artifact.")
        else:
            for cls in ("decode", "prefill"):
                was = bb.get(f"{cls}_p99_us")
                now = fb.get(f"{cls}_p99_us")
                if not was or now is None:
                    continue
                delta = (now - was) / was  # lower is better for us: negate
                judge(-delta,
                      f"serving_open bursty {cls} p99: {was} -> {now} us "
                      f"({delta:+.1%})")

    # Overload response: decode p99 at ~1.5x capacity under the shedding
    # admission policies. kBlock is skipped by design — its p99 inherits
    # the whole backlog and is unbounded at any overload factor, so it
    # would only gate on noise. Same load-move caveat as the other
    # offered-load sections (the overload rate is capacity-relative and
    # drifts with the machine).
    bov = base.get("serving_open", {}).get("overload", {})
    fov = fresh.get("serving_open", {}).get("overload", {})
    if bov.get("offered_rps") and fov.get("offered_rps"):
        was_rps, now_rps = bov["offered_rps"], fov["offered_rps"]
        if abs(now_rps - was_rps) > 0.25 * was_rps:
            print(f"WARN: serving_open overload load moved {was_rps:.0f} -> "
                  f"{now_rps:.0f} rps (>25%); overload p99 gate skipped — "
                  "regenerate and commit the baseline artifact.")
        else:
            base_policies = {p.get("policy"): p
                             for p in bov.get("policies", [])}
            for p in fov.get("policies", []):
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
                delta = (now - was) / was  # lower is better for us: negate
                judge(-delta,
                      f"serving_open overload {name} decode p99: "
                      f"{was} -> {now} us ({delta:+.1%})")

    # Contended-submit scaling: achieved rps per submitter-thread count.
    # A point regressing means the lock-free submit path (or a shard
    # dispatcher behind it) started serializing; each point gates like a
    # kernel variant. Points are matched by thread count.
    bp = {p.get("threads"): p
          for p in base.get("serving_open", {})
                       .get("submit_scaling", {}).get("points", [])}
    for p in fresh.get("serving_open", {}) \
                  .get("submit_scaling", {}).get("points", []):
        threads = p.get("threads")
        was = bp.get(threads, {}).get("rps")
        now = p.get("rps")
        if not was or now is None:
            if threads is not None:
                print(f"WARN: submit_scaling {threads}t has no baseline; "
                      "skipping")
            continue
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
