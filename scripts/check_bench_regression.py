#!/usr/bin/env python3
"""Gate a bench artifact against its committed baseline.

Usage:
    check_bench_regression.py CURRENT.json BASELINE.json
        [--figure fig1] [--threshold 0.30] [--normalize coarse]
        [--gate-prefix mq_]

Works for any BENCH_<figure>.json produced by benchlib/json_writer.hpp
with the shape {threads: [...], series: [{name, mops: [...]}]} — fig1
emits Mops/s, fig3 emits million-settled-nodes/s; both are
higher-is-better. Every series array named "mops" or ending in "_mops"
is compared (exec's random_mops and forkjoin_mops next to its mops).
--figure only labels the report. Zero/absent baseline cells are skipped
(no ratio to take), as are cells whose normalizer is zero.

Compares every gated series (names starting with --gate-prefix, default
"mq_") in each such array at every thread count present in both files
and fails (exit 1) if any current cell is more than --threshold below
the baseline cell. Deterministic artifacts (thm3, service, fault) are
not gated here but byte for byte with cmp against their baselines.
Non-gated series (the skiplist/k-LSM/coarse competitors) are reported
but never gate: they exist for comparison, not as a perf contract.

With --normalize SERIES each cell is divided by the same-run cell of
SERIES in the array of the same name before comparing. CI uses
--normalize coarse: the coarse-locked
heap is a stable machine-speed proxy measured in the same process, so
runner-generation and dev-box-vs-runner absolute-throughput differences
cancel and the gate tracks *relative* multi_queue performance — a
hot-path regression shows up as mq falling against coarse, not as the
whole run being slower. Without --normalize, absolute values are
compared (useful on the machine the baseline was recorded on).

Regenerate a baseline after a deliberate perf change, e.g.:
    PCQ_MAX_THREADS=2 ./build/bench_fig1_throughput
    cp BENCH_fig1.json bench/baselines/BENCH_fig1.baseline.json
(for fig3: bench_fig3_sssp / BENCH_fig3.json, recorded with
PCQ_MAX_THREADS=16 — see docs/BENCHMARKS.md for the why).
"""

import argparse
import json
import sys


def load_series(path):
    """threads, and {(series name, array name): {thread: value}} for each
    mops-like array of every series that has a "mops" array."""
    with open(path) as f:
        doc = json.load(f)
    threads = doc["threads"]
    series = {(s["name"], k): dict(zip(threads, v))
              for s in doc["series"] if "mops" in s
              for k, v in s.items() if k == "mops" or k.endswith("_mops")}
    return threads, series


def label(key):
    name, array = key
    return name if array == "mops" else f"{name}.{array}"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current")
    parser.add_argument("baseline")
    parser.add_argument("--figure", default="fig1",
                        help="figure name, used to label the report")
    parser.add_argument("--threshold", type=float, default=0.30,
                        help="maximum allowed fractional regression")
    parser.add_argument("--normalize", metavar="SERIES", default=None,
                        help="divide each cell by this series' same-run cell "
                             "before comparing (machine-speed proxy)")
    parser.add_argument("--gate-prefix", default="mq_",
                        help="series whose names start with this prefix gate; "
                             "the rest are informational")
    args = parser.parse_args()

    cur_threads, current = load_series(args.current)
    base_threads, baseline = load_series(args.baseline)
    shared_threads = [t for t in cur_threads if t in base_threads]
    if not shared_threads:
        print(f"[{args.figure}] no overlapping thread counts between "
              f"{args.current} ({cur_threads}) and {args.baseline} "
              f"({base_threads})")
        return 1

    if args.normalize is not None:
        norm_key = (args.normalize, "mops")
        if norm_key not in current or norm_key not in baseline:
            print(f"[{args.figure}] --normalize series '{args.normalize}' "
                  f"missing from current ({sorted(map(label, current))}) or "
                  f"baseline ({sorted(map(label, baseline))})")
            return 1
        unit = f"x {args.normalize}"
    else:
        unit = "raw"

    def cell(series, key, t):
        v = series[key].get(t)
        if v is None or v <= 0:
            return None
        if args.normalize is None:
            return v
        norm = series.get((args.normalize, key[1]), {}).get(t)
        if norm is None or norm <= 0:
            return None
        return v / norm

    failures = []
    print(f"[{args.figure}] (cells in {unit}, higher is better)")
    print(f"{'series':<24}{'threads':>8}{'baseline':>10}{'current':>10}"
          f"{'ratio':>8}  gate")
    for key in sorted(set(current) & set(baseline)):
        name = label(key)
        gated = key[0].startswith(args.gate_prefix)
        for t in shared_threads:
            base = cell(baseline, key, t)
            cur = cell(current, key, t)
            if base is None:
                continue  # no baseline ratio to take
            if cur is None:
                # A dead/zero current cell against a live baseline is the
                # worst regression there is, not a skip.
                if gated:
                    failures.append((name, t, base, 0.0, 0.0))
                    print(f"{name:<24}{t:>8}{base:>10.2f}{0.0:>10.2f}"
                          f"{0.0:>8.2f}  REGRESSION")
                continue
            ratio = cur / base
            verdict = "ok"
            if gated and ratio < 1.0 - args.threshold:
                verdict = "REGRESSION"
                failures.append((name, t, base, cur, ratio))
            print(f"{name:<24}{t:>8}{base:>10.2f}{cur:>10.2f}{ratio:>8.2f}"
                  f"  {verdict if gated else 'info'}")

    missing = [label(k) for k in baseline
               if k[0].startswith(args.gate_prefix) and k not in current]
    if missing:
        print(f"[{args.figure}] baseline gated series missing from current "
              f"run: {missing}")
        return 1

    if failures:
        print(f"\n[{args.figure}] FAIL: {len(failures)} gated cell(s) "
              f"regressed more than {args.threshold:.0%}:")
        for name, t, base, cur, ratio in failures:
            print(f"  {name} @ {t} threads: {base:.2f} -> {cur:.2f} {unit} "
                  f"({ratio:.2f}x)")
        return 1
    print(f"\n[{args.figure}] OK: all gated cells within "
          f"{args.threshold:.0%} of the baseline across "
          f"threads={shared_threads}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
