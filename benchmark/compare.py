#!/usr/bin/env python3
"""Compare two sets of pcq_benchmark results files, or summarize a trace.

    compare.py BASE.json... --vs CHANGE.json...              # parent vs change
    compare.py --same-code RUN_A.json... --vs RUN_B.json...  # one commit twice
    compare.py --trace trace.json                            # spans by name

Each results file is what `pcq_benchmark --out` (or benchmark/run.py --out)
writes; a file may hold one workload or all of them. For every (workload,
metric) pair with a direction, the verdict follows these rules:

  regression  the change's median is worse than the base median by more
              than the metric's bound;
  gain        the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the base's
              interquartile range;
  unresolved  the spread of either side (IQR / median) exceeds the bound
              and not every change run beats every base run;
  unchanged   otherwise.

Metrics marked exact (deterministic given the seed) must be bit-identical
between runs with the same seed (their "bits" field holds the double's bit
pattern); a difference is reported as "differs". Metrics without a
direction, such as those that restate latency_us, are not compared.
Bounds of the end-to-end metrics come from BENCHMARK.json, the others
from the results files. With --same-code the exit status is 1 unless
every pair is unchanged and every exact metric identical; otherwise it is
1 only on a regression. Standard library only.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths):
    """-> {(workload, metric): [(seed, value, meta)]}"""
    runs = {}
    for path in paths:
        doc = json.loads(Path(path).read_text())
        seed = doc["provenance"]["seed"]
        for workload, res in doc["workloads"].items():
            if not res["correct"]:
                print(f"warning: {path}: {workload} failed its checks", file=sys.stderr)
            for name, m in res["metrics"].items():
                runs.setdefault((workload, name), []).append((seed, m["value"], m))
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, change, bound, lower_is_better):
    """Applies the module docstring's rules to two lists of values."""
    sign = 1.0 if lower_is_better else -1.0
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    worse = sign * (cm - bm) / abs(bm) if bm else 0.0
    spread = max((b3 - b1) / abs(bm) if bm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) < 0)
    all_better = all(sign * (c - b) < 0 for b in base for c in change)
    if worse > bound:
        return "regression", worse, spread
    if pairs and wins >= 0.9 * len(pairs) and abs(cm - bm) > (b3 - b1) and worse < 0:
        return "gain", worse, spread
    if spread > bound and not all_better:
        return "unresolved", worse, spread
    return "unchanged", worse, spread


def compare(base_paths, change_paths, same_code):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = {m["name"]: m for m in spec["end_to_end"]}
    base, change = load(base_paths), load(change_paths)
    bad = regressions = 0
    print(f"{'workload':14} {'metric':26} {'base_q1':>11} {'base_med':>11} {'base_q3':>11} "
          f"{'chg_q1':>11} {'chg_med':>11} {'chg_q3':>11} {'worse':>7} {'spread':>7}  verdict")
    for key in sorted(base.keys() & change.keys()):
        workload, name = key
        meta = base[key][0][2]
        better = meta.get("better")
        if meta.get("kind") == "end_to_end" and name in gated:
            better, bound = gated[name]["better"], gated[name]["bound"]
        else:
            bound = meta.get("bound")
        if not better or bound is None:
            continue
        # Pair runs by seed so gains and exactness compare like with like.
        b_by_seed = {s: v for s, v, _ in base[key]}
        c_by_seed = {s: v for s, v, _ in change[key]}
        seeds = sorted(b_by_seed.keys() & c_by_seed.keys())
        b_vals = [b_by_seed[s] for s in seeds] or [v for _, v, _ in base[key]]
        c_vals = [c_by_seed[s] for s in seeds] or [v for _, v, _ in change[key]]
        if meta.get("exact"):
            b_bits = {s: m.get("bits", v) for s, v, m in base[key]}
            c_bits = {s: m.get("bits", v) for s, v, m in change[key]}
            differs = [s for s in seeds if b_bits[s] != c_bits[s]]
            result, worse, spread = ("differs" if differs else "identical"), 0.0, 0.0
        else:
            result, worse, spread = verdict(b_vals, c_vals, bound, better == "lower")
        q = " ".join(f"{x:11.5g}" for x in quartiles(b_vals) + quartiles(c_vals))
        print(f"{workload:14} {name:26} {q} {worse:+7.3f} {spread:7.3f}  {result}")
        regressions += result == "regression"
        bad += result not in ("unchanged", "identical")
    if same_code:
        return 1 if bad else 0
    return 1 if regressions else 0


def summarize_trace(path):
    """Per span name: count, total and mean duration; for workload and
    trial spans also the time their sampled call spans stand for."""
    doc = json.loads(Path(path).read_text())
    every = doc.get("otherData", {}).get("sample_every", 1)
    events = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
    by_id = {e["args"]["id"]: e for e in events if e["args"].get("id")}
    child_us = {}
    for e in events:
        parent = e["args"].get("parent")
        if e["args"].get("id") == 0 and parent in by_id:
            child_us[parent] = child_us.get(parent, 0.0) + e["dur"] * every
    rows = {}
    for e in events:
        r = rows.setdefault(e["name"], [0, 0.0, 0.0])
        r[0] += 1
        r[1] += e["dur"]
        r[2] += child_us.get(e["args"].get("id"), 0.0)
    print(f"{'span':22} {'count':>8} {'total_ms':>12} {'mean_us':>12} {'children_est_ms':>16}")
    for name, (count, total, calls) in sorted(rows.items()):
        print(f"{name:22} {count:8d} {total / 1e3:12.3f} {total / count:12.3f} "
              f"{calls / 1e3:16.3f}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", nargs="*", help="results files of the base (or run A)")
    ap.add_argument("--vs", nargs="+", default=[], help="results files of the change (or run B)")
    ap.add_argument("--same-code", action="store_true",
                    help="both sets come from one commit: any verdict but unchanged fails")
    ap.add_argument("--trace", help="summarize a Chrome trace written by --trace")
    args = ap.parse_args()
    if args.trace:
        return summarize_trace(args.trace)
    if not args.base or not args.vs:
        ap.error("give base results files and --vs change results files")
    return compare(args.base, args.vs, args.same_code)


if __name__ == "__main__":
    sys.exit(main())
