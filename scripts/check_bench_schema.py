#!/usr/bin/env python3
"""Lint BENCH_*.json artifacts emitted by benchlib/json_writer.hpp.

Usage:
    check_bench_schema.py BENCH_a.json [BENCH_b.json ...]

Every bench artifact — whatever figure it belongs to — shares one
contract, which both scripts/check_bench_regression.py and any downstream
plotting assume:

  - a single JSON object with string "bench" and "unit" keys;
  - "threads": a non-empty, strictly increasing list of positive
    integers (the x-axis — thread counts for the throughput figures,
    checkpoint indices for thm3);
  - "series": a non-empty list of objects, each with a unique string
    "name" and a "mops" list (the gateable higher-is-better metric);
  - every list in a series has exactly len(threads) entries, every
    entry finite (json_writer turns inf/nan into null — a null here
    means a bench computed garbage and must fail fast, BEFORE it
    poisons a committed baseline or a regression gate); scalar series
    keys (per-series metadata like fig1's "batch") must be finite
    numbers, strings, or booleans;
  - every other number in the file, at any depth (the gated nested
    objects such as "tables", "one_thread", "rank_cost" and
    "sequential" included), is finite, and no value anywhere is null.

Exits nonzero listing every violation across all files (a malformed
writer fails CI at the lint step, not mysteriously inside the gate).
"""

import json
import math
import sys


def fail(errors, path, message):
    errors.append(f"{path}: {message}")


def is_finite_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) \
        and math.isfinite(v)


def check_numeric_list(errors, path, where, values, expected_len):
    if not isinstance(values, list):
        fail(errors, path, f"{where} is not a list")
        return
    if expected_len is not None and len(values) != expected_len:
        fail(errors, path,
             f"{where} has {len(values)} entries, expected {expected_len} "
             f"(one per threads entry)")
    for i, v in enumerate(values):
        if not is_finite_number(v):
            fail(errors, path,
                 f"{where}[{i}] is {v!r}, not a finite number "
                 f"(null = the writer saw inf/nan)")


def check_file(errors, path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(errors, path, f"unreadable or invalid JSON: {e}")
        return
    if not isinstance(doc, dict):
        fail(errors, path, "top level is not an object")
        return

    for key in ("bench", "unit"):
        if not isinstance(doc.get(key), str) or not doc.get(key):
            fail(errors, path, f'missing or empty string key "{key}"')

    threads = doc.get("threads")
    n_threads = None
    if not isinstance(threads, list) or not threads:
        fail(errors, path, '"threads" missing or not a non-empty list')
    else:
        n_threads = len(threads)
        for i, t in enumerate(threads):
            if not isinstance(t, int) or isinstance(t, bool) or t <= 0:
                fail(errors, path,
                     f"threads[{i}] is {t!r}, not a positive integer")
        if all(isinstance(t, int) and not isinstance(t, bool)
               for t in threads):
            if any(b <= a for a, b in zip(threads, threads[1:])):
                fail(errors, path,
                     f'"threads" not strictly increasing: {threads}')

    series = doc.get("series")
    if not isinstance(series, list) or not series:
        fail(errors, path, '"series" missing or not a non-empty list')
        series = []
    seen_names = set()
    for si, s in enumerate(series):
        where = f"series[{si}]"
        if not isinstance(s, dict):
            fail(errors, path, f"{where} is not an object")
            continue
        name = s.get("name")
        if not isinstance(name, str) or not name:
            fail(errors, path, f'{where} missing string "name"')
        elif name in seen_names:
            fail(errors, path, f'duplicate series name "{name}"')
        else:
            seen_names.add(name)
            where = f'series "{name}"'
        if "mops" not in s:
            fail(errors, path, f'{where} missing "mops" (the gateable '
                               f"higher-is-better metric)")
        for key, value in s.items():
            if key == "name":
                continue
            if isinstance(value, list):
                check_numeric_list(errors, path, f"{where}.{key}", value,
                                   n_threads)
            elif isinstance(value, (str, bool)):
                pass  # per-series metadata
            elif not is_finite_number(value):
                fail(errors, path,
                     f"{where}.{key} is {value!r}, not a finite number, "
                     f"string, bool, or numeric list")

    for key, value in doc.items():
        if key not in ("threads", "series"):
            check_nested(errors, path, f'"{key}"', value)


def check_nested(errors, path, where, value):
    """Every number under `value`, at any depth, is finite; no null."""
    if isinstance(value, dict):
        for key, item in value.items():
            check_nested(errors, path, f"{where}.{key}", item)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            check_nested(errors, path, f"{where}[{i}]", item)
    elif value is None or (isinstance(value, float)
                           and not math.isfinite(value)):
        fail(errors, path, f"{where} is {value!r}, not a finite number "
                           f"(null = the writer saw inf/nan)")


def main():
    paths = sys.argv[1:]
    if not paths:
        print(__doc__)
        return 2
    errors = []
    for path in paths:
        before = len(errors)
        check_file(errors, path)
        status = "ok" if len(errors) == before else "FAIL"
        print(f"[schema] {path}: {status}")
    if errors:
        print(f"\n[schema] {len(errors)} violation(s):")
        for e in errors:
            print(f"  {e}")
        return 1
    print(f"\n[schema] OK: {len(paths)} artifact(s) conform")
    return 0


if __name__ == "__main__":
    sys.exit(main())
