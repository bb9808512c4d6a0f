#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

    python3 benchmark/run.py --workload hold_deep --seed 7 --seconds 15 --trace 0

Builds benchmark/ with CMake into build-bench/ at the repository root,
runs pcq_benchmark, and prints as its last line one JSON object: correct,
attempted, failed, and the end-to-end metrics (--trace 0) or the
per-layer metrics (--trace 1) that BENCHMARK.json lists. With --trace 1
the Chrome trace is written next to the results in the build directory.
Exits nonzero without that line if the build or the run fails.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def git_sha():
    """HEAD of the checkout if it is a git work tree; reads only .git/."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def build(build_dir):
    """Configures once, then builds incrementally. Returns the binary."""
    if not (ROOT / "include" / "pcq" / "core" / "multi_queue.hpp").is_file():
        raise RuntimeError("include/pcq is missing: run from a full checkout")
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(ROOT / "benchmark"), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "pcq_benchmark",
                    "-j", "4"], check=True, stdout=sys.stderr)
    return build_dir / "pcq_benchmark"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="results file (default: in the build directory)")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        ap.error(f"unknown workload {args.workload}")
    build_dir = ROOT / "build-bench"
    try:
        binary = build(build_dir)
    except (OSError, RuntimeError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = Path(args.out) if args.out else build_dir / f"results-{stem}.json"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out", str(out), "--git-sha", git_sha()]
    if args.trace:
        cmd += ["--trace", str(build_dir / f"trace-{stem}.json")]
    out.unlink(missing_ok=True)  # never report a previous run's results
    try:
        code = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"pcq_benchmark did not finish within {RUN_TIMEOUT_S} s")
        return 3
    if code not in (0, 1) or not out.is_file():
        log(f"pcq_benchmark exited with code {code}")
        return code or 2

    result = json.loads(out.read_text())["workloads"][args.workload]
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log(f"metric {m['name']} missing or in the wrong unit")
            return 2
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
