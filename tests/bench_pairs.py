"""Compare two checkouts on one perfbench workload by alternating pairs of runs.

Not a test (pytest collects only test_*.py). It runs the benchmark command of
BENCHMARK.json (``python3 perfbench/run.py``) at ``--trace 0`` in each tree, in
pairs: the first pair runs the parent first, and the order alternates.
For each end-to-end metric it prints the median [quartiles] of each side, the
change in the median, and the pairs the change won, the direction taken from
the metric's ``better`` (ties count for neither side). Then it prints the
``output_sha256`` of each side. It exits 1 if any run is not ``correct: true``.

    python3 tests/bench_pairs.py --parent DIR --change DIR --workload W
        [--pairs 10] [--seconds 20] [--seed 1]

The trees' absolute paths must be of equal length: the paths a run builds and
its environment move its peak RSS, so trees named unequally differ in
``peak_rss_mb`` though their code is the same. Each run gets ``PWD`` set to its
tree, as a shell that changed into it would.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def _run(tree, command, args):
    """(result, info) from one run: its last two lines of output as JSON objects."""
    argv = command + ["--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, env=dict(os.environ, PWD=tree),
                          capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        return json.loads(lines[-1]), json.loads(lines[-2])
    except (IndexError, ValueError):
        sys.exit(f"bench_pairs: {tree}: no result line (exit {proc.returncode}):\n"
                 f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")


def _summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.4g} [{q1:.4g}–{q3:.4g}]"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    if len(trees["parent"]) != len(trees["change"]):
        sys.exit(f"bench_pairs: tree paths differ in length: {trees['parent']!r}, "
                 f"{trees['change']!r}")
    if args.pairs < 2:
        sys.exit("bench_pairs: --pairs must be at least 2, for quartiles")
    with open(os.path.join(trees["change"], "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)

    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result, info = _run(trees[side], bench["command"], args)
            runs[side].append((result, info))
            print(f"pair {i + 1}/{args.pairs} {side}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)

    print(f"{args.workload}: {args.pairs} pairs, seed {args.seed}, {args.seconds:g} s runs, "
          "parent first in pair 1, then alternating; median [quartiles]")
    print(f"{'metric':<16} {'parent':>26} {'change':>26} {'median':>8} {'wins':>6}")
    for metric in bench["end_to_end"]:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        side_values = {
            side: [r["metrics"][name]["value"] for r, _ in runs[side]] for side in runs
        }
        wins = sum(
            sign * (c - p) > 0 for p, c in zip(side_values["parent"], side_values["change"])
        )
        parent_median = statistics.median(side_values["parent"])
        moved = statistics.median(side_values["change"]) / parent_median - 1.0
        print(f"{name:<16} {_summary(side_values['parent']):>26} "
              f"{_summary(side_values['change']):>26} {moved:>+8.1%} {wins:>3}/{args.pairs}")
    for side in runs:
        hashes = sorted({info.get("output_sha256") for _, info in runs[side]}, key=str)
        print(f"output_sha256 {side}: {', '.join(map(str, hashes))}")
    wrong = [side for side in runs for r, _ in runs[side] if not r["correct"]]
    if wrong:
        print(f"bench_pairs: {len(wrong)} runs not correct: {sorted(set(wrong))}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
