"""spoofamp benchmark: one closed-loop workload per run.

    python3 perfbench/run.py --workload {process,release-eval,sweep} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
``src/``. Set-up (corpus synthesis, manifest load, warm-up) runs at least
SETUP_REPEATS times and for SETUP_SECONDS, and is reported as its median.
The timed phase then runs
whole passes back to back, one client and no think time, until S seconds have
passed. With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes and prints the
per-layer metrics named in BENCHMARK.json. Outputs are checked after the
timed phase. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the line before it holds the
environment, the checks and output hashes.

The benchmark never sets the ``*_NUM_THREADS`` variables: BLAS threads
competing with the worker threads are part of what it measures.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

from tracer import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

DEFAULT_SEED = 1
# Not used while tuning the benchmark or a change; re-check claims on it.
HELDOUT_SEED = 2
# Set-up runs at least SETUP_REPEATS times and until SETUP_SECONDS have
# passed, so a cheap set-up gets more samples for its median.
SETUP_REPEATS = 5
SETUP_SECONDS = 8.0
MIN_PASSES = 3  # per kind of pass: untraced, and traced when tracing


def _parse_args(argv, run_seconds):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=run_seconds)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _environment(nproc):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": nproc,
        "num_threads_env": {
            k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")
        },
    }


def _cpu_seconds():
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def _timed_pass(workload):
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    result = workload.run_pass()
    wall = time.perf_counter() - t0
    return result, wall, _cpu_seconds() - cpu0


def _end_to_end(workload, setup_times, seconds):
    walls, cpu_per_utt, results = [], [], []
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_PASSES or time.perf_counter() < deadline:
        result, wall, cpu = _timed_pass(workload)
        walls.append(wall)
        cpu_per_utt.append(1e3 * cpu / result.attempted)
        results.append(result)
    wall_s = statistics.median(walls)
    values = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (wall_s, "s"),
        "utt_per_s": (results[0].attempted / wall_s, "utt/s"),
        "cpu_ms_per_utt": (statistics.median(cpu_per_utt), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return results, values, []


def _traced(workload, seconds, expected):
    tracer = Tracer()
    plain, traced, results = [], [], []
    deadline = time.perf_counter() + seconds
    while min(len(plain), len(traced)) < MIN_PASSES or time.perf_counter() < deadline:
        result, wall, _ = _timed_pass(workload)
        plain.append(wall)
        results.append(result)
        with tracer:
            result, wall, _ = _timed_pass(workload)
        traced.append(wall)
        results.append(result)
    utterances = sum(r.attempted for r in results[1::2])
    values, calls = tracer.layer_metrics(
        len(traced), utterances, sum(traced) * workload.parallelism
    )
    values["tracing_overhead_ratio"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0,
        "ratio",
    )
    problems = [f"wiring: span {name} recorded no calls" for name in expected if not calls[name]]
    return results, values, problems


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    args = _parse_args(argv, bench["run_seconds"])
    if not os.path.isfile(os.path.join(SRC, "spoofamp", "__init__.py")):
        print(f"perfbench: no spoofamp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import spoofamp
    import workloads

    if os.path.dirname(os.path.abspath(spoofamp.__file__)) != os.path.join(SRC, "spoofamp"):
        print(f"perfbench: imported spoofamp from {spoofamp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = bench["per_layer" if args.trace else "end_to_end"]

    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=work_root)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work_dir)
        setup_times = []
        while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
            t0 = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - t0)
        if args.trace:
            expected = workloads.EXERCISED[args.workload]
            results, values, problems = _traced(workload, args.seconds, expected)
        else:
            results, values, problems = _end_to_end(workload, setup_times, args.seconds)
        attempted = sum(r.attempted for r in results)
        failed = sum(r.failed for r in results)
        if failed:
            problems.append(f"{failed} of {attempted} utterances failed")
        outputs = [r.output for r in results if not r.failed]
        info = {}
        if outputs:
            reference = workloads.load_reference(args.workload, args.seed)
            check_problems, info = workload.check(outputs, reference)
            problems += check_problems
            info["reference"] = "committed" if reference is not None else "none for this seed"
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass  # another run is using it

    names = [m["name"] for m in declared]
    produced = sorted((n, u) for n, (_, u) in values.items())
    if produced != sorted((m["name"], m["unit"]) for m in declared):
        problems.append(f"metrics {produced} do not match BENCHMARK.json")
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} passes={len(results)}")
    for name in names:
        if name in values:
            value, unit = values[name]
            print(f"  {name:<44} {value:>14.6g} {unit}")
    for p in problems:
        print(f"  CHECK FAILED: {p}")
    info.update(
        workload=args.workload,
        seed=args.seed,
        environment=_environment(workloads.nproc()),
        problems=problems,
    )
    print(json.dumps(info, sort_keys=True))
    metrics = {n: {"value": v, "unit": u} for n, (v, u) in values.items()}
    print(
        json.dumps(
            {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
