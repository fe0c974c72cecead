"""Regenerate perfbench/reference.json, the committed correctness reference.

    python3 perfbench/make_reference.py

For each of the seeds 0-19 and each workload this runs the workload's set-up
and one pass, and records the values its check compares: per-utterance
projection weight and energies for ``process``, EER and min t-DCF per variant
or noise colour for ``release-eval`` and ``sweep``. Regenerate only when a change is meant to
alter these values, and say so in the change.
"""

import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = range(20)


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    doc = {}
    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    for name, cls in workloads.WORKLOADS.items():
        doc[name] = {}
        for seed in SEEDS:
            work_dir = tempfile.mkdtemp(dir=work_root)
            try:
                workload = cls(seed, work_dir)
                workload.setup()
                result = workload.run_pass()
                if result.failed:
                    raise SystemExit(f"{name} seed {seed}: {result.failed} utterances failed")
                problems, _ = workload.check([result.output], None)
                if problems:
                    raise SystemExit(f"{name} seed {seed}: {problems}")
                doc[name][str(seed)] = workload.reference_values([result.output])
            finally:
                shutil.rmtree(work_dir, ignore_errors=True)
            print(f"{name} seed {seed}", flush=True)
    try:
        os.rmdir(work_root)
    except OSError:
        pass  # a benchmark run is using it
    # one line per (workload, seed) keeps the file small and its diffs readable
    blocks = [
        f"  {json.dumps(name)}: {{\n"
        + ",\n".join(
            f"    {json.dumps(s)}: {json.dumps(v, sort_keys=True)}" for s, v in seeds.items()
        )
        + "\n  }"
        for name, seeds in doc.items()
    ]
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as f:
        f.write("{\n" + ",\n".join(blocks) + "\n}\n")


if __name__ == "__main__":
    main()
