"""Probe the CPU and page-fault cost of the release chain per utterance.

Not a test (pytest collects only test_*.py) and not a gate: it prints numbers
so an allocation change can be sized before and after. It synthesises a
corpus in memory (4 s utterances by default), then runs noise, enhancement,
extraction, amplification and feature extraction with the release-default
config (Wiener unless --enhancer says otherwise) over every utterance, once in
the calling thread and once in a 2-worker thread pool. For each it prints the
median over the repeats of user ms, system ms, minor page faults and voluntary
context switches per cell, from resource.getrusage (the whole process,
every thread). With 2 workers most voluntary switches are GIL handoffs.

A cell is one (utterance, config) pair. With --alphas each utterance runs
through one config per alpha in turn, as an alpha sweep runs its cells, so the
cells after an utterance's first reuse its enhanced signal; without it there
is one cell per utterance.

    PYTHONPATH=src python tests/chain_probe.py [--utterances 16] [--repeats 5]
        [--seconds 4.0] [--enhancer wiener] [--alphas 1.4,4,16]

sweep's chain is 1 s spectral subtraction: --seconds 1 --enhancer spectral_subtraction.
"""

import argparse
import resource
import statistics
from concurrent.futures import ThreadPoolExecutor

from spoofamp.amplify import process_utterance_details
from spoofamp.config import PipelineConfig, derive_seed
from spoofamp.detector import FeatureConfig, extract_features
from spoofamp.enhance import ENHANCER_KINDS
from spoofamp.synth import SynthSpec, synth_utterance


def _chain(x, configs, noise_seed):
    # each config's own enhancer, as the batch layer runs it; like sweep and
    # process_utterance, keep only x_tilde alive while features are extracted
    for config in configs:
        x_tilde = process_utterance_details(x, config, config._enhancer, noise_seed).x_tilde
        extract_features(x_tilde, FeatureConfig())


def _measure(corpus, configs, workers):
    """(user ms, system ms, minor faults, voluntary switches) per cell for one pass."""
    before = resource.getrusage(resource.RUSAGE_SELF)
    if workers == 1:
        for x, seed in corpus:
            _chain(x, configs, seed)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda item: _chain(item[0], configs, item[1]), corpus))
    after = resource.getrusage(resource.RUSAGE_SELF)
    n = len(corpus) * len(configs)
    return (
        1000.0 * (after.ru_utime - before.ru_utime) / n,
        1000.0 * (after.ru_stime - before.ru_stime) / n,
        (after.ru_minflt - before.ru_minflt) / n,
        (after.ru_nvcsw - before.ru_nvcsw) / n,
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--utterances", type=int, default=16)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=4.0)
    parser.add_argument("--enhancer", choices=[k for k in ENHANCER_KINDS if k != "external"],
                        default=PipelineConfig().enhancer)
    parser.add_argument("--alphas", type=lambda text: [float(a) for a in text.split(",")],
                        default=None, help="comma-separated alpha of each cell")
    args = parser.parse_args()
    config = PipelineConfig(enhancer=args.enhancer)
    configs = [config.with_overrides(alpha=a) for a in args.alphas or [config.alpha]]
    spec = SynthSpec(args.utterances, args.utterances, duration_s=args.seconds, seed=1)
    corpus = [
        (synth_utterance(f"PROBE_{i:04d}", spec, i % 2 == 1),
         derive_seed(config.global_seed, f"PROBE_{i:04d}", "noise"))
        for i in range(args.utterances)
    ]
    _measure(corpus, configs, 1)  # warm-up: imports, FFT plans, first arenas
    print(f"{len(configs)} cell(s) per utterance")
    print("workers  user_ms/cell  sys_ms/cell  minflt/cell  nvcsw/cell")
    for workers in (1, 2):
        runs = [_measure(corpus, configs, workers) for _ in range(args.repeats)]
        user, system, faults, switches = (statistics.median(col) for col in zip(*runs))
        print(f"{workers:7d}  {user:12.2f}  {system:11.2f}  {faults:11.0f}  {switches:10.1f}")


if __name__ == "__main__":
    main()
