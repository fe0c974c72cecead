"""Probe the CPU and page-fault cost of the release chain per utterance.

Not a test (pytest collects only test_*.py) and not a gate: it prints numbers
so an allocation change can be sized before and after. It synthesises a
corpus in memory (4 s utterances by default), then runs noise, enhancement,
extraction, amplification and feature extraction with the release-default
config (Wiener unless --enhancer says otherwise) over every utterance, once in
the calling thread and once in a 2-worker thread pool. For each it prints the
median over the repeats of user ms, system ms, minor page faults and voluntary
context switches per utterance, from resource.getrusage (the whole process,
every thread). With 2 workers most voluntary switches are GIL handoffs.

    PYTHONPATH=src python tests/chain_probe.py [--utterances 16] [--repeats 5]
        [--seconds 4.0] [--enhancer wiener]

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


def _chain(x, config, noise_seed):
    # the config's own enhancer, as the batch layer runs it; like sweep and
    # process_utterance, keep only x_tilde alive while features are extracted
    x_tilde = process_utterance_details(x, config, config._enhancer, noise_seed).x_tilde
    return extract_features(x_tilde, FeatureConfig())


def _measure(corpus, config, workers):
    """(user ms, system ms, minor faults, voluntary switches) per utterance for one pass."""
    before = resource.getrusage(resource.RUSAGE_SELF)
    if workers == 1:
        for x, seed in corpus:
            _chain(x, config, seed)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda item: _chain(item[0], config, item[1]), corpus))
    after = resource.getrusage(resource.RUSAGE_SELF)
    n = len(corpus)
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
    args = parser.parse_args()
    config = PipelineConfig(enhancer=args.enhancer)
    spec = SynthSpec(args.utterances, args.utterances, duration_s=args.seconds, seed=1)
    corpus = [
        (synth_utterance(f"PROBE_{i:04d}", spec, i % 2 == 1),
         derive_seed(config.global_seed, f"PROBE_{i:04d}", "noise"))
        for i in range(args.utterances)
    ]
    _measure(corpus, config, 1)  # warm-up: imports, FFT plans, first arenas
    print("workers  user_ms/utt  sys_ms/utt  minflt/utt  nvcsw/utt")
    for workers in (1, 2):
        runs = [_measure(corpus, config, workers) for _ in range(args.repeats)]
        user, system, faults, switches = (statistics.median(col) for col in zip(*runs))
        print(f"{workers:7d}  {user:11.2f}  {system:10.2f}  {faults:10.0f}  {switches:9.1f}")


if __name__ == "__main__":
    main()
