"""Allocation peaks of the per-utterance chain.

tracemalloc counts the bytes numpy asks for, so the peaks do not depend on
the allocator or on what else runs. Each bound sits between the in-place
stage bodies and the out-of-place ones they replaced; a stage that goes back
to building its result through full-length temporaries, or a Waveform that
copies a stage's own array again, crosses it.
"""

import tracemalloc

from spoofamp.amplify import process_utterance_details
from spoofamp.config import PipelineConfig
from spoofamp.enhance import EnhancerKind, enhance

from conftest import make_speechlike

MIB = 2**20


def _peak_bytes(fn):
    """Peak traced bytes above the starting level during one call of fn,
    after a first untraced call has filled numpy's and Python's caches."""
    fn()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()


def test_process_utterance_peak():
    # a 4 s utterance is 0.5 MiB of float64 and its spectra 1 MiB; the release
    # chain peaks at 3.0 MiB, in the iSTFT of the Wiener output while the
    # mixture and its spectra are alive; the out-of-place chain took 5.5 MiB
    config = PipelineConfig()
    enhancer = EnhancerKind(config.enhancer, config.enhancer_params)
    x = make_speechlike(seed=0, seconds=4.0)
    peak = _peak_bytes(lambda: process_utterance_details(x, config, enhancer, 1))
    assert peak <= 4.0 * MIB


def test_wiener_enhance_peak():
    # spectra, the iSTFT frames and their overlap-add blocks: 2.5 MiB at 4 s;
    # a separate gain, power or product array on top of them, as before, takes 4.5 MiB
    y = make_speechlike(seed=1, seconds=4.0)
    peak = _peak_bytes(lambda: enhance(EnhancerKind("wiener"), y))
    assert peak <= 3.0 * MIB
