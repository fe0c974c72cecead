"""Allocation peaks of the per-utterance chain.

tracemalloc counts the bytes numpy asks for, so the peaks do not depend on
the allocator or on what else runs. Each bound sits between the in-place
stage bodies and the out-of-place ones they replaced; a stage that goes back
to building its result through full-length temporaries, or a Waveform that
copies a stage's own array again, crosses it.
"""

import tracemalloc

from spoofamp.amplify import process_utterance_details
from spoofamp.audio import crop_or_pad
from spoofamp.config import PipelineConfig
from spoofamp.enhance import EnhancerKind, enhance
from spoofamp.synth import SynthSpec, synth_utterance

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


def test_synth_utterance_peak():
    # the fundamental phase and the harmonic bank's two complex arrays set the
    # peak, 3.4 MiB at 4 s for every artifact kind; a second time axis, the
    # intermediates of each step kept alive, or a copy into the Waveform took 4.4 MiB
    spec = SynthSpec(1, 1, duration_s=4.0, artifact_kind="band_notch")
    for spoof in (False, True):
        peak = _peak_bytes(lambda: synth_utterance("SYN_S_0000", spec, spoof))
        assert peak <= 3.9 * MIB


def test_padding_peak():
    # padding 4 s to 5 s needs only its 0.61 MiB result; tiling whole repeats,
    # keeping them alive under the slice and copying the slice took 1.66 MiB
    x = make_speechlike(seed=2, seconds=4.0)
    peak = _peak_bytes(lambda: crop_or_pad(x, 5.0, 0))
    assert peak <= 1.2 * MIB
