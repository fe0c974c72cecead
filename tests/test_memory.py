"""Allocation peaks of the per-utterance chain and of a sweep.

tracemalloc counts the bytes numpy asks for, so the peaks do not depend on
the allocator or on what else runs. Each bound sits between the in-place
stage bodies and the out-of-place ones they replaced; a stage that goes back
to building its result through full-length temporaries, or a Waveform that
copies a stage's own array again, crosses it. A sweep that holds every crop
for every cell again crosses the bound on its growth with the corpus.
"""

import itertools
import tracemalloc

from spoofamp import noise
from spoofamp.amplify import process_utterance_details
from spoofamp.audio import crop_or_pad
from spoofamp.config import PipelineConfig
from spoofamp.enhance import EnhancerKind, enhance
from spoofamp.errors import DegenerateSignalError
from spoofamp.pipeline import load_tdcf_params, sweep
from spoofamp.synth import SynthSpec, synth_corpus, synth_utterance

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
    # mixture and its spectra are alive; the out-of-place chain took 5.5 MiB.
    # Each call draws new noise, so none reuses the last call's enhanced signal.
    config = PipelineConfig()
    enhancer = EnhancerKind(config.enhancer, config.enhancer_params)
    x = make_speechlike(seed=0, seconds=4.0)
    seeds = itertools.count(1)
    peak = _peak_bytes(lambda: process_utterance_details(x, config, enhancer, next(seeds)))
    assert peak <= 4.0 * MIB


def test_reused_enhancement_peak():
    # a call that changes only the extraction mode or alpha reuses the enhanced
    # signal and runs extraction and amplification alone: their two results, 1.0 MiB
    # at 4 s; a call that runs the chain again peaks at 2.1 MiB here
    config = PipelineConfig()
    enhancer = EnhancerKind(config.enhancer, config.enhancer_params)
    x = make_speechlike(seed=0, seconds=4.0)
    process_utterance_details(x, config, enhancer, 1)
    naive = config.with_overrides(extraction_mode="naive")
    peak = _peak_bytes(lambda: process_utterance_details(x, naive, enhancer, 1))
    assert peak <= 1.5 * MIB


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


def test_sweep_peak_does_not_grow_with_corpus(tmp_path, monkeypatch):
    # a sweep keeps each utterance's feature vectors, not its crop; 24 more 1 s
    # crops are 3.07 MB of float64, all alive at once when a sweep loads every
    # crop before its first cell. The violet cell fails on every utterance, and
    # a kept exception would keep its crop alive through its traceback.
    real_generate = noise.generate

    def generate(color, n, sample_rate, seed):
        if color == "violet":
            raise DegenerateSignalError("no violet noise")
        return real_generate(color, n, sample_rate, seed)

    monkeypatch.setattr(noise, "generate", generate)
    spec = SynthSpec(n_bonafide=16, n_spoof=16, duration_s=1.0, seed=5)
    entries, _ = synth_corpus(spec, str(tmp_path))
    config = PipelineConfig(crop_seconds=1.0, enhancer="spectral_subtraction", parallelism=1)
    tdcf = load_tdcf_params()

    def peak(n):
        bonafide, spoof = entries[: n // 2], entries[16 : 16 + n // 2]
        train = bonafide[::2] + spoof[::2]
        eval_ = bonafide[1::2] + spoof[1::2]
        return _peak_bytes(
            lambda: sweep(config, train, eval_, "noise_color", ["white", "violet"], tdcf)
        )

    crop_bytes = 16000 * 8
    assert peak(32) - peak(8) < 0.25 * 24 * crop_bytes
