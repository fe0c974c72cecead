"""The in-place stage bodies against their out-of-place oracles, to the bit,
the ownership rules of Waveform storage and of the cached per-call constants,
and the enhancers' sorted noise profile against np.percentile."""

import struct
import sys
import threading

import numpy as np
import pytest

from spoofamp import detector, noise
from spoofamp.amplify import amplify, extract_residual
from spoofamp.audio import Waveform, crop_or_pad, read_wav
from spoofamp.detector import FeatureConfig, extract_features
from spoofamp.enhance import EnhancerKind, _noise_profile, enhance
from spoofamp.mixing import add_noise_at_snr
from spoofamp.stft import stft
from spoofamp.synth import ARTIFACT_KINDS, SynthSpec, synth_utterance

from conftest import (
    add_noise_oracle,
    amplify_oracle,
    extract_features_oracle,
    extract_residual_oracle,
    fft_noise_oracle,
    noise_oracle,
    pad_oracle,
    spectral_subtraction_oracle,
    stft_oracle,
    synth_utterance_oracle,
    wav_scaling_oracle,
    wiener_oracle,
    write_minimal_wav,
)

LENGTHS = (1, 255, 256, 257, 16000, 64000)
SR = 16000


def _same(got, want):
    """Equal bytes: same shape, dtype and every bit, the sign of zero included."""
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _wave(n, seed):
    return Waveform(0.1 * np.random.default_rng(seed).standard_normal(n), SR)


@pytest.mark.parametrize("n", LENGTHS)
def test_stft(n):
    x = _wave(n, 1).samples
    assert _same(stft(x), stft_oracle(x))


@pytest.mark.parametrize("n", LENGTHS)
@pytest.mark.parametrize("params", [{}, {"floor": 0.3}])
def test_wiener(n, params):
    y = _wave(n, 2)
    kind = EnhancerKind("wiener", params)
    assert _same(enhance(kind, y).samples, wiener_oracle(y.samples, kind.params["floor"]))


@pytest.mark.parametrize("n", LENGTHS)
@pytest.mark.parametrize("params", [{}, {"subtraction_factor": 0.0, "floor": 0.5}])
def test_spectral_subtraction(n, params):
    y = _wave(n, 3)
    kind = EnhancerKind("spectral_subtraction", params)
    got = enhance(kind, y)
    want = spectral_subtraction_oracle(
        y.samples, kind.params["subtraction_factor"], kind.params["floor"]
    )
    assert _same(got.samples, want)


def test_spectral_subtraction_with_silent_bins():
    # zero-magnitude bins take the floor as their ratio
    y = Waveform(np.concatenate([np.zeros(2048), _wave(2048, 4).samples]), SR)
    got = enhance(EnhancerKind("spectral_subtraction"), y)
    assert _same(got.samples, spectral_subtraction_oracle(y.samples, 1.0, 0.02))


@pytest.mark.parametrize("n", LENGTHS)
@pytest.mark.parametrize("color", noise.NOISE_COLORS)
def test_noise_generate(n, color):
    assert _same(noise.generate(color, n, SR, 7).samples, noise_oracle(color, n, SR, 7))


@pytest.mark.parametrize("n", LENGTHS)
def test_white_matches_dc_zeroed_fft(n):
    # subtracting the mean is what zeroing the DC bin of a flat spectrum does
    for seed in (0, 7):
        got = noise.generate("white", n, SR, seed).samples
        assert np.max(np.abs(got - fft_noise_oracle("white", n, SR, seed))) <= 1e-14


@pytest.mark.parametrize("n", LENGTHS)
def test_add_noise_at_snr(n):
    x, n_ = _wave(n, 5), _wave(n, 6)
    for snr in (-10.0, 0.0, 17.5):
        want = add_noise_oracle(x.samples, n_.samples, snr)
        assert _same(add_noise_at_snr(x, n_, snr).samples, want)


@pytest.mark.parametrize("n", LENGTHS)
@pytest.mark.parametrize("mode", ["projection", "naive"])
def test_extract_residual(n, mode):
    x, x_hat = _wave(n, 8), _wave(n, 9)
    got = extract_residual(x, x_hat, mode).a_hat
    assert _same(got.samples, extract_residual_oracle(x.samples, x_hat.samples, mode))


@pytest.mark.parametrize("n", LENGTHS)
def test_amplify(n):
    x, a_hat = _wave(n, 10), _wave(n, 11)
    for alpha in (0.5, 1.4, 3.0):
        want = amplify_oracle(x.samples, a_hat.samples, alpha)
        assert _same(amplify(x, a_hat, alpha).samples, want)


@pytest.mark.parametrize("n", [512, 16000, 64000])
def test_extract_features(n):
    for rate in (SR, 8000, 44100):  # the 4 kHz split lands on a different bin at each rate
        w = Waveform(_wave(n, 12).samples, rate)
        for config in (FeatureConfig(), FeatureConfig(n_bands=40)):
            got = extract_features(w, config)
            assert _same(got, extract_features_oracle(w.samples, rate, config)), rate


@pytest.mark.parametrize("n", LENGTHS)
@pytest.mark.parametrize(
    "dtype, fmt_tag, bits, scale", [("<i2", 1, 16, 1.0 / 32768.0), ("<f4", 3, 32, 1.0)]
)
def test_read_wav_scaling(tmp_path, n, dtype, fmt_tag, bits, scale):
    rng = np.random.default_rng(13)
    if dtype == "<i2":
        data = rng.integers(-32768, 32768, n).astype("<i2").tobytes()
    else:
        data = rng.standard_normal(n).astype("<f4").tobytes()
    p = tmp_path / "a.wav"
    write_minimal_wav(p, data, fmt_tag=fmt_tag, bits=bits, channels=1, rate=SR)
    assert _same(read_wav(str(p)).samples, wav_scaling_oracle(data, dtype, scale))


@pytest.mark.parametrize("seconds", [0.3, 1.0, 4.0])
@pytest.mark.parametrize("spoof", [False, True], ids=["bonafide", "spoof"])
@pytest.mark.parametrize("kind", ARTIFACT_KINDS)
def test_synth_utterance(kind, spoof, seconds):
    for seed in (0, 1):
        spec = SynthSpec(1, 1, duration_s=seconds, artifact_kind=kind, seed=seed)
        for utt_id in ("SYN_B_0000", "SYN_S_0001"):
            w = synth_utterance(utt_id, spec, spoof)
            assert _same(w.samples, synth_utterance_oracle(utt_id, spec, spoof))
            assert not w.samples.flags.writeable


@pytest.mark.parametrize("n", [255, 16000])
@pytest.mark.parametrize(
    "out_len", [lambda n: n + 1, lambda n: 2 * n - 1, lambda n: 2 * n, lambda n: 5 * n // 2],
    ids=["n+1", "2n-1", "2n", "2.5n"],
)
def test_pad(n, out_len):
    x = _wave(n, 15)
    target = out_len(n)
    got = crop_or_pad(x, target / SR, 0)
    assert len(got) == target
    assert _same(got.samples, pad_oracle(x.samples, target))
    assert not got.samples.flags.writeable


class TestStorage:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: np.linspace(-1.0, 1.0, 64),
            lambda: np.linspace(-1.0, 1.0, 64).astype(np.float32),
            lambda: np.linspace(-1.0, 1.0, 128)[::2],
        ],
        ids=["float64", "float32", "strided"],
    )
    def test_caller_array_is_copied(self, make):
        src = make()
        before = np.array(src, dtype=np.float64)
        w = Waveform(src, SR)
        v = w.with_samples(src)
        src[:] = 7.0
        assert _same(w.samples, before)
        assert _same(v.samples, before)

    def test_read_only_view_of_a_writeable_array_is_copied(self):
        base = np.linspace(-1.0, 1.0, 64)
        view = base[:]
        view.flags.writeable = False
        w = Waveform(view, SR)
        base[:] = 7.0
        assert w.samples[0] == -1.0

    def test_every_stage_output_is_read_only(self, tmp_path):
        x = _wave(4000, 14)
        n = noise.generate("pink", len(x), SR, 1)
        y = add_noise_at_snr(x, n, 0.0)
        outs = [n, y]
        for kind in ("wiener", "spectral_subtraction"):
            outs.append(enhance(EnhancerKind(kind), y))
        for mode in ("projection", "naive"):
            outs.append(extract_residual(x, outs[-1], mode).a_hat)
        outs.append(amplify(x, outs[-1], 1.4))
        outs.append(crop_or_pad(x, 0.1, 0))
        p = tmp_path / "s.wav"
        stereo = struct.pack("<4h", 1, 2, 3, 4)
        write_minimal_wav(p, stereo, fmt_tag=1, bits=16, channels=2, rate=SR)
        outs.append(read_wav(str(p)))
        for w in outs:
            assert not w.samples.flags.writeable
            with pytest.raises(ValueError):
                w.samples[0] = 0.0


def _profile_cases(n, rng):
    """(n, 8) columns: random, rounded normal (ties, negatives, -0.0), half zero,
    scaled by 1e-300, with +inf, with -inf, with NaN, and all +inf."""
    base = rng.random(n)
    cols = [
        base,
        np.round(3.0 * rng.standard_normal(n)),
        np.where(rng.random(n) < 0.5, 0.0, base),
        base * 1e-300,
    ]
    for value in (np.inf, -np.inf, np.nan):
        col = rng.random(n)
        col[rng.integers(0, n, 1 + n // 50)] = value
        cols.append(col)
    cols.append(np.full(n, np.inf))
    return np.stack(cols, axis=1)


@pytest.mark.parametrize("sqrt", [False, True], ids=["magnitude", "power"])
def test_noise_profile_is_percentile(sqrt):
    rng = np.random.default_rng(26)
    with np.errstate(invalid="ignore"):
        for n in [*range(1, 601), 1001, 4001]:
            m = _profile_cases(n, rng)
            if sqrt:
                m = np.abs(m) ** 2
            want = np.percentile(np.sqrt(m) if sqrt else m, 10, axis=0)
            assert _same(_noise_profile(np.sqrt(m) if sqrt else m), want), n
        for n in (1001, 4001):  # the full bin count of a 512-sample window
            m = rng.rayleigh(size=(n, 257))
            assert _same(_noise_profile(m), np.percentile(m, 10, axis=0)), n


def test_enhance_in_two_threads_matches_serial():
    inputs = [_wave(16000, 20), _wave(64000 + 77, 21)]
    kinds = [EnhancerKind("wiener"), EnhancerKind("spectral_subtraction")]
    serial = [[enhance(k, x).samples for k in kinds] for x in inputs]
    results = [[] for _ in inputs]
    start = threading.Barrier(len(inputs), timeout=30)

    def work(i):
        start.wait()
        for _ in range(5):
            results[i].append([enhance(k, inputs[i]).samples for k in kinds])

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(inputs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for want, runs in zip(serial, results):
        assert len(runs) == 5
        for got in runs:
            assert all(_same(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("constant", [
    lambda: detector._band_edges(detector.FeatureConfig(), SR),
    lambda: noise._shaping_weights("pink", 4000, SR),
    lambda: noise._shaping_weights("violet", 4000, SR),
], ids=["band_edges", "pink_weights", "violet_weights"])
def test_cached_constants_are_read_only(constant):
    with pytest.raises(ValueError):
        constant()[0] = 1
    assert constant() is constant()
