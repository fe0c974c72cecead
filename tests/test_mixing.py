"""Noise addition at target SNR (with its round-trip oracle) and the blind
SNR estimator, including a quadrature oracle for the embedded lookup table."""

import warnings

import numpy as np
import pytest
from scipy import integrate, special

from spoofamp.audio import Waveform, measure_snr
from spoofamp.errors import DegenerateSignalError, MismatchError
from spoofamp.mixing import (
    _WADA_DB,
    _WADA_G,
    add_noise_at_snr,
    wada_snr_estimate,
)
from spoofamp.noise import generate

from conftest import make_speechlike


class TestMixSpec:
    def test_rejects_non_finite(self):
        x = Waveform(np.ones(8), 16000)
        with pytest.raises(DegenerateSignalError, match="snr_db must be finite, got nan"):
            add_noise_at_snr(x, x, float("nan"))
        with pytest.raises(DegenerateSignalError, match="snr_db must be finite, got inf"):
            add_noise_at_snr(x, x, float("inf"))


class TestAddNoiseAtSnr:
    def test_zero_db_hand_case(self):
        x = Waveform(np.array([1.0, 1.0, 1.0, 1.0]), 16000)
        n = Waveform(np.array([1.0, -1.0, 1.0, -1.0]), 16000)
        y = add_noise_at_snr(x, n, 0.0)
        assert np.allclose(y.samples, [2.0, 0.0, 2.0, 0.0], atol=1e-15)

    def test_ten_db_hand_case(self):
        x = Waveform(np.array([1.0, 1.0, 1.0, 1.0]), 16000)
        n = Waveform(np.array([1.0, -1.0, 1.0, -1.0]), 16000)
        y = add_noise_at_snr(x, n, 10.0)
        s = 10.0 ** -0.5
        assert np.allclose(y.samples, [1 + s, 1 - s, 1 + s, 1 - s], atol=1e-12)

    def test_inputs_unmodified(self):
        x = Waveform(np.ones(8), 16000)
        n = Waveform(np.full(8, 0.5), 16000)
        add_noise_at_snr(x, n, 5.0)
        assert np.array_equal(x.samples, np.ones(8))
        assert np.array_equal(n.samples, np.full(8, 0.5))

    def test_zero_energy_noise(self):
        x = Waveform(np.ones(8), 16000)
        n = Waveform(np.zeros(8), 16000)
        with pytest.raises(DegenerateSignalError):
            add_noise_at_snr(x, n, 0.0)

    def test_zero_energy_signal(self):
        x = Waveform(np.zeros(8), 16000)
        n = Waveform(np.ones(8), 16000)
        with pytest.raises(DegenerateSignalError):
            add_noise_at_snr(x, n, 0.0)

    def test_length_mismatch(self):
        with pytest.raises(MismatchError):
            add_noise_at_snr(
                Waveform(np.ones(8), 16000), Waveform(np.ones(9), 16000), 0.0
            )

    def test_rate_mismatch(self):
        with pytest.raises(MismatchError, match="signal 16000 vs noise 8000"):
            add_noise_at_snr(
                Waveform(np.ones(8), 16000), Waveform(np.ones(8), 8000), 0.0
            )

    def test_snr_roundtrip_randomized(self):
        """measure_snr(x, add_noise_at_snr(x, n, s)) = s within 1e-6 dB."""
        rng = np.random.default_rng(20)
        for _ in range(200):
            m = int(rng.integers(16, 4096))
            x = Waveform(rng.standard_normal(m), 16000)
            n = Waveform(rng.standard_normal(m), 16000)
            s = float(rng.uniform(-20.0, 40.0))
            y = add_noise_at_snr(x, n, s)
            assert measure_snr(x, y) == pytest.approx(s, abs=1e-6)

    def test_scale_covariance(self):
        rng = np.random.default_rng(21)
        x = Waveform(rng.standard_normal(512), 16000)
        n = Waveform(rng.standard_normal(512), 16000)
        for c in (0.1, 2.0, 37.5):
            y1 = add_noise_at_snr(x.with_samples(c * x.samples), n, 7.0)
            y0 = add_noise_at_snr(x, n, 7.0)
            assert np.allclose(y1.samples, c * y0.samples, rtol=1e-12)


def _wada_g_oracle(snr_db, shape=0.4):
    """Recompute the amplitude statistic by nested quadrature.

    Z = S + V with S two-sided Gamma(shape) scaled to variance 10^(snr/10)
    and V standard normal; returns log E|Z| - E log|Z|. Written directly from
    the model definition, independently of the embedded table.
    """
    var_s = 10.0 ** (snr_db / 10.0)
    theta = np.sqrt(var_s / (shape * (shape + 1.0)))

    def inner(x, h):
        f = lambda n: h(abs(x + n)) * np.exp(-0.5 * n * n) / np.sqrt(2.0 * np.pi)
        # split at n = -x where |x + n| = 0 (log singularity)
        if -40.0 < -x < 40.0:
            return (
                integrate.quad(f, -40.0, -x, limit=200)[0]
                + integrate.quad(f, -x, 40.0, limit=200)[0]
            )
        return integrate.quad(f, -40.0, 40.0, limit=200)[0]

    def outer(h):
        density = lambda x: x ** (shape - 1.0) * np.exp(-x / theta) / (
            special.gamma(shape) * theta**shape
        )
        return integrate.quad(lambda x: inner(x, h) * density(x), 0.0, np.inf, limit=400)[0]

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        e_abs = outer(lambda z: z)
        e_log = outer(lambda z: np.log(max(z, 1e-300)))
    return float(np.log(e_abs) - e_log)


class TestWadaSnrEstimate:
    def test_table_matches_quadrature_oracle(self):
        for snr in (-20, 0, 20):
            idx = int(snr - _WADA_DB[0])
            assert _wada_g_oracle(snr) == pytest.approx(float(_WADA_G[idx]), abs=1e-6)

    def test_table_strictly_increasing(self):
        assert np.all(np.diff(_WADA_G) > 0)
        assert _WADA_DB[0] == -20 and _WADA_DB[-1] == 100

    def test_monotone_in_added_noise(self):
        x = make_speechlike(seed=30, seconds=3.0)
        noise = generate("white", len(x), x.sample_rate, seed=31)
        estimates = []
        for snr in (20.0, 10.0, 0.0, -10.0):
            y = add_noise_at_snr(x, noise, snr)
            estimates.append(wada_snr_estimate(y))
        assert all(a >= b for a, b in zip(estimates, estimates[1:]))
        # clean version beats the 0 dB mixture strictly
        mixed = add_noise_at_snr(x, noise, 0.0)
        assert wada_snr_estimate(x) > wada_snr_estimate(mixed)

    def test_pure_noise_near_lower_bound(self):
        rng = np.random.default_rng(32)
        w = Waveform(rng.standard_normal(32000), 16000)
        assert wada_snr_estimate(w) <= 0.0

    def test_clamped_to_table_range(self):
        x = make_speechlike(seed=33, seconds=2.0)
        assert -20.0 <= wada_snr_estimate(x) <= 100.0

    def test_silence_rejected(self):
        with pytest.raises(DegenerateSignalError):
            wada_snr_estimate(Waveform(np.zeros(16000), 16000))

    def test_too_short_rejected(self):
        with pytest.raises(DegenerateSignalError):
            wada_snr_estimate(Waveform(np.ones(100), 16000))
