"""Noise addition at target SNR, checked against the SNR oracle."""

import numpy as np
import pytest

from spoofamp.audio import Waveform
from spoofamp.errors import ConfigError, DegenerateSignalError
from spoofamp.mixing import add_noise_at_snr

from conftest import measure_snr


class TestMixSpec:
    def test_rejects_non_finite(self):
        x = Waveform(np.ones(8), 16000)
        with pytest.raises(ConfigError, match="snr_db must be finite, got nan"):
            add_noise_at_snr(x, x, float("nan"))
        with pytest.raises(ConfigError, match="snr_db must be finite, got inf"):
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
        with pytest.raises(DegenerateSignalError, match="length mismatch: signal 8 vs noise 9"):
            add_noise_at_snr(
                Waveform(np.ones(8), 16000), Waveform(np.ones(9), 16000), 0.0
            )

    def test_rate_mismatch(self):
        with pytest.raises(DegenerateSignalError, match="signal 16000 vs noise 8000"):
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
