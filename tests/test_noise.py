"""Colored noise synthesis and the PSD slope oracle."""

import numpy as np
import pytest
from scipy import signal

from spoofamp.audio import Waveform
from spoofamp.errors import ConfigError, DegenerateSignalError
from spoofamp.noise import NOISE_COLORS, generate

from conftest import psd_slope

_LONG = 1 << 20


class TestNoiseSpec:
    def test_rejects_unknown_color(self):
        with pytest.raises(ConfigError, match="unknown noise color 'brown'"):
            generate("brown", 100, 16000, 0)

    def test_rejects_bad_length(self):
        with pytest.raises(ConfigError, match=r"noise length must be >= 1, got 0"):
            generate("white", 0, 16000, 0)

    def test_rejects_bad_rate(self):
        with pytest.raises(ConfigError, match="sample_rate must be positive, got 0"):
            generate("white", 100, 0, 0)

    def test_rejects_negative_seed(self):
        with pytest.raises(ConfigError, match="noise seed must be >= 0, got -1"):
            generate("white", 100, 16000, -1)


class TestGenerate:
    def test_deterministic(self):
        a = generate("pink", 5000, 16000, seed=42)
        b = generate("pink", 5000, 16000, seed=42)
        assert np.array_equal(a.samples, b.samples)

    def test_different_seeds_differ(self):
        a = generate("white", 5000, 16000, seed=1)
        b = generate("white", 5000, 16000, seed=2)
        assert not np.array_equal(a.samples, b.samples)

    @pytest.mark.parametrize("color", NOISE_COLORS)
    def test_unit_rms(self, color):
        for seed in (0, 7, 123):
            w = generate(color, 10000, 16000, seed)
            assert np.sqrt(np.mean(w.samples**2)) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("color", NOISE_COLORS)
    def test_near_zero_mean(self, color):
        n = 65536
        w = generate(color, n, 16000, seed=5)
        assert abs(float(np.mean(w.samples))) <= 3.0 / np.sqrt(n)

    @pytest.mark.parametrize(
        "color,slope_db_per_octave", [("white", 0.0), ("pink", -3.0), ("violet", 6.0)]
    )
    def test_spectral_slope(self, color, slope_db_per_octave):
        w = generate(color, _LONG, 16000, seed=3)
        got = psd_slope(w, 100.0, 6000.0)
        assert got == pytest.approx(slope_db_per_octave, abs=0.5)

    def test_length_one(self):
        w = generate("white", 1, 16000, seed=0)
        assert len(w) == 1
        assert abs(w.samples[0]) == 1.0


class TestPsdSlope:
    def test_white_reference_noise(self):
        rng = np.random.default_rng(8)
        w = Waveform(rng.standard_normal(_LONG), 16000)
        assert psd_slope(w, 100.0, 6000.0) == pytest.approx(0.0, abs=0.3)

    def test_sinusoid_returns_finite(self):
        t = np.arange(1 << 16) / 16000
        w = Waveform(np.sin(2 * np.pi * 1000.0 * t), 16000)
        assert np.isfinite(psd_slope(w, 100.0, 6000.0))

    @pytest.mark.parametrize("rate", [8000, 16000])
    @pytest.mark.parametrize("length", [18432, 20000, 64001])
    @pytest.mark.parametrize("color", NOISE_COLORS)
    def test_matches_scipy_welch(self, color, length, rate):
        # lengths on and off the 2048-sample segment hop; 18432 is the minimum
        w = generate(color, length, rate, seed=length)
        f_lo, f_hi = 100.0, 0.375 * rate
        freqs, psd = signal.welch(w.samples, fs=rate, nperseg=4096, noverlap=2048)
        band = (freqs >= f_lo) & (freqs <= f_hi) & (psd > 0)
        want = np.polyfit(np.log2(freqs[band]), 10.0 * np.log10(psd[band]), 1)[0]
        assert psd_slope(w, f_lo, f_hi) == pytest.approx(want, abs=1e-9)

    def test_rejects_bad_band(self):
        w = Waveform(np.random.default_rng(0).standard_normal(1 << 16), 16000)
        with pytest.raises(ConfigError):
            psd_slope(w, 6000.0, 100.0)
        with pytest.raises(ConfigError):
            psd_slope(w, 100.0, 9000.0)  # above Nyquist

    def test_rejects_short_signal(self):
        w = Waveform(np.ones(1000), 16000)
        with pytest.raises(DegenerateSignalError):
            psd_slope(w, 100.0, 6000.0)
