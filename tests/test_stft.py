"""STFT analysis, overlap-add reconstruction, and config validation."""

import numpy as np
import pytest

from spoofamp.errors import ConfigError, DegenerateSignalError
from spoofamp.stft import StftConfig, hann_periodic, istft, stft


class TestStftConfig:
    def test_defaults(self):
        cfg = StftConfig()
        assert cfg.window_length == 512
        assert cfg.hop == 256

    def test_rejects_odd_or_short_window(self):
        for window_length in (0, 1, 511):
            with pytest.raises(ConfigError):
                StftConfig(window_length=window_length)


class TestHannWindow:
    def test_half_overlapped_copies_sum_to_one(self):
        n = 64
        w = hann_periodic(n)
        total = np.zeros(2 * n)
        for start in (0, n // 2, n, 3 * n // 2):
            total[start : start + n] += np.pad(w, 0)[: min(n, 2 * n - start)]
        # interior samples covered by two half-overlapped windows sum to 1
        assert np.allclose(total[n // 2 : 3 * n // 2], 1.0, atol=1e-15)

    def test_endpoints(self):
        w = hann_periodic(8)
        assert w[0] == 0.0
        assert w[4] == pytest.approx(1.0)


class TestReconstruction:
    @pytest.mark.parametrize("n", [1, 7, 256, 512, 1000, 4096, 5000])
    def test_roundtrip_exact(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        cfg = StftConfig()
        spectra = stft(x, cfg)
        back = istft(spectra, cfg, n)
        assert back.shape == (n,)
        assert np.allclose(back, x, rtol=0, atol=1e-12)

    def test_roundtrip_small_window(self):
        rng = np.random.default_rng(99)
        x = rng.standard_normal(300)
        cfg = StftConfig(window_length=32)
        assert np.allclose(istft(stft(x, cfg), cfg, 300), x, atol=1e-12)

    def test_spectra_shape(self):
        cfg = StftConfig()
        spectra = stft(np.zeros(1000), cfg)
        assert spectra.shape[1] == 257
        assert spectra.dtype == np.complex128

    def test_rejects_empty(self):
        with pytest.raises(DegenerateSignalError):
            stft(np.array([]), StftConfig())

    def test_rejects_2d(self):
        with pytest.raises(DegenerateSignalError):
            stft(np.zeros((2, 100)), StftConfig())

    def test_linear_in_input(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(700)
        cfg = StftConfig()
        assert np.allclose(stft(3.0 * x, cfg), 3.0 * stft(x, cfg), atol=1e-12)

    def test_sinusoid_peaks_at_its_bin(self):
        sr, n = 16000, 4096
        freq = 1000.0  # bin 32 exactly at window 512
        t = np.arange(n) / sr
        spectra = stft(np.sin(2 * np.pi * freq * t), StftConfig())
        mag = np.abs(spectra[4])  # interior frame
        assert np.argmax(mag) == 32


def _overlap_add_reference(frames, hop, length):
    """Direct per-sample accumulation, written independently of istft."""
    out = np.zeros(length)
    for i, frame in enumerate(frames):
        for j, v in enumerate(frame):
            pos = i * hop + j
            if pos < length:
                out[pos] += v
    return out


class TestOverlapAdd:
    def test_matches_reference(self):
        """istft is a plain overlap-add of the irfft frames, trimmed of the
        one-hop lead-in pad."""
        rng = np.random.default_rng(10)
        for _ in range(20):
            n_frames = int(rng.integers(1, 12))
            win = int(rng.choice([8, 16, 32]))
            hop = win // 2
            n_samples = int(rng.integers(1, n_frames * hop + 1))
            spectra = np.fft.rfft(rng.standard_normal((n_frames, win)), axis=1)
            frames = np.fft.irfft(spectra, n=win, axis=1)
            want = _overlap_add_reference(frames, hop, (n_frames + 1) * hop)[hop : hop + n_samples]
            got = istft(spectra, StftConfig(window_length=win), n_samples)
            assert got.shape == (n_samples,)
            assert np.allclose(got, want, rtol=0, atol=1e-12)
