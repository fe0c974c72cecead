"""STFT analysis, overlap-add reconstruction, and the fixed window."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from spoofamp.detector import FeatureConfig, extract_features
from spoofamp.enhance import EnhancerKind, enhance
from spoofamp.errors import DegenerateSignalError
from spoofamp.stft import HOP, WINDOW_LENGTH, hann_periodic, istft, stft

from conftest import istft_oracle, make_speechlike, stft_oracle


class TestStftConfig:
    def test_defaults(self):
        assert WINDOW_LENGTH == 512
        assert HOP == 256


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
        spectra = stft(x)
        back = istft(spectra, n)
        assert back.shape == (n,)
        assert np.allclose(back, x, rtol=0, atol=1e-12)

    def test_spectra_shape(self):
        spectra = stft(np.zeros(1000))
        assert spectra.shape[1] == 257
        assert spectra.dtype == np.complex128

    def test_rejects_empty(self):
        with pytest.raises(DegenerateSignalError):
            stft(np.array([]))

    def test_rejects_2d(self):
        with pytest.raises(DegenerateSignalError):
            stft(np.zeros((2, 100)))

    def test_linear_in_input(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(700)
        assert np.allclose(stft(3.0 * x), 3.0 * stft(x), atol=1e-12)

    def test_sinusoid_peaks_at_its_bin(self):
        sr, n = 16000, 4096
        freq = 1000.0  # bin 32 exactly at window 512
        t = np.arange(n) / sr
        spectra = stft(np.sin(2 * np.pi * freq * t))
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
            n_samples = int(rng.integers(1, n_frames * HOP + 1))
            spectra = np.fft.rfft(rng.standard_normal((n_frames, WINDOW_LENGTH)), axis=1)
            frames = np.fft.irfft(spectra, n=WINDOW_LENGTH, axis=1)
            want = _overlap_add_reference(frames, HOP, (n_frames + 1) * HOP)[HOP : HOP + n_samples]
            got = istft(spectra, n_samples)
            assert got.shape == (n_samples,)
            assert np.allclose(got, want, rtol=0, atol=1e-12)


class TestFrameScratch:
    """stft and istft share one frame scratch per thread; no returned array
    may alias it, and threads must not see each other's."""

    def test_later_stft_leaves_earlier_spectra_alone(self):
        rng = np.random.default_rng(20)
        x, y = rng.standard_normal(64000), rng.standard_normal(64000)
        a = stft(x)
        before = a.copy()
        b = stft(y)
        istft(b, y.size)
        assert a.tobytes() == before.tobytes()
        assert not np.shares_memory(a, b)

    def test_enhance_output_survives_later_calls(self):
        y = make_speechlike(seed=21, seconds=4.0)
        kind = EnhancerKind("wiener")
        first = enhance(kind, y)
        before = first.samples.copy()
        enhance(kind, make_speechlike(seed=22, seconds=4.0))
        extract_features(first, FeatureConfig())
        assert first.samples.tobytes() == before.tobytes()

    def test_growing_and_shrinking_lengths_in_one_thread(self):
        rng = np.random.default_rng(23)
        for n in (64000, 16000, 257, 64000):
            x = rng.standard_normal(n)
            spectra = stft(x)
            assert spectra.tobytes() == stft_oracle(x).tobytes()
            back = istft(spectra, n)
            assert back.tobytes() == istft_oracle(spectra, n).tobytes()

    def test_concurrent_threads_match_serial(self):
        waves = [make_speechlike(seed=s, seconds=sec) for s, sec in enumerate((4.0, 1.0, 2.5, 0.3))]
        kinds = [EnhancerKind("wiener"), EnhancerKind("spectral_subtraction")]

        def run(w):
            enhanced = [enhance(kind, w) for kind in kinds]
            feats = [extract_features(v, FeatureConfig()) for v in [w, *enhanced]]
            return b"".join(a.tobytes() for a in [*(v.samples for v in enhanced), *feats])

        serial = [run(w) for w in waves]
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                for _ in range(3):
                    futures = [pool.submit(run, w) for w in waves]
                    assert [f.result(timeout=60) for f in futures] == serial
        finally:
            sys.setswitchinterval(old_interval)
