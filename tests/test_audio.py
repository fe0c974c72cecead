"""Waveform container, WAV round-trips, cropping, and SNR measurement."""

import struct

import numpy as np
import pytest

from spoofamp.audio import Waveform, crop_or_pad, measure_snr, read_wav, write_wav
from spoofamp.errors import (
    DegenerateSignalError,
    InfiniteSnrError,
    MalformedWavError,
    MismatchError,
    MissingFileError,
    UnsupportedEncodingError,
    UnwritablePathError,
)

from conftest import write_minimal_wav


class TestWaveform:
    def test_rejects_empty(self):
        with pytest.raises(DegenerateSignalError):
            Waveform(np.array([]), 16000)

    def test_rejects_nan_and_inf(self):
        with pytest.raises(DegenerateSignalError):
            Waveform(np.array([0.0, np.nan]), 16000)
        with pytest.raises(DegenerateSignalError):
            Waveform(np.array([np.inf]), 16000)

    def test_rejects_bad_rate(self):
        with pytest.raises(DegenerateSignalError):
            Waveform(np.zeros(4), 0)
        with pytest.raises(DegenerateSignalError):
            Waveform(np.zeros(4), -8000)
        with pytest.raises(DegenerateSignalError):
            Waveform(np.zeros(4), 16000.5)

    def test_rejects_2d(self):
        with pytest.raises(DegenerateSignalError):
            Waveform(np.zeros((2, 4)), 16000)

    def test_samples_immutable(self):
        w = Waveform(np.ones(4), 16000)
        with pytest.raises(ValueError):
            w.samples[0] = 2.0

    def test_source_array_not_aliased(self):
        src = np.ones(4)
        w = Waveform(src, 16000)
        src[0] = 5.0
        assert w.samples[0] == 1.0

    def test_energy_rms_duration(self):
        w = Waveform(np.array([3.0, 4.0]), 2)
        assert w.energy() == 25.0
        assert w.rms() == pytest.approx(np.sqrt(12.5))
        assert w.duration_seconds == 1.0
        assert len(w) == 2


class TestWavRoundTrip:
    def test_float32_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        w = Waveform(rng.standard_normal(1000).astype(np.float32).astype(np.float64), 16000)
        p = tmp_path / "a.wav"
        write_wav(w, str(p), "float32")
        back = read_wav(str(p))
        assert back.sample_rate == 16000
        assert np.array_equal(back.samples, w.samples)

    def test_pcm16_within_half_step(self, tmp_path):
        rng = np.random.default_rng(2)
        w = Waveform(rng.uniform(-0.99, 0.99, 1000), 8000)
        p = tmp_path / "a.wav"
        write_wav(w, str(p), "pcm16")
        back = read_wav(str(p))
        assert back.sample_rate == 8000
        assert np.max(np.abs(back.samples - w.samples)) <= 2.0**-15

    def test_pcm16_scaling_definition(self, tmp_path):
        # 16-bit levels 0, 16384, -16384 decode as 0, 0.5, -0.5
        payload = struct.pack("<3h", 0, 16384, -16384)
        p = tmp_path / "raw.wav"
        write_minimal_wav(p, payload, fmt_tag=1, bits=16, channels=1, rate=16000)
        w = read_wav(str(p))
        assert np.array_equal(w.samples, [0.0, 0.5, -0.5])

    def test_pcm16_clamps_out_of_range(self, tmp_path):
        w = Waveform(np.array([2.0]), 16000)
        p = tmp_path / "a.wav"
        write_wav(w, str(p), "pcm16")
        back = read_wav(str(p))
        # clamp to 1 - 2**-15, then quantize: 32767 / 32768
        assert back.samples[0] == pytest.approx(32767.0 / 32768.0, abs=1e-12)

    def test_stereo_is_averaged(self, tmp_path):
        payload = struct.pack("<2f", 1.0, 0.0)
        p = tmp_path / "st.wav"
        write_minimal_wav(p, payload, fmt_tag=3, bits=32, channels=2, rate=16000)
        w = read_wav(str(p))
        assert len(w) == 1
        assert w.samples[0] == pytest.approx(0.5)

    def test_extensible_pcm16_read(self, tmp_path):
        payload = struct.pack("<2h", 16384, -16384)
        p = tmp_path / "ext.wav"
        write_minimal_wav(p, payload, fmt_tag=1, bits=16, channels=1, rate=16000,
                          extensible=True)
        w = read_wav(str(p))
        assert np.array_equal(w.samples, [0.5, -0.5])

    def test_odd_sized_chunk_padding(self, tmp_path):
        # a 3-byte LIST chunk before data must be skipped with its pad byte
        payload = struct.pack("<2h", 0, 16384)
        p = tmp_path / "pad.wav"
        write_minimal_wav(p, payload, fmt_tag=1, bits=16, channels=1, rate=16000,
                          extra_chunk=(b"LIST", b"abc"))
        w = read_wav(str(p))
        assert np.array_equal(w.samples, [0.0, 0.5])


class TestWavErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFileError):
            read_wav(str(tmp_path / "absent.wav"))

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "t.wav"
        p.write_bytes(b"RIFF\x00\x00")
        with pytest.raises(MalformedWavError):
            read_wav(str(p))

    def test_not_riff(self, tmp_path):
        p = tmp_path / "t.wav"
        p.write_bytes(b"OggS" + b"\x00" * 40)
        with pytest.raises(MalformedWavError):
            read_wav(str(p))

    def test_missing_data_chunk(self, tmp_path):
        fmt = struct.pack("<4sIHHIIHH", b"fmt ", 16, 1, 1, 16000, 32000, 2, 16)
        body = fmt
        p = tmp_path / "t.wav"
        p.write_bytes(struct.pack("<4sI4s", b"RIFF", 4 + len(body), b"WAVE") + body)
        with pytest.raises(MalformedWavError):
            read_wav(str(p))

    def test_unsupported_encoding(self, tmp_path):
        # 8-bit PCM is not supported
        payload = bytes([128, 255])
        p = tmp_path / "u.wav"
        write_minimal_wav(p, payload, fmt_tag=1, bits=8, channels=1, rate=16000)
        with pytest.raises(UnsupportedEncodingError):
            read_wav(str(p))

    @pytest.mark.parametrize(
        "payload, fmt_tag, bits",
        [(b"\x00\x01\x02", 1, 16), (b"\x00" * 6, 3, 32)],
        ids=["pcm16_3_bytes", "float32_6_bytes"],
    )
    def test_partial_sample_rejected(self, tmp_path, payload, fmt_tag, bits):
        p = tmp_path / "partial.wav"
        write_minimal_wav(p, payload, fmt_tag=fmt_tag, bits=bits, channels=1, rate=16000)
        with pytest.raises(MalformedWavError, match="whole number"):
            read_wav(str(p))

    def test_flac_named(self, tmp_path):
        p = tmp_path / "a.flac"
        p.write_bytes(b"fLaC" + b"\x00" * 40)
        with pytest.raises(UnsupportedEncodingError, match="FLAC"):
            read_wav(str(p))

    def test_unwritable_path(self, tmp_path):
        w = Waveform(np.zeros(4), 16000)
        with pytest.raises(UnwritablePathError):
            write_wav(w, str(tmp_path / "no" / "dir" / "a.wav"), "float32")

    def test_unknown_encoding_name(self, tmp_path):
        w = Waveform(np.zeros(4), 16000)
        with pytest.raises(UnwritablePathError):
            write_wav(w, str(tmp_path / "a.wav"), "pcm24")


class TestCropOrPad:
    def test_exact_length_identity(self):
        w = Waveform(np.arange(16000, dtype=float), 16000)
        out = crop_or_pad(w, 1.0, rng_seed=7)
        assert out is w

    def test_crop_deterministic(self):
        rng = np.random.default_rng(3)
        w = Waveform(rng.standard_normal(6 * 16000), 16000)
        a = crop_or_pad(w, 4.0, rng_seed=11)
        b = crop_or_pad(w, 4.0, rng_seed=11)
        assert len(a) == 4 * 16000
        assert np.array_equal(a.samples, b.samples)

    def test_crop_is_contiguous_window(self):
        w = Waveform(np.arange(100, dtype=float), 10)
        out = crop_or_pad(w, 4.0, rng_seed=5)
        start = int(out.samples[0])
        assert np.array_equal(out.samples, np.arange(start, start + 40, dtype=float))

    def test_pad_tiles_not_zeros(self):
        w = Waveform(np.array([1.0, 2.0]), 2)
        out = crop_or_pad(w, 2.0, rng_seed=0)
        assert np.array_equal(out.samples, [1.0, 2.0, 1.0, 2.0])

    def test_pad_truncates_last_tile(self):
        w = Waveform(np.array([1.0, 2.0, 3.0]), 2)
        out = crop_or_pad(w, 2.0, rng_seed=0)
        assert np.array_equal(out.samples, [1.0, 2.0, 3.0, 1.0])

    def test_length_property_randomized(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(1, 5000))
            rate = int(rng.choice([8000, 16000, 44100]))
            target = float(rng.uniform(0.01, 0.6))
            w = Waveform(rng.standard_normal(n), rate)
            out = crop_or_pad(w, target, rng_seed=int(rng.integers(0, 1 << 31)))
            assert len(out) == int(round(target * rate))

    def test_rejects_nonpositive_target(self):
        w = Waveform(np.zeros(4), 16000)
        with pytest.raises(DegenerateSignalError):
            crop_or_pad(w, 0.0, rng_seed=0)
        with pytest.raises(DegenerateSignalError):
            crop_or_pad(w, -1.0, rng_seed=0)


class TestMeasureSnr:
    def test_zero_db_hand_case(self):
        clean = Waveform(np.array([1.0, 1.0, 1.0, 1.0]), 16000)
        mixture = Waveform(np.array([2.0, 0.0, 2.0, 0.0]), 16000)
        assert measure_snr(clean, mixture) == pytest.approx(0.0, abs=1e-12)

    def test_twenty_db_hand_case(self):
        clean = Waveform(np.array([1.0, 0.0]), 16000)
        mixture = clean.with_samples(clean.samples + 0.1 * clean.samples)
        assert measure_snr(clean, mixture) == pytest.approx(20.0, abs=1e-9)

    def test_equal_signals_out_of_range(self):
        w = Waveform(np.ones(8), 16000)
        with pytest.raises(InfiniteSnrError):
            measure_snr(w, w)

    def test_zero_energy_clean(self):
        clean = Waveform(np.zeros(8), 16000)
        mixture = Waveform(np.ones(8), 16000)
        with pytest.raises(DegenerateSignalError):
            measure_snr(clean, mixture)

    def test_length_mismatch(self):
        with pytest.raises(MismatchError):
            measure_snr(Waveform(np.ones(8), 16000), Waveform(np.ones(9), 16000))

    def test_rate_mismatch(self):
        with pytest.raises(MismatchError):
            measure_snr(Waveform(np.ones(8), 16000), Waveform(np.ones(8), 8000))
