"""Waveform container, WAV round-trips, cropping, and the SNR oracle."""

import os
import re
import stat
import struct
import warnings

import numpy as np
import pytest

from spoofamp import _files
from spoofamp._files import _read_file, _read_text, _write_file
from spoofamp.audio import Waveform, crop_or_pad, read_wav, write_wav
from spoofamp.errors import (
    AudioIOError,
    ConfigError,
    DegenerateSignalError,
    ManifestError,
    UnwritablePathError,
)
from spoofamp.manifest import load_manifest

from conftest import measure_snr, write_minimal_wav


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
        with pytest.raises(DegenerateSignalError):
            Waveform(np.zeros(4), True)
        with pytest.raises(DegenerateSignalError):
            Waveform(np.zeros(4), 16000.0)

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

    def test_energy_and_length(self):
        w = Waveform(np.array([3.0, 4.0]), 2)
        assert w.energy() == 25.0
        assert len(w) == 2


class TestWavRoundTrip:
    def test_float32_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        w = Waveform(rng.standard_normal(1000).astype(np.float32).astype(np.float64), 16000)
        p = tmp_path / "a.wav"
        write_wav(w, str(p))
        back = read_wav(str(p))
        assert back.sample_rate == 16000
        assert np.array_equal(back.samples, w.samples)

    def test_pcm16_scaling_definition(self, tmp_path):
        # 16-bit levels 0, 16384, -16384 decode as 0, 0.5, -0.5
        payload = struct.pack("<3h", 0, 16384, -16384)
        p = tmp_path / "raw.wav"
        write_minimal_wav(p, payload, fmt_tag=1, bits=16, channels=1, rate=16000)
        w = read_wav(str(p))
        assert np.array_equal(w.samples, [0.0, 0.5, -0.5])

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


    def test_written_bytes_layout(self, tmp_path):
        p = tmp_path / "a.wav"
        write_wav(Waveform(np.array([0.5, -0.25]), 8000), str(p))
        expected = (
            struct.pack("<4sI4s", b"RIFF", 56, b"WAVE")
            + struct.pack("<4sIHHIIHH", b"fmt ", 16, 3, 1, 8000, 32000, 4, 32)
            + struct.pack("<4sII", b"fact", 4, 2)
            + struct.pack("<4sI2f", b"data", 8, 0.5, -0.25)
        )
        assert p.read_bytes() == expected

    def test_repeated_chunk_last_wins(self, tmp_path):
        p = tmp_path / "twice.wav"
        write_minimal_wav(p, struct.pack("<2h", 0, 16384), fmt_tag=1, bits=16, channels=1,
                          rate=16000)
        data = p.read_bytes() + struct.pack("<4sI2h", b"data", 4, -16384, 0)
        p.write_bytes(data)
        assert np.array_equal(read_wav(str(p)).samples, [-0.5, 0.0])

    def test_odd_last_chunk_without_pad_byte(self, tmp_path):
        p = tmp_path / "tail.wav"
        write_minimal_wav(p, struct.pack("<2h", 0, 16384), fmt_tag=1, bits=16, channels=1,
                          rate=16000)
        p.write_bytes(p.read_bytes() + struct.pack("<4sI", b"LIST", 3) + b"abc")
        assert np.array_equal(read_wav(str(p)).samples, [0.0, 0.5])


class TestFileIO:
    def test_read_failure_names_file(self, tmp_path):
        with pytest.raises(ConfigError, match=re.escape(f"cannot read thing {tmp_path}: ")):
            _read_file(str(tmp_path), "thing", ConfigError)

    @pytest.mark.parametrize(
        "reader, error, what",
        [(read_wav, AudioIOError, "audio file"), (load_manifest, ManifestError, "manifest file")],
        ids=["wav", "manifest"],
    )
    def test_directory_is_unreadable_not_missing(self, tmp_path, reader, error, what):
        with pytest.raises(error, match=re.escape(f"cannot read {what} {tmp_path}: ")):
            reader(str(tmp_path))

    def test_read_wav_failure_is_audio_error(self, tmp_path, monkeypatch):
        p = tmp_path / "a.wav"
        write_wav(Waveform(np.zeros(4), 16000), str(p))

        def denied(path, mode):
            raise PermissionError(13, "Permission denied", path)

        monkeypatch.setattr(_files, "open", denied, raising=False)
        with pytest.raises(AudioIOError, match="cannot read audio file .*Permission denied"):
            read_wav(str(p))

    def test_text_newlines_translated(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_bytes(b"a\r\nb\rc\n\r\n")
        assert _read_text(str(p), "text", ConfigError) == "a\nb\nc\n\n"

    def test_text_not_utf8_named(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_bytes(b"ok\n\xff\n")
        with pytest.raises(ConfigError, match=re.escape(f"{p}: text is not UTF-8 text")):
            _read_text(str(p), "text", ConfigError)

    def test_write_failure_names_file(self, tmp_path):
        with pytest.raises(UnwritablePathError, match=re.escape(f"cannot write {tmp_path}: ")):
            _write_file(str(tmp_path), b"x")

    def test_write_replaces_the_whole_file_with_umask_mode(self, tmp_path):
        p = tmp_path / "out.bin"
        p.write_bytes(b"a longer old content")
        _write_file(str(p), b"new")
        assert p.read_bytes() == b"new"
        assert os.listdir(tmp_path) == ["out.bin"]  # no temp file left beside it
        umask = os.umask(0)
        os.umask(umask)
        assert stat.S_IMODE(p.stat().st_mode) == 0o666 & ~umask

    def test_symlink_is_written_through(self, tmp_path):
        real = tmp_path / "real.bin"
        real.write_bytes(b"old")
        link = tmp_path / "link.bin"
        link.symlink_to(real)
        _write_file(str(link), b"new")
        assert link.is_symlink()
        assert real.read_bytes() == b"new"
        assert sorted(os.listdir(tmp_path)) == ["link.bin", "real.bin"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_fifo_is_written_in_place_not_replaced(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            _write_file(str(fifo), b"abc")
            assert os.read(reader, 16) == b"abc"
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert os.listdir(tmp_path) == ["pipe"]

    def test_directory_target_leaves_no_temp_beside_it(self, tmp_path):
        target = tmp_path / "d"
        target.mkdir()
        with pytest.raises(UnwritablePathError, match=re.escape(f"cannot write {target}: ")):
            _write_file(str(target), b"x")
        assert os.listdir(tmp_path) == ["d"]

    def test_failed_rename_keeps_old_bytes_and_leaves_no_temp(self, tmp_path, monkeypatch):
        p = tmp_path / "out.bin"
        p.write_bytes(b"old")

        def refused(src, dst):
            raise PermissionError(13, "Permission denied", dst)

        monkeypatch.setattr(_files.os, "replace", refused)
        with pytest.raises(UnwritablePathError, match=re.escape(f"cannot write {p}: ")):
            _write_file(str(p), b"new")
        assert p.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["out.bin"]


class TestWavErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(AudioIOError, match="no such audio file"):
            read_wav(str(tmp_path / "absent.wav"))

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "t.wav"
        p.write_bytes(b"RIFF\x00\x00")
        with pytest.raises(AudioIOError, match="not a RIFF/WAVE file"):
            read_wav(str(p))

    def test_not_riff(self, tmp_path):
        p = tmp_path / "t.wav"
        p.write_bytes(b"OggS" + b"\x00" * 40)
        with pytest.raises(AudioIOError, match="not a RIFF/WAVE file"):
            read_wav(str(p))

    def test_missing_data_chunk(self, tmp_path):
        fmt = struct.pack("<4sIHHIIHH", b"fmt ", 16, 1, 1, 16000, 32000, 2, 16)
        body = fmt
        p = tmp_path / "t.wav"
        p.write_bytes(struct.pack("<4sI4s", b"RIFF", 4 + len(body), b"WAVE") + body)
        with pytest.raises(AudioIOError, match="missing data chunk"):
            read_wav(str(p))

    def test_unsupported_encoding(self, tmp_path):
        # 8-bit PCM is not supported
        payload = bytes([128, 255])
        p = tmp_path / "u.wav"
        write_minimal_wav(p, payload, fmt_tag=1, bits=8, channels=1, rate=16000)
        with pytest.raises(AudioIOError, match="unsupported WAV encoding") as e:
            read_wav(str(p))
        assert str(p) in str(e.value)

    @pytest.mark.parametrize(
        "payload, fmt_tag, bits",
        [(b"\x00\x01\x02", 1, 16), (b"\x00" * 6, 3, 32)],
        ids=["pcm16_3_bytes", "float32_6_bytes"],
    )
    def test_partial_sample_rejected(self, tmp_path, payload, fmt_tag, bits):
        p = tmp_path / "partial.wav"
        write_minimal_wav(p, payload, fmt_tag=fmt_tag, bits=bits, channels=1, rate=16000)
        with pytest.raises(AudioIOError, match="whole number"):
            read_wav(str(p))

    @pytest.mark.parametrize(
        "payload, fmt_tag, bits, rate, channels, match",
        [
            (struct.pack("<2h", 0, 16384), 1, 16, 0, 1, "sample rate of 0"),
            (struct.pack("<2f", 0.5, float("nan")), 3, 32, 16000, 1, "NaN or infinite"),
            (struct.pack("<2f", float("-inf"), 0.5), 3, 32, 16000, 1, "NaN or infinite"),
            (struct.pack("<2h", 0, 16384), 1, 16, 16000, 0, "zero channels"),
            (struct.pack("<2h", 0, 16384), 0xFFFE, 16, 16000, 1, "shorter than 40 bytes"),
            (b"", 3, 32, 16000, 1, "holds no samples"),
            (struct.pack("<f", 0.5), 3, 32, 16000, 2, "shorter than one frame"),
        ],
        ids=["zero_rate", "nan_sample", "inf_sample", "zero_channels", "short_extensible",
             "empty_data", "stereo_one_sample"],
    )
    def test_corrupt_fmt_or_samples_malformed(self, tmp_path, payload, fmt_tag, bits, rate,
                                              channels, match):
        p = tmp_path / "corrupt.wav"
        write_minimal_wav(p, payload, fmt_tag=fmt_tag, bits=bits, channels=channels, rate=rate)
        with pytest.raises(AudioIOError, match=match) as e:
            read_wav(str(p))
        assert str(p) in str(e.value)

    @pytest.mark.parametrize(
        "corrupt, match",
        [
            # byte 50 lies in the EXTENSIBLE subformat GUID's fixed tail
            (lambda b: b[:50] + bytes([b[50] ^ 0xFF]) + b[51:],
             "unknown EXTENSIBLE subformat GUID"),
            (lambda b: b[:-2], "truncated file while reading data chunk"),
            # bytes 16..19 hold the fmt chunk's size
            (lambda b: b[:16] + struct.pack("<I", 14) + b[20:], r"fmt chunk too small \(14 bytes\)"),
            (lambda b: b.replace(b"fmt ", b"junk"), "missing fmt chunk"),
        ],
        ids=["unknown_guid", "truncated_data", "short_fmt", "no_fmt"],
    )
    def test_damaged_file_named(self, tmp_path, corrupt, match):
        p = tmp_path / "damaged.wav"
        payload = struct.pack("<2f", 0.5, -0.5)
        write_minimal_wav(p, payload, fmt_tag=3, bits=32, channels=1, rate=16000,
                          extensible=True)
        assert read_wav(str(p)).samples.tolist() == [0.5, -0.5]
        p.write_bytes(corrupt(p.read_bytes()))
        with pytest.raises(AudioIOError, match=match) as e:
            read_wav(str(p))
        assert str(p) in str(e.value)

    def test_flac_named(self, tmp_path):
        p = tmp_path / "a.flac"
        p.write_bytes(b"fLaC" + b"\x00" * 40)
        with pytest.raises(AudioIOError, match="FLAC is not supported"):
            read_wav(str(p))

    def test_unwritable_path(self, tmp_path):
        w = Waveform(np.zeros(4), 16000)
        with pytest.raises(UnwritablePathError):
            write_wav(w, str(tmp_path / "no" / "dir" / "a.wav"))

    def test_rate_whose_byte_rate_overflows_the_header_refused(self, tmp_path):
        # a float32 WAV stores 4 * rate in 32 bits; the reader takes any 32-bit rate
        write_wav(Waveform(np.zeros(4), 1073741823), str(tmp_path / "top.wav"))
        assert read_wav(str(tmp_path / "top.wav")).sample_rate == 1073741823
        out = tmp_path / "a.wav"
        with pytest.raises(DegenerateSignalError) as e:
            write_wav(Waveform(np.zeros(4), 1073741824), str(out))
        assert str(e.value) == (
            f"cannot write {out}: a float32 WAV holds at most 1073741823 Hz, got 1073741824"
        )
        assert sorted(os.listdir(tmp_path)) == ["top.wav"]  # no file, no temp file

    def test_sample_beyond_float32_range_refused(self, tmp_path):
        # float32 rounds 1e39 to inf, which read_wav refuses; the largest float32 survives
        top = np.finfo(np.float32).max.item()
        assert top == 3.4028234663852886e38
        write_wav(Waveform(np.array([0.0, -top, top]), 16000), str(tmp_path / "top.wav"))
        assert read_wav(str(tmp_path / "top.wav")).samples.tolist() == [0.0, -top, top]
        out = tmp_path / "a.wav"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warning must not leak
            with pytest.raises(DegenerateSignalError) as e:
                write_wav(Waveform(np.array([0.0, 1e39]), 16000), str(out))
        assert str(e.value) == f"cannot write {out}: a sample lies beyond the float32 range"
        assert sorted(os.listdir(tmp_path)) == ["top.wav"]  # no file, no temp file


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
        with pytest.raises(ConfigError):
            crop_or_pad(w, 0.0, rng_seed=0)
        with pytest.raises(ConfigError):
            crop_or_pad(w, -1.0, rng_seed=0)

    @pytest.mark.parametrize(
        "target,seed,error",
        [
            (float("nan"), 0, ConfigError),
            (float("inf"), 0, ConfigError),
            (0.5, -1, ConfigError),
            (1e-5, 0, DegenerateSignalError),  # 0.16 samples at 16 kHz round to none
        ],
        ids=["nan_target", "inf_target", "negative_seed", "zero_samples"],
    )
    def test_rejects_bad_input(self, target, seed, error):
        w = Waveform(np.ones(16000), 16000)
        with pytest.raises(error):
            crop_or_pad(w, target, rng_seed=seed)


class TestMeasureSnr:
    def test_zero_db_hand_case(self):
        clean = Waveform(np.array([1.0, 1.0, 1.0, 1.0]), 16000)
        mixture = Waveform(np.array([2.0, 0.0, 2.0, 0.0]), 16000)
        assert measure_snr(clean, mixture) == pytest.approx(0.0, abs=1e-12)

    def test_twenty_db_hand_case(self):
        clean = Waveform(np.array([1.0, 0.0]), 16000)
        mixture = clean.with_samples(clean.samples + 0.1 * clean.samples)
        assert measure_snr(clean, mixture) == pytest.approx(20.0, abs=1e-9)
