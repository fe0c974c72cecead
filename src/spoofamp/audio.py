"""Signal container, WAV encoding and decoding, and cropping.

All audio is held as float64 internally regardless of file encoding, because
the projection residual math downstream asserts orthogonality at 1e-9, which
float32 cannot honor. PCM 16-bit and IEEE float32 WAV files are read, with
multichannel input averaged down to mono; files are written as mono float32.
"""

import struct
from dataclasses import dataclass

import numpy as np

from ._files import _read_file, _write_file
from .errors import (
    AudioIOError,
    ConfigError,
    DegenerateSignalError,
    _is_finite_number,
    _is_integer,
)

# WAVE format tags
_FMT_PCM = 0x0001
_FMT_IEEE_FLOAT = 0x0003
_FMT_EXTENSIBLE = 0xFFFE
_MAX_RATE = 1073741823  # the highest a float32 WAV holds: its byte rate, 4 * rate, fills 32 bits

# GUID suffix shared by all EXTENSIBLE subformats; first two bytes carry the tag
_EXT_GUID_TAIL = b"\x00\x00\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


@dataclass(frozen=True)
class Waveform:
    """A finite real-valued signal with a sample rate.

    Parameters
    ----------
    samples : array_like
        One-dimensional amplitude sequence; a read-only float64 copy is
        stored, so later changes to the caller's array do not reach it.
    sample_rate : int
        Samples per second, > 0.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        if isinstance(self.samples, _Fresh):
            arr = self.samples.array
        else:
            arr = np.array(self.samples, dtype=np.float64)
        if arr.ndim != 1:
            raise DegenerateSignalError(f"samples must be 1-D, got shape {arr.shape}")
        if arr.size < 1:
            raise DegenerateSignalError("waveform must hold at least one sample")
        if not np.all(np.isfinite(arr)):
            raise DegenerateSignalError("waveform contains NaN or Inf samples")
        if not (_is_integer(self.sample_rate) and self.sample_rate > 0):
            raise DegenerateSignalError(
                f"sample_rate must be a positive integer, got {self.sample_rate!r}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "sample_rate", int(self.sample_rate))

    def __len__(self):
        return self.samples.size

    def energy(self):
        """Sum of squared samples, by numpy's own sum: a BLAS sum varies with its threads."""
        return float(np.add.reduce(self.samples * self.samples))

    def with_samples(self, samples):
        """New Waveform with the same sample rate and different samples."""
        return Waveform(samples, self.sample_rate)


class _Fresh:
    """Wraps a float64 array that a stage has just allocated and no one else
    holds; a Waveform given one takes the array over instead of copying it."""

    __slots__ = ("array",)

    def __init__(self, array):
        self.array = array


def _check_aligned(a, b, name_a, name_b):
    if len(a) != len(b):
        raise DegenerateSignalError(f"length mismatch: {name_a} {len(a)} vs {name_b} {len(b)}")
    if a.sample_rate != b.sample_rate:
        raise DegenerateSignalError(
            f"sample rate mismatch: {name_a} {a.sample_rate} vs {name_b} {b.sample_rate}"
        )


def read_wav(path):
    """Read a PCM16 or IEEE float32 WAV file as a mono Waveform.

    Multichannel audio is averaged across channels. Integer samples are
    scaled to [-1, 1) by division with 2**(bits-1).

    Raises
    ------
    AudioIOError
        Missing or unreadable file, not a valid RIFF/WAVE file, or an
        encoding other than PCM16 or float32 WAV.
    """
    buf = memoryview(_read_file(path, "audio file", AudioIOError))
    if buf[:4] == b"fLaC":
        raise AudioIOError(f"FLAC is not supported, only WAV: {path}")
    if len(buf) < 12 or buf[:4] != b"RIFF" or buf[8:12] != b"WAVE":
        raise AudioIOError(f"not a RIFF/WAVE file: {path}")
    fmt = data = None
    pos = 12
    while pos < len(buf):  # a later chunk of the same id wins
        if len(buf) - pos < 8:
            raise AudioIOError(f"truncated chunk header in {path}")
        cid, size = struct.unpack_from("<4sI", buf, pos)
        pos += 8
        if cid == b"fmt " and size < 16:
            raise AudioIOError(f"fmt chunk too small ({size} bytes) in {path}")
        if len(buf) - pos < size:
            what = {b"fmt ": "fmt chunk", b"data": "data chunk"}.get(cid, f"chunk {cid!r}")
            raise AudioIOError(f"truncated file while reading {what}: {path}")
        if cid == b"fmt ":
            fmt = bytes(buf[pos : pos + size])
        elif cid == b"data":
            data = buf[pos : pos + size]
        pos += size + size % 2  # chunks are word-aligned
    if fmt is None:
        raise AudioIOError(f"missing fmt chunk in {path}")
    if data is None:
        raise AudioIOError(f"missing data chunk in {path}")

    tag, channels, sample_rate, _byte_rate, _block_align, bits = struct.unpack_from("<HHIIHH", fmt)
    if tag == _FMT_EXTENSIBLE:
        # subformat GUID starts at byte 24 of the fmt chunk
        if len(fmt) < 40:
            raise AudioIOError(f"EXTENSIBLE fmt chunk shorter than 40 bytes: {path}")
        guid = fmt[24:40]
        if guid[2:] != _EXT_GUID_TAIL:
            raise AudioIOError(f"unknown EXTENSIBLE subformat GUID {guid.hex()}: {path}")
        tag = struct.unpack_from("<H", guid)[0]
    if channels < 1:
        raise AudioIOError(f"fmt chunk declares zero channels: {path}")
    if sample_rate == 0:
        raise AudioIOError(f"fmt chunk declares a sample rate of 0: {path}")

    if tag == _FMT_PCM and bits == 16:
        dtype, scale = "<i2", 1.0 / 32768.0
    elif tag == _FMT_IEEE_FLOAT and bits == 32:
        dtype, scale = "<f4", 1.0
    else:
        raise AudioIOError(
            f"unsupported WAV encoding in {path}: format tag {tag}, {bits} bits per sample"
        )
    if len(data) % (bits // 8) != 0:
        raise AudioIOError(
            f"data chunk of {len(data)} bytes is not a whole number of {bits}-bit samples: {path}"
        )
    samples = np.frombuffer(data, dtype=dtype).astype(np.float64)
    samples *= scale

    if samples.size == 0:
        raise AudioIOError(f"data chunk holds no samples: {path}")
    if not np.all(np.isfinite(samples)):
        raise AudioIOError(f"data chunk holds NaN or infinite samples: {path}")
    if channels > 1:
        usable = (samples.size // channels) * channels
        samples = samples[:usable].reshape(-1, channels).mean(axis=1)
        if samples.size == 0:
            raise AudioIOError(f"data chunk shorter than one frame: {path}")
    return Waveform(_Fresh(samples), int(sample_rate))


def write_wav(w, path):
    """Write a mono Waveform as an IEEE float32 WAV file.

    The samples are rounded to float32 and not clipped, so values outside
    [-1, 1] survive the round trip through read_wav.

    Raises
    ------
    DegenerateSignalError
        A rate above 1073741823 Hz: its byte rate, 4 * rate, overflows 32 bits.
        A sample whose float32 rounding is infinite, which read_wav refuses.
    UnwritablePathError
    """
    if w.sample_rate > _MAX_RATE:  # before any file is made
        raise DegenerateSignalError(
            f"cannot write {path}: a float32 WAV holds at most {_MAX_RATE} Hz, got {w.sample_rate}"
        )
    with np.errstate(over="ignore"):
        payload = w.samples.astype("<f4")
    if not np.all(np.isfinite(payload)):
        raise DegenerateSignalError(f"cannot write {path}: a sample lies beyond the float32 range")
    # non-PCM encodings carry a fact chunk with the frame count
    fact = struct.pack("<4sII", b"fact", 4, len(w))
    fmt = struct.pack(
        "<4sIHHIIHH",
        b"fmt ",
        16,
        _FMT_IEEE_FLOAT,
        1,  # channels
        w.sample_rate,
        w.sample_rate * 4,  # bytes per second
        4,  # bytes per frame
        32,  # bits per sample
    )
    # 4-byte samples keep the data chunk word-aligned, so it needs no pad byte
    data_head = struct.pack("<4sI", b"data", payload.nbytes)
    riff_size = 4 + len(fmt) + len(fact) + len(data_head) + payload.nbytes
    header = struct.pack("<4sI4s", b"RIFF", riff_size, b"WAVE")
    _write_file(path, b"".join([header, fmt, fact, data_head, payload]))


def _check_seconds(seconds, name):
    if not (_is_finite_number(seconds) and seconds > 0):
        raise ConfigError(f"{name} must be finite and positive, got {seconds}")
    if seconds > 86400:  # one day; far longer ones overflow seconds * sample_rate
        raise ConfigError(f"{name} must be at most 86400, got {seconds}")


def crop_or_pad(w, target_seconds, rng_seed):
    """Crop to, or tile up to, a target duration.

    Output length is round(target_seconds * sample_rate). Longer input yields
    a seeded uniformly random contiguous crop; shorter input is repeated
    end-to-end and truncated. Tiling rather than zero padding keeps the
    signal's energy statistics intact for the SNR arithmetic downstream.
    """
    _check_seconds(target_seconds, "crop_seconds")
    if not (_is_integer(rng_seed) and rng_seed >= 0):
        raise ConfigError(f"rng_seed must be >= 0, got {rng_seed}")
    out_len = int(round(target_seconds * w.sample_rate))
    if out_len < 1:
        raise DegenerateSignalError(
            f"target of {target_seconds} s rounds to zero samples at {w.sample_rate} Hz"
        )
    n = len(w)
    if n == out_len:
        return w
    if n > out_len:
        rng = np.random.default_rng(rng_seed)
        start = int(rng.integers(0, n - out_len + 1))
        return w.with_samples(w.samples[start : start + out_len])
    whole, part = divmod(out_len, n)
    return Waveform(_Fresh(np.concatenate([w.samples] * whole + [w.samples[:part]])), w.sample_rate)
