"""Signal container, WAV file I/O, cropping, and SNR measurement.

All audio is held as float64 internally regardless of file encoding, because
the projection residual math downstream asserts orthogonality at 1e-9, which
float32 cannot honor. Only mono PCM 16-bit and IEEE float32 WAV files are
read; multichannel input is averaged down to mono.
"""

import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateSignalError,
    InfiniteSnrError,
    MalformedWavError,
    MismatchError,
    MissingFileError,
    UnsupportedEncodingError,
    UnwritablePathError,
)

# WAVE format tags
_FMT_PCM = 0x0001
_FMT_IEEE_FLOAT = 0x0003
_FMT_EXTENSIBLE = 0xFFFE

# GUID suffix shared by all EXTENSIBLE subformats; first two bytes carry the tag
_EXT_GUID_TAIL = b"\x00\x00\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


@dataclass(frozen=True)
class Waveform:
    """A finite real-valued signal with a sample rate.

    Parameters
    ----------
    samples : array_like
        One-dimensional amplitude sequence; stored as read-only float64.
    sample_rate : int
        Samples per second, > 0.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim != 1:
            raise DegenerateSignalError(f"samples must be 1-D, got shape {arr.shape}")
        if arr.size < 1:
            raise DegenerateSignalError("waveform must hold at least one sample")
        if not np.all(np.isfinite(arr)):
            raise DegenerateSignalError("waveform contains NaN or Inf samples")
        rate = self.sample_rate
        if isinstance(rate, float):
            if not rate.is_integer():
                raise DegenerateSignalError(f"sample_rate must be an integer, got {rate}")
            rate = int(rate)
        if not isinstance(rate, (int, np.integer)) or rate <= 0:
            raise DegenerateSignalError(f"sample_rate must be a positive integer, got {rate!r}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "sample_rate", int(rate))

    def __len__(self):
        return self.samples.size

    @property
    def duration_seconds(self):
        return self.samples.size / self.sample_rate

    def energy(self):
        """Sum of squared samples."""
        return float(np.dot(self.samples, self.samples))

    def rms(self):
        return float(np.sqrt(self.energy() / self.samples.size))

    def with_samples(self, samples):
        """New Waveform with the same sample rate and different samples."""
        return Waveform(samples, self.sample_rate)


def _read_exact(f, n, what):
    data = f.read(n)
    if len(data) != n:
        raise MalformedWavError(f"truncated file while reading {what}")
    return data


def read_wav(path):
    """Read a PCM16 or IEEE float32 WAV file as a mono Waveform.

    Multichannel audio is averaged across channels. Integer samples are
    scaled to [-1, 1) by division with 2**(bits-1).

    Raises
    ------
    MissingFileError, MalformedWavError, UnsupportedEncodingError
    """
    if not os.path.isfile(path):
        raise MissingFileError(f"no such audio file: {path}")
    with open(path, "rb") as f:
        riff = f.read(12)
        if riff[:4] == b"fLaC":
            raise UnsupportedEncodingError(f"FLAC is not supported, only WAV: {path}")
        if len(riff) < 12 or riff[:4] != b"RIFF" or riff[8:12] != b"WAVE":
            raise MalformedWavError(f"not a RIFF/WAVE file: {path}")
        fmt = None
        data = None
        while True:
            head = f.read(8)
            if len(head) == 0:
                break
            if len(head) < 8:
                raise MalformedWavError(f"truncated chunk header in {path}")
            cid, size = struct.unpack("<4sI", head)
            if cid == b"fmt ":
                if size < 16:
                    raise MalformedWavError(f"fmt chunk too small ({size} bytes) in {path}")
                fmt = _read_exact(f, size, "fmt chunk")
            elif cid == b"data":
                data = _read_exact(f, size, "data chunk")
            else:
                _read_exact(f, size, f"chunk {cid!r}")
            if size % 2 == 1:
                f.read(1)  # chunks are word-aligned
        if fmt is None:
            raise MalformedWavError(f"missing fmt chunk in {path}")
        if data is None:
            raise MalformedWavError(f"missing data chunk in {path}")

    tag, channels, sample_rate, _byte_rate, _block_align, bits = struct.unpack(
        "<HHIIHH", fmt[:16]
    )
    if tag == _FMT_EXTENSIBLE:
        # subformat GUID starts at byte 24 of the fmt chunk
        if len(fmt) < 40:
            raise MalformedWavError("EXTENSIBLE fmt chunk shorter than 40 bytes")
        guid = fmt[24:40]
        if guid[2:] != _EXT_GUID_TAIL:
            raise UnsupportedEncodingError(f"unknown EXTENSIBLE subformat GUID {guid.hex()}")
        tag = struct.unpack("<H", guid[:2])[0]
    if channels < 1:
        raise MalformedWavError("fmt chunk declares zero channels")

    if tag == _FMT_PCM and bits == 16:
        dtype, scale = "<i2", 1.0 / 32768.0
    elif tag == _FMT_IEEE_FLOAT and bits == 32:
        dtype, scale = "<f4", 1.0
    else:
        raise UnsupportedEncodingError(
            f"unsupported WAV encoding: format tag {tag}, {bits} bits per sample"
        )
    if len(data) % (bits // 8) != 0:
        raise MalformedWavError(
            f"data chunk of {len(data)} bytes is not a whole number of {bits}-bit samples: {path}"
        )
    samples = np.frombuffer(data, dtype=dtype).astype(np.float64) * scale

    if samples.size == 0:
        raise MalformedWavError(f"data chunk holds no samples: {path}")
    if channels > 1:
        usable = (samples.size // channels) * channels
        samples = samples[:usable].reshape(-1, channels).mean(axis=1)
        if samples.size == 0:
            raise MalformedWavError(f"data chunk shorter than one frame: {path}")
    return Waveform(samples, int(sample_rate))


def write_wav(w, path, encoding="float32"):
    """Write a mono Waveform as a WAV file.

    encoding "float32" is lossless for the float64-held samples up to float32
    rounding; "pcm16" clamps to [-1, 1 - 2**-15] then rounds to the nearest
    16-bit level.

    Raises
    ------
    UnwritablePathError
    """
    if encoding == "pcm16":
        clipped = np.clip(w.samples, -1.0, 1.0 - 2.0**-15)
        ints = np.rint(clipped * 32768.0).astype("<i2")
        payload = ints.tobytes()
        tag, bits = _FMT_PCM, 16
        fact = b""
    elif encoding == "float32":
        payload = w.samples.astype("<f4").tobytes()
        tag, bits = _FMT_IEEE_FLOAT, 32
        # non-PCM encodings carry a fact chunk with the frame count
        fact = struct.pack("<4sII", b"fact", 4, len(w))
    else:
        raise UnwritablePathError(f"unknown encoding {encoding!r}")

    block_align = bits // 8
    fmt = struct.pack(
        "<4sIHHIIHH",
        b"fmt ",
        16,
        tag,
        1,
        w.sample_rate,
        w.sample_rate * block_align,
        block_align,
        bits,
    )
    data_head = struct.pack("<4sI", b"data", len(payload))
    pad = b"\x00" if len(payload) % 2 == 1 else b""
    body = fmt + fact + data_head + payload + pad
    header = struct.pack("<4sI4s", b"RIFF", 4 + len(body), b"WAVE")
    try:
        with open(path, "wb") as f:
            f.write(header)
            f.write(body)
    except OSError as e:
        raise UnwritablePathError(f"cannot write {path}: {e}") from e


def crop_or_pad(w, target_seconds, rng_seed):
    """Crop to, or tile up to, a target duration.

    Output length is round(target_seconds * sample_rate). Longer input yields
    a seeded uniformly random contiguous crop; shorter input is repeated
    end-to-end and truncated. Tiling rather than zero padding keeps the
    signal's energy statistics intact for the SNR arithmetic downstream.
    """
    if target_seconds <= 0:
        raise DegenerateSignalError(f"target_seconds must be positive, got {target_seconds}")
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
    reps = -(-out_len // n)  # ceil
    tiled = np.tile(w.samples, reps)[:out_len]
    return w.with_samples(tiled)


def measure_snr(clean, mixture):
    """SNR of a mixture against its clean reference, in dB.

    Returns 10*log10(||clean||^2 / ||mixture - clean||^2).

    Raises
    ------
    MismatchError
        Lengths or sample rates differ.
    DegenerateSignalError
        Clean signal has zero energy.
    InfiniteSnrError
        Mixture equals clean exactly (zero residual).
    """
    if len(clean) != len(mixture):
        raise MismatchError(f"length mismatch: clean {len(clean)} vs mixture {len(mixture)}")
    if clean.sample_rate != mixture.sample_rate:
        raise MismatchError(
            f"sample rate mismatch: {clean.sample_rate} vs {mixture.sample_rate}"
        )
    ce = clean.energy()
    if ce == 0.0:
        raise DegenerateSignalError("clean signal has zero energy")
    diff = mixture.samples - clean.samples
    de = float(np.dot(diff, diff))
    if de == 0.0:
        raise InfiniteSnrError("mixture equals clean; SNR is out of range")
    return 10.0 * np.log10(ce / de)
