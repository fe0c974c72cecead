"""Shared fixtures and signal builders for the test suite."""

import struct

import numpy as np
import pytest

from spoofamp.audio import Waveform


def make_sine(freq_hz=440.0, seconds=1.0, sample_rate=16000, amplitude=0.5, phase=0.0):
    """Pure sinusoid Waveform."""
    t = np.arange(int(round(seconds * sample_rate))) / sample_rate
    return Waveform(amplitude * np.sin(2.0 * np.pi * freq_hz * t + phase), sample_rate)


def make_speechlike(seed=0, seconds=2.0, sample_rate=16000):
    """Amplitude-modulated harmonic tone, a deterministic speech stand-in.

    The modulation makes the signal non-stationary the way speech is, which
    matters for enhancers that estimate noise from quiet frames.
    """
    rng = np.random.default_rng(seed)
    n = int(round(seconds * sample_rate))
    t = np.arange(n) / sample_rate
    f0 = rng.uniform(100.0, 220.0)
    sig = np.zeros(n)
    for k in range(1, 9):
        sig += (1.0 / k) * np.sin(2.0 * np.pi * k * f0 * t + rng.uniform(0, 2 * np.pi))
    envelope = (0.5 + 0.5 * np.sin(2.0 * np.pi * 3.0 * t)) ** 2
    sig *= envelope
    sig *= 0.3 / np.sqrt(np.mean(sig**2))
    return Waveform(sig, sample_rate)


def make_noise_wave(seed=0, n=16000, sample_rate=16000, scale=1.0):
    """Seeded white Gaussian noise Waveform."""
    rng = np.random.default_rng(seed)
    return Waveform(scale * rng.standard_normal(n), sample_rate)


@pytest.fixture
def sine():
    return make_sine


@pytest.fixture
def speechlike():
    return make_speechlike


@pytest.fixture
def noise_wave():
    return make_noise_wave


def write_minimal_wav(path, payload, fmt_tag, bits, channels, rate, extensible=False,
                      extra_chunk=None):
    """Hand-assemble a WAV file so reader tests do not depend on write_wav."""
    block_align = channels * bits // 8
    if extensible:
        guid = struct.pack("<H", fmt_tag) + bytes.fromhex("000000001000800000aa00389b71")
        body = struct.pack("<HHIIHH", 0xFFFE, channels, rate, rate * block_align,
                           block_align, bits)
        body += struct.pack("<HHI", 22, bits, 1) + guid
        fmt = struct.pack("<4sI", b"fmt ", len(body)) + body
    else:
        fmt = struct.pack("<4sIHHIIHH", b"fmt ", 16, fmt_tag, channels, rate,
                          rate * block_align, block_align, bits)
    chunks = fmt
    if extra_chunk is not None:
        cid, cdata = extra_chunk
        chunks += struct.pack("<4sI", cid, len(cdata)) + cdata
        if len(cdata) % 2 == 1:
            chunks += b"\x00"
    chunks += struct.pack("<4sI", b"data", len(payload)) + payload
    if len(payload) % 2 == 1:
        chunks += b"\x00"
    path.write_bytes(struct.pack("<4sI4s", b"RIFF", 4 + len(chunks), b"WAVE") + chunks)
