"""Shared fixtures, signal builders and measurement oracles for the test suite."""

import struct

import numpy as np
import pytest

from spoofamp import enhance as _enhance
from spoofamp import synth as _synth
from spoofamp.audio import Waveform
from spoofamp.config import derive_seed
from spoofamp.detector import _EPS, _SPLIT_HZ, _band_edges
from spoofamp.errors import ConfigError, DegenerateSignalError
from spoofamp.noise import _AMPLITUDE_EXPONENT
from spoofamp.stft import _WINDOW, HOP, hann_periodic, istft


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


def measure_snr(clean, mixture):
    """SNR of a mixture against its clean reference, in dB.

    Returns 10*log10(||clean||^2 / ||mixture - clean||^2).
    """
    diff = mixture.samples - clean.samples
    return 10.0 * np.log10(clean.energy() / float(np.dot(diff, diff)))


def psd_slope(w, f_lo, f_hi):
    """Least-squares slope of the Welch power spectrum in dB per octave.

    Fits 10*log10(PSD) against log2(frequency) over [f_lo, f_hi].

    Raises
    ------
    ConfigError
        Band edges invalid for this sample rate.
    DegenerateSignalError
        Signal shorter than 8 averaged spectral frames, or no PSD bins with
        positive power fall inside the band.
    """
    if not (0 < f_lo < f_hi < w.sample_rate / 2):
        raise ConfigError(
            f"need 0 < f_lo < f_hi < Nyquist, got [{f_lo}, {f_hi}] at {w.sample_rate} Hz"
        )
    nperseg = 4096
    # welch with 50% overlap needs (n_frames + 1) * nperseg / 2 samples
    min_len = (8 + 1) * nperseg // 2
    if len(w) < min_len:
        raise DegenerateSignalError(
            f"signal too short for slope fit: {len(w)} < {min_len} samples"
        )
    # Welch: half-overlapped Hann segments, each mean-removed, periodograms
    # averaged and scaled to a one-sided density
    segments = np.lib.stride_tricks.sliding_window_view(w.samples, nperseg)[:: nperseg // 2]
    window = hann_periodic(nperseg)
    spectra = np.fft.rfft((segments - segments.mean(axis=1, keepdims=True)) * window, axis=1)
    psd = np.mean(np.abs(spectra) ** 2, axis=0) / (w.sample_rate * np.sum(window**2))
    psd[1:-1] *= 2.0  # fold in negative frequencies; nperseg is even, so DC and Nyquist stay
    freqs = np.fft.rfftfreq(nperseg, d=1.0 / w.sample_rate)
    band = (freqs >= f_lo) & (freqs <= f_hi) & (psd > 0)
    if np.count_nonzero(band) < 2:
        raise DegenerateSignalError("fewer than 2 usable PSD bins in the requested band")
    x = np.log2(freqs[band])
    y = 10.0 * np.log10(psd[band])
    slope, _intercept = np.polyfit(x, y, 1)
    return float(slope)


# Oracles for the per-utterance stages, written as plain out-of-place numpy
# formulas; the library builds the same results in place and must match them
# to the bit. Each takes and returns float64 arrays.


def stft_oracle(x):
    """stft framing: hop-sized zero-padded blocks, frame i = blocks i and i + 1."""
    n_frames = -(-x.size // HOP) + 1
    blocks = np.zeros((n_frames + 1, HOP), dtype=np.float64)
    blocks.reshape(-1)[HOP : HOP + x.size] = x
    frames = np.concatenate([blocks[:-1], blocks[1:]], axis=1) * _WINDOW
    return np.fft.rfft(frames, axis=1)


def istft_oracle(spectra, n_samples):
    """istft overlap-add: second halves of the irfft frames, then first halves,
    summed into fresh hop-sized blocks."""
    frames = np.fft.irfft(spectra, n=2 * HOP, axis=1)
    blocks = np.zeros((frames.shape[0] + 1, HOP), dtype=np.float64)
    blocks[1:] += frames[:, HOP:]
    blocks[:-1] += frames[:, :HOP]
    return blocks.reshape(-1)[HOP : HOP + n_samples]


def spectral_subtraction_oracle(y, factor, floor):
    spectra = stft_oracle(y)
    mag = np.abs(spectra)
    nhat = (_enhance._OVERSUBTRACTION * _enhance._RAYLEIGH_MEAN_OVER_Q10
            * np.percentile(mag, _enhance._NOISE_PERCENTILE, axis=0))
    target = np.maximum(mag - factor * nhat[None, :], floor * mag)
    ratio = np.where(mag > 0.0, target / np.where(mag > 0.0, mag, 1.0), floor)
    return istft(spectra * ratio, y.size)


def wiener_oracle(y, floor):
    spectra = stft_oracle(y)
    power = np.abs(spectra) ** 2
    nhat = (_enhance._OVERSUBTRACTION * _enhance._RAYLEIGH_RMS_OVER_Q10
            * np.percentile(np.sqrt(power), _enhance._NOISE_PERCENTILE, axis=0))
    gain = np.maximum(1.0 - nhat[None, :] ** 2 / np.maximum(power, 1e-300), floor)
    return istft(spectra * gain, y.size)


def fft_noise_oracle(color, length, sample_rate, seed):
    """Noise shaped in the frequency domain with its DC bin zeroed; white has
    a flat spectrum, so for white this only removes the mean."""
    white = np.random.default_rng(seed).standard_normal(length)
    if length == 1:
        return np.array([1.0 if white[0] >= 0 else -1.0])
    freqs = np.fft.rfftfreq(length, d=1.0 / sample_rate)
    weights = np.empty_like(freqs)
    weights[1:] = freqs[1:] ** _AMPLITUDE_EXPONENT.get(color, 0.0)
    weights[0] = 0.0
    shaped = np.fft.irfft(np.fft.rfft(white) * weights, n=length)
    return shaped / np.sqrt(np.mean(shaped**2))


def noise_oracle(color, length, sample_rate, seed):
    """noise.generate: white less its mean, pink and violet FFT-shaped."""
    if color != "white" or length == 1:
        return fft_noise_oracle(color, length, sample_rate, seed)
    white = np.random.default_rng(seed).standard_normal(length)
    shaped = white - white.mean()
    return shaped / np.sqrt(np.mean(shaped**2))


def add_noise_oracle(x, n, snr_db):
    ex = float(np.add.reduce(x * x))
    en = float(np.add.reduce(n * n))
    return x + np.sqrt(ex / (en * 10.0 ** (snr_db / 10.0))) * n


def extract_residual_oracle(x, x_hat, mode):
    if mode == "naive":
        return x - x_hat
    w = float(np.add.reduce(x * x_hat) / float(np.add.reduce(x_hat * x_hat)))
    return x - w * x_hat


def amplify_oracle(x, a_hat, alpha):
    return x + alpha * a_hat


def extract_features_oracle(samples, sample_rate, config):
    power = np.abs(stft_oracle(samples)) ** 2
    edges = _band_edges(config, sample_rate)
    log_energy = np.log(np.add.reduceat(power, edges[:-1], axis=1) + _EPS)
    flatness = np.exp(np.mean(np.log(power + _EPS), axis=1)) / (power.mean(axis=1) + _EPS)
    freqs = np.fft.rfftfreq(2 * HOP, d=1.0 / sample_rate)
    hi = float(power[:, freqs >= _SPLIT_HZ].sum())
    lo = float(power[:, freqs < _SPLIT_HZ].sum())
    return np.concatenate([log_energy.mean(axis=0), log_energy.var(axis=0),
                           [float(flatness.mean())], [hi / (lo + _EPS)]])


def wav_scaling_oracle(data, dtype, scale):
    """read_wav's decoding of mono sample bytes."""
    return np.frombuffer(data, dtype=dtype).astype(np.float64) * scale


def pad_oracle(x, out_len):
    """crop_or_pad's padding: whole repeats of x, truncated to out_len."""
    return np.tile(x, -(-out_len // x.size))[:out_len]


def harmonic_bank_oracle(n_samples, sample_rate, f0, vib_rate, vib_depth, amps, phases):
    """The harmonic bank building its own time axis and vibrato phase."""
    t = np.arange(n_samples, dtype=np.float64) / sample_rate
    if vib_rate > 0.0:
        base = f0 * t + vib_depth * np.sin(2.0 * np.pi * vib_rate * t) / (2.0 * np.pi * vib_rate)
    else:
        base = f0 * t
    theta = 2.0 * np.pi * base
    z = np.empty(n_samples, dtype=np.complex128)
    np.cos(theta, out=z.real)
    np.sin(theta, out=z.imag)
    coeffs = np.asarray(amps) * np.exp(1j * np.asarray(phases))
    acc = np.full(n_samples, coeffs[-1], dtype=np.complex128)
    for c in coeffs[-2::-1]:
        acc *= z
        acc += c
    acc *= z
    return acc.imag.copy()


def pseudo_speech_oracle(utt_id, spec):
    """One bona fide utterance, every step in a new array."""
    rng = np.random.default_rng(derive_seed(spec.seed, utt_id, "voice"))
    n = int(round(spec.duration_s * spec.sample_rate))
    sr = spec.sample_rate
    f0 = rng.uniform(*_synth.F0_RANGE_HZ)
    decay = rng.uniform(*_synth.DECAY_RANGE)
    n_harm = max(3, min(40, int(0.45 * sr / f0)))
    amps = (np.arange(1, n_harm + 1, dtype=np.float64)) ** (-decay)
    amps /= amps.sum()
    phases = rng.uniform(0.0, 2.0 * np.pi, n_harm)
    vib_rate = rng.uniform(*_synth.VIB_RATE_RANGE_HZ)
    vib_depth = rng.uniform(*_synth.VIB_DEPTH_RANGE_HZ)
    voiced = harmonic_bank_oracle(n, sr, f0, vib_rate, vib_depth, amps, phases)
    t = np.arange(n, dtype=np.float64) / sr
    am_rate = rng.uniform(*_synth.AM_RATE_RANGE_HZ)
    am_phase = rng.uniform(0.0, 2.0 * np.pi)
    am_power = rng.uniform(*_synth.AM_POWER_RANGE)
    env_floor = rng.uniform(*_synth.ENV_FLOOR_RANGE)
    envelope = env_floor + (1.0 - env_floor) * (
        0.5 + 0.5 * np.sin(2.0 * np.pi * am_rate * t + am_phase)
    ) ** am_power
    ramp = min(int(0.01 * sr), n // 2)
    if ramp > 0:
        fade = 0.5 - 0.5 * np.cos(np.pi * np.arange(ramp) / ramp)
        envelope[:ramp] *= fade
        envelope[-ramp:] *= fade[::-1]
    sig = voiced * envelope
    pink = noise_oracle("pink", n, sr, derive_seed(spec.seed, utt_id, "pinkfloor"))
    noise_level = rng.uniform(*_synth.NOISE_FLOOR_RANGE) * np.sqrt(np.mean(sig**2))
    sig = sig + noise_level * pink
    tilt = rng.uniform(*_synth.TILT_RANGE)
    if tilt != 0.0:
        spectrum = np.fft.rfft(sig)
        freqs = np.fft.rfftfreq(n, 1.0 / sr)
        weights = np.zeros_like(freqs)
        weights[1:] = (freqs[1:] / 1000.0) ** tilt
        sig = np.fft.irfft(spectrum * weights, n)
    target_rms = rng.uniform(*_synth.TARGET_RMS_RANGE)
    return sig * (target_rms / np.sqrt(np.mean(sig**2)))


def apply_artifact_oracle(x, sample_rate, kind, strength):
    """apply_artifact with its RMS match in a new array."""
    rms_in = np.sqrt(np.mean(x**2))
    if kind == "comb_filter":
        delayed = np.concatenate([np.zeros(min(_synth.COMB_DELAY_SAMPLES, x.size)), x])[: x.size]
        y = x + strength * delayed
    elif kind == "quantization":
        levels = max(2, int(np.ceil(2.0 / strength)))
        peak = np.max(np.abs(x))
        if peak == 0.0:
            return x.copy()
        step = 2.0 * peak / levels
        cell = np.minimum(np.floor((x + peak) / step), levels - 1)
        y = -peak + (cell + 0.5) * step
    else:
        spectrum = np.fft.rfft(x)
        spacing = sample_rate / x.size
        n_zero = int(round(strength * _synth.NOTCH_FULL_WIDTH_HZ / spacing))
        if n_zero > 0:
            lo = max(0, int(round(_synth.NOTCH_CENTER_HZ / spacing)) - (n_zero - 1) // 2)
            spectrum[lo : min(spectrum.size, lo + n_zero)] = 0.0
        y = np.fft.irfft(spectrum, n=x.size)
    rms_out = np.sqrt(np.mean(y**2))
    if rms_out > 0.0 and rms_in > 0.0:
        y = y * (rms_in / rms_out)
    return y


def synth_utterance_oracle(utt_id, spec, spoof):
    sig = pseudo_speech_oracle(utt_id, spec)
    if spoof:
        sig = apply_artifact_oracle(sig, spec.sample_rate, spec.artifact_kind,
                                    spec.artifact_strength)
    return sig


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
