"""Deterministic colored noise synthesis and a PSD slope estimator.

Colors are shaped in the frequency domain: seeded white Gaussian noise is
transformed, its spectrum multiplied by f**exponent in amplitude (white 0,
pink -1/2, violet +1, giving power laws f**0, 1/f, f**2), the DC bin zeroed,
and the result inverse transformed and normalized to unit RMS.
"""

import numpy as np

from .audio import Waveform
from .errors import ConfigError, DegenerateSignalError
from .stft import hann_periodic

NOISE_COLORS = ("white", "pink", "violet")

# amplitude-domain frequency exponent per color; power slope is twice this
_AMPLITUDE_EXPONENT = {"white": 0.0, "pink": -0.5, "violet": 1.0}


def generate(color, length, sample_rate, seed):
    """Synthesize one noise realization as a unit-RMS Waveform.

    Deterministic: the same arguments always yield the same samples.

    Raises
    ------
    ConfigError
        Unknown color, length < 1, sample_rate <= 0 or a negative seed.
    """
    if color not in NOISE_COLORS:
        raise ConfigError(f"unknown noise color {color!r}; choose from {NOISE_COLORS}")
    if length < 1:
        raise ConfigError(f"noise length must be >= 1, got {length}")
    if sample_rate <= 0:
        raise ConfigError(f"sample_rate must be positive, got {sample_rate}")
    if seed < 0:
        raise ConfigError(f"noise seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    white = rng.standard_normal(length)
    if length == 1:
        # a single sample has no spectrum to shape; normalize its magnitude
        return Waveform(np.array([1.0 if white[0] >= 0 else -1.0]), sample_rate)
    spectrum = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(length, d=1.0 / sample_rate)
    exponent = _AMPLITUDE_EXPONENT[color]
    weights = np.empty_like(freqs)
    weights[1:] = freqs[1:] ** exponent
    weights[0] = 0.0  # zero DC so the output is exactly zero mean
    shaped = np.fft.irfft(spectrum * weights, n=length)
    rms = np.sqrt(np.mean(shaped**2))
    if rms == 0.0:
        raise DegenerateSignalError("shaped noise collapsed to zero (degenerate spec)")
    return Waveform(shaped / rms, sample_rate)


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
