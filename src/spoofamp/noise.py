"""Deterministic colored noise synthesis.

Every color starts from seeded white Gaussian noise and ends zero mean at unit
RMS. White is the draw with its mean subtracted, which is what zeroing the DC
bin of its spectrum does, to within round-off, without the transform pair.
Pink and violet are shaped in the frequency domain: the spectrum is multiplied
by f**exponent in amplitude (pink -1/2, violet +1, giving power laws 1/f and
f**2), the DC bin zeroed, and the result inverse transformed.
"""

import functools

import numpy as np

from .audio import _MAX_RATE, Waveform, _check_seconds, _Fresh
from .errors import ConfigError, DegenerateSignalError, _is_integer

NOISE_COLORS = ("white", "pink", "violet")

# amplitude-domain frequency exponent per shaped color; power slope is twice this
_AMPLITUDE_EXPONENT = {"pink": -0.5, "violet": 1.0}


def _check_noise_color(color):
    if color not in NOISE_COLORS:
        raise ConfigError(f"unknown noise color {color!r}; choose from {NOISE_COLORS}")


def _check_sample_rate(sample_rate):
    if not (_is_integer(sample_rate) and sample_rate > 0):
        raise ConfigError(f"sample_rate must be positive, got {sample_rate}")


def _output_length(seconds, sample_rate, name, fewest):
    """The sample count of a generated WAV; a bad duration, rate or count raises ConfigError."""
    _check_seconds(seconds, name)
    _check_sample_rate(sample_rate)
    if sample_rate > _MAX_RATE:
        raise ConfigError(f"sample_rate must be at most {_MAX_RATE}, got {sample_rate}")
    n = int(round(seconds * sample_rate))
    if n < fewest:
        unit = "samples" if fewest > 1 else "sample"
        raise ConfigError(f"{name} must hold at least {fewest} {unit}, got {seconds}")
    return n


@functools.lru_cache(maxsize=8)
def _shaping_weights(color, length, sample_rate):
    """The rfft bins' amplitude weights f**exponent with DC zeroed; cached, read-only."""
    weights = np.fft.rfftfreq(length, d=1.0 / sample_rate)
    weights[1:] **= _AMPLITUDE_EXPONENT[color]
    weights[0] = 0.0  # zero DC so the output is exactly zero mean
    weights.flags.writeable = False
    return weights


def generate(color, length, sample_rate, seed):
    """Synthesize one noise realization as a zero-mean, unit-RMS Waveform.

    White is the seeded draw less its mean; pink and violet are FFT-shaped.
    Deterministic: the same arguments always yield the same samples.

    Raises
    ------
    ConfigError
        Unknown color; a sample_rate, length or seed that is not an integer;
        sample_rate <= 0, length < 1 or a negative seed.
    """
    _check_noise_color(color)
    _check_sample_rate(sample_rate)
    if not (_is_integer(length) and length >= 1):
        raise ConfigError(f"noise length must be >= 1, got {length}")
    if not (_is_integer(seed) and seed >= 0):
        raise ConfigError(f"noise seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    white = rng.standard_normal(length)
    if length == 1:
        # a single sample has no spectrum to shape; normalize its magnitude
        return Waveform(np.array([1.0 if white[0] >= 0 else -1.0]), sample_rate)
    if color == "white":
        white -= white.mean()
        shaped = white
    else:
        spectrum = np.fft.rfft(white)
        del white
        spectrum *= _shaping_weights(color, length, sample_rate)
        shaped = np.fft.irfft(spectrum, n=length)
        del spectrum
    rms = np.sqrt(np.mean(shaped**2))
    if rms == 0.0:
        raise DegenerateSignalError("shaped noise collapsed to zero (degenerate spec)")
    shaped /= rms
    return Waveform(_Fresh(shaped), sample_rate)
