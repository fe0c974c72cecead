"""Deterministic colored noise synthesis.

Colors are shaped in the frequency domain: seeded white Gaussian noise is
transformed, its spectrum multiplied by f**exponent in amplitude (white 0,
pink -1/2, violet +1, giving power laws f**0, 1/f, f**2), the DC bin zeroed,
and the result inverse transformed and normalized to unit RMS.
"""

import numpy as np

from .audio import Waveform, _Fresh
from .errors import ConfigError, DegenerateSignalError, _is_integer

NOISE_COLORS = ("white", "pink", "violet")

# amplitude-domain frequency exponent per color; power slope is twice this
_AMPLITUDE_EXPONENT = {"white": 0.0, "pink": -0.5, "violet": 1.0}


def _check_noise_color(color):
    if color not in NOISE_COLORS:
        raise ConfigError(f"unknown noise color {color!r}; choose from {NOISE_COLORS}")


def _check_sample_rate(sample_rate):
    if not (_is_integer(sample_rate) and sample_rate > 0):
        raise ConfigError(f"sample_rate must be positive, got {sample_rate}")


def generate(color, length, sample_rate, seed):
    """Synthesize one noise realization as a unit-RMS Waveform.

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
    spectrum = np.fft.rfft(white)
    del white
    weights = np.fft.rfftfreq(length, d=1.0 / sample_rate)
    weights[1:] **= _AMPLITUDE_EXPONENT[color]
    weights[0] = 0.0  # zero DC so the output is exactly zero mean
    spectrum *= weights
    shaped = np.fft.irfft(spectrum, n=length)
    del spectrum
    rms = np.sqrt(np.mean(shaped**2))
    if rms == 0.0:
        raise DegenerateSignalError("shaped noise collapsed to zero (degenerate spec)")
    shaped /= rms
    return Waveform(_Fresh(shaped), sample_rate)
