"""Noise addition at an exact target SNR.

add_noise_at_snr implements y = x + sqrt(||x||^2 / (||n||^2 * 10^(SNR/10))) * n,
which scales the noise so the mixture hits the requested SNR exactly.
"""

import numpy as np

from .audio import _Fresh, _check_aligned
from .errors import ConfigError, DegenerateSignalError, _is_finite_number


def _check_snr_db(snr_db):
    if not _is_finite_number(snr_db):
        raise ConfigError(f"snr_db must be finite, got {snr_db}")
    if abs(snr_db) > 300:  # 10 ** (snr_db / 10) over- or underflows near 3000 dB
        raise ConfigError(f"|snr_db| must be at most 300 dB, got {snr_db}")


def add_noise_at_snr(x, n, snr_db):
    """Mix noise into a signal at an exact target SNR.

    Returns y = x + sqrt(||x||^2 / (||n||^2 * 10^(snr/10))) * n. The inputs
    are not modified. No clipping is applied: downstream projection math
    needs the unclipped mixture, and the float32 WAV output keeps it.

    Raises
    ------
    ConfigError
        snr_db is not finite or not within +-300 dB.
    DegenerateSignalError
        Length or sample rate mismatch between x and n, or zero-energy
        signal or noise.
    """
    _check_snr_db(snr_db)
    _check_aligned(x, n, "signal", "noise")
    ex = x.energy()
    en = n.energy()
    if ex == 0.0:
        raise DegenerateSignalError("signal has zero energy")
    if en == 0.0:
        raise DegenerateSignalError("noise has zero energy")
    scale = np.sqrt(ex / (en * 10.0 ** (snr_db / 10.0)))
    y = scale * n.samples
    y += x.samples  # IEEE addition commutes, so this is x + scale * n to the bit
    return x.with_samples(_Fresh(y))
