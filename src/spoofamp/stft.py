"""Short-time Fourier transform with exact overlap-add reconstruction.

A periodic Hann window at 50% overlap sums to exactly 1.0 at every sample
position, so analysis-windowed frames reconstruct the input by plain
overlap-add with no synthesis window. The hop is always half the window, so
the padded signal is a run of hop-sized blocks and frame i spans blocks i and
i + 1. Both edges are zero padded by one hop so the first and last samples
sit under a full window sum.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateSignalError


@dataclass(frozen=True)
class StftConfig:
    """Analysis window length. The hop is always half the window, which is
    what makes overlap-add reconstruction exact."""

    window_length: int = 512

    def __post_init__(self):
        if self.window_length < 2 or self.window_length % 2 != 0:
            raise ConfigError(
                f"window_length must be a positive even integer, got {self.window_length}"
            )

    @property
    def hop(self):
        return self.window_length // 2


def hann_periodic(n):
    """Periodic Hann window: 0.5 - 0.5*cos(2*pi*k/n); adjacent half-overlapped
    copies sum to exactly 1."""
    k = np.arange(n, dtype=np.float64)
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * k / n)


def stft(samples, cfg):
    """Analyze a 1-D float array into windowed rfft frames.

    Returns
    -------
    ndarray of complex128, shape (n_frames, window_length // 2 + 1)
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1 or x.size < 1:
        raise DegenerateSignalError("stft input must be a non-empty 1-D array")
    hop = cfg.hop
    # one hop of zeros, the signal, then zeros up to a block boundary plus one hop
    n_frames = -(-x.size // hop) + 1
    blocks = np.zeros((n_frames + 1, hop), dtype=np.float64)
    blocks.reshape(-1)[hop : hop + x.size] = x
    frames = np.concatenate([blocks[:-1], blocks[1:]], axis=1) * hann_periodic(cfg.window_length)
    return np.fft.rfft(frames, axis=1)


def istft(spectra, cfg, n_samples):
    """Invert rfft frames back to n_samples via overlap-add.

    Exact inverse of stft for unmodified spectra (up to FFT round-off); for
    modified spectra this is the standard analysis-window-only resynthesis.
    """
    frames = np.fft.irfft(spectra, n=cfg.window_length, axis=1)
    hop = cfg.hop
    blocks = np.zeros((frames.shape[0] + 1, hop), dtype=np.float64)
    # block b sums the second half of frame b - 1 and the first half of frame b
    blocks[1:] += frames[:, hop:]
    blocks[:-1] += frames[:, :hop]
    return blocks.reshape(-1)[hop : hop + n_samples]
