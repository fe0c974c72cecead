"""Short-time Fourier transform with exact overlap-add reconstruction.

A periodic Hann window at 50% overlap sums to exactly 1.0 at every sample
position, so analysis-windowed frames reconstruct the input by plain
overlap-add with no synthesis window. The window is fixed at 512 samples and
the hop at half of it, so the padded signal is a run of hop-sized blocks and
frame i spans blocks i and i + 1. Both edges are zero padded by one hop so the
first and last samples sit under a full window sum.

stft's windowed frames and istft's inverse-transformed frames go through one
float64 frame scratch per thread, which only grows and never backs a returned
array, so a run does not fault in a fresh frame array on every call. A thread
keeps it until the thread exits: n_frames * 4 KiB for the longest input it
transformed (1 MiB at 4 s, 16 kHz). The batch runner's pool threads exit when
their batch ends. Nothing in the scratch is live from stft returning until
istft starts, and it holds at least n_frames * 257 floats, so enhance sorts
its per-bin noise profile there in that gap.
"""

import threading

import numpy as np

from .errors import DegenerateSignalError


def hann_periodic(n):
    """Periodic Hann window: 0.5 - 0.5*cos(2*pi*k/n); adjacent half-overlapped
    copies sum to exactly 1."""
    k = np.arange(n, dtype=np.float64)
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * k / n)


WINDOW_LENGTH = 512
HOP = WINDOW_LENGTH // 2
_WINDOW = hann_periodic(WINDOW_LENGTH)
_scratch = threading.local()


def _frame_scratch(n_frames):
    """The first n_frames rows of this thread's frame scratch, grown if short."""
    frames = getattr(_scratch, "frames", None)
    if frames is None or frames.shape[0] < n_frames:
        frames = _scratch.frames = np.empty((n_frames, WINDOW_LENGTH), dtype=np.float64)
    return frames[:n_frames]


def stft(samples):
    """Analyze a 1-D float array into windowed rfft frames.

    Returns
    -------
    ndarray of complex128, shape (n_frames, WINDOW_LENGTH // 2 + 1)
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1 or x.size < 1:
        raise DegenerateSignalError("stft input must be a non-empty 1-D array")
    # one hop of zeros, the signal, then zeros up to a block boundary plus one hop
    n_frames = -(-x.size // HOP) + 1
    blocks = np.zeros((n_frames + 1, HOP), dtype=np.float64)
    blocks.reshape(-1)[HOP : HOP + x.size] = x
    frames = _frame_scratch(n_frames)
    np.multiply(blocks[:-1], _WINDOW[:HOP], out=frames[:, :HOP])
    np.multiply(blocks[1:], _WINDOW[HOP:], out=frames[:, HOP:])
    del blocks
    return np.fft.rfft(frames, axis=1)


def istft(spectra, n_samples):
    """Invert rfft frames back to n_samples via overlap-add.

    Exact inverse of stft for unmodified spectra (up to FFT round-off); for
    modified spectra this is the standard analysis-window-only resynthesis.
    """
    frames = np.fft.irfft(spectra, n=WINDOW_LENGTH, axis=1, out=_frame_scratch(len(spectra)))
    blocks = np.zeros((frames.shape[0] + 1, HOP), dtype=np.float64)
    # block b sums the second half of frame b - 1 and the first half of frame b
    blocks[1:] += frames[:, HOP:]
    blocks[:-1] += frames[:, :HOP]
    return blocks.reshape(-1)[HOP : HOP + n_samples]
