"""Projection-based residual extraction and residual amplification.

The residual of a raw utterance x against an enhanced estimate x_hat is
a_hat = x - w * x_hat with projection weight w = (x . x_hat) / ||x_hat||^2,
which makes a_hat exactly orthogonal to x_hat and immune to any scale the
enhancer applied. Amplification adds the residual back: x_tilde = x + alpha *
a_hat. The composition in process_utterance deliberately projects the RAW
input, not the noisy mixture, against the enhanced signal; a perfect enhancer
that returns the clean input therefore yields a zero residual and the
pipeline becomes the identity.

A thread that runs one utterance again changing only alpha or the extraction
mode reuses its enhanced signal, so it enhances once per utterance and noise draw.
"""

import threading
import weakref
from dataclasses import dataclass

import numpy as np

from . import mixing, noise
from .audio import Waveform, _Fresh, _check_aligned
from .enhance import enhance
from .errors import ConfigError, DegenerateSignalError, _is_finite_number, _stage

EXTRACTION_MODES = ("projection", "naive")


def _check_extraction_mode(mode):
    if mode not in EXTRACTION_MODES:
        raise ConfigError(f"unknown extraction mode {mode!r}; choose from {EXTRACTION_MODES}")


def _check_alpha(alpha):
    if not (_is_finite_number(alpha) and alpha >= 0):
        raise ConfigError(f"alpha must be finite and >= 0, got {alpha}")


@dataclass(frozen=True)
class Residual:
    """Extracted noise-plus-artifact signal and its projection weight."""

    a_hat: Waveform
    projection_weight: float


def extract_residual(x, x_hat, mode="projection"):
    """Extract the residual of x against the enhanced estimate x_hat.

    projection mode returns a_hat = x - w * x_hat with w = (x . x_hat) /
    ||x_hat||^2, exactly orthogonal to x_hat. naive mode returns the plain
    difference x - x_hat with the weight reported as 1; it leaves a
    clean-speech component in the residual whenever the enhancer rescaled
    the signal.

    Raises
    ------
    ConfigError
        Unknown mode.
    DegenerateSignalError
        Lengths or sample rates differ, or x_hat has zero energy in
        projection mode (a silent enhancer output signals a broken backend,
        not a usable estimate).
    """
    _check_extraction_mode(mode)
    _check_aligned(x, x_hat, "x", "x_hat")
    if mode == "naive":
        return Residual(x.with_samples(_Fresh(x.samples - x_hat.samples)), 1.0)
    denom = x_hat.energy()
    if denom == 0.0:
        raise DegenerateSignalError("x_hat has zero energy; projection undefined")
    a_hat = np.multiply(x.samples, x_hat.samples)  # the numerator's terms, then the residual
    w = float(np.add.reduce(a_hat) / denom)
    np.multiply(w, x_hat.samples, out=a_hat)
    np.subtract(x.samples, a_hat, out=a_hat)
    return Residual(x.with_samples(_Fresh(a_hat)), w)


def amplify(x, a_hat, alpha):
    """Add the scaled residual back onto the utterance.

    Returns x_tilde = x + alpha * a_hat elementwise; alpha = 0 returns x
    exactly.

    Raises
    ------
    ConfigError
        alpha is not finite and >= 0.
    DegenerateSignalError
        Lengths or sample rates differ.
    """
    _check_alpha(alpha)
    _check_aligned(x, a_hat, "x", "residual")
    if alpha == 0.0:
        return x
    y = alpha * a_hat.samples
    y += x.samples  # x + alpha * a_hat to the bit, as IEEE addition commutes
    return x.with_samples(_Fresh(y))


@dataclass(frozen=True)
class ProcessDetails:
    """Per-utterance outputs of the full pipeline, for logging."""

    x_tilde: Waveform
    residual: Residual
    enhanced: Waveform


class _Slot:
    """One thread's (weak reference to x, key, x_hat), or None. The callback may run on
    any thread at any time, so it only empties the slot (a miss, never a wrong hit)."""

    entry = None

    def forget(self, _ref):
        self.entry = None


_memo = threading.local()


def _enhanced(x, config, enhancer, noise_seed):
    """x_hat of noise -> mix -> enhance on x, or this thread's last one when x is the
    same Waveform object (its samples are read-only) and the upstream knobs are equal.
    The entry dies with x; a miss drops it before the chain runs, so the chain's peak
    does not grow and a failing stage leaves nothing stored."""
    key = (config.skip_noise_addition, config.noise_color, config.snr_db, noise_seed, enhancer)
    slot = getattr(_memo, "slot", None)
    if slot is None:
        slot = _memo.slot = _Slot()
    entry = slot.entry
    if entry is not None and entry[0]() is x and entry[1] == key:
        return entry[2]
    slot.entry = entry = None  # the local too, or the last x_hat lives through the chain
    if config.skip_noise_addition:
        y = x
    else:
        with _stage("noise-gen"):
            n = noise.generate(config.noise_color, len(x), x.sample_rate, noise_seed)
        with _stage("mixing"):
            y = mixing.add_noise_at_snr(x, n, config.snr_db)
        del n  # free the noise before enhancement, the chain's memory peak
    with _stage("enhance"):
        x_hat = enhance(enhancer, y, reference_clean=x)
    if x_hat is not x:  # identity without noise did no work, and x_hat would keep x alive
        slot.entry = (weakref.ref(x, slot.forget), key, x_hat)
    return x_hat


def process_utterance_details(x, config, enhancer, noise_seed):
    """Run noise addition, enhancement, extraction, and amplification on one
    utterance, returning the output, the residual and the enhanced signal.

    config supplies snr_db, noise_color, alpha, extraction_mode and
    skip_noise_addition. noise_seed seeds the noise realization; the batch
    runner derives one per utterance id. A call in the same thread on the same
    x that changes only alpha or extraction_mode reuses the last enhanced
    signal; an external enhancer command runs once per utterance and draw.
    Stage failures are wrapped in StageError carrying the stage name.
    """
    x_hat = _enhanced(x, config, enhancer, noise_seed)
    with _stage("extract"):
        r = extract_residual(x, x_hat, config.extraction_mode)
    with _stage("amplify"):
        x_tilde = amplify(x, r.a_hat, config.alpha)
    return ProcessDetails(x_tilde=x_tilde, residual=r, enhanced=x_hat)


def process_utterance(x, config, enhancer, noise_seed):
    """Single-utterance pipeline; returns the amplified waveform x_tilde."""
    return process_utterance_details(x, config, enhancer, noise_seed).x_tilde
