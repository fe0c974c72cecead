"""Projection-based residual extraction and residual amplification.

The residual of a raw utterance x against an enhanced estimate x_hat is
a_hat = x - w * x_hat with projection weight w = (x . x_hat) / ||x_hat||^2,
which makes a_hat exactly orthogonal to x_hat and immune to any scale the
enhancer applied. Amplification adds the residual back: x_tilde = x + alpha *
a_hat. The composition in process_utterance deliberately projects the RAW
input, not the noisy mixture, against the enhanced signal; a perfect enhancer
that returns the clean input therefore yields a zero residual and the
pipeline becomes the identity.
"""

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import mixing, noise
from .audio import Waveform
from .enhance import enhance
from .errors import DegenerateSignalError, MismatchError, SpoofampError, StageError

EXTRACTION_MODES = ("projection", "naive")


@dataclass(frozen=True)
class Residual:
    """Extracted noise-plus-artifact signal and its projection weight."""

    a_hat: Waveform
    projection_weight: float


@dataclass(frozen=True)
class AmplifySpec:
    """Residual amplification factor alpha >= 0."""

    alpha: float

    def __post_init__(self):
        if not np.isfinite(self.alpha) or self.alpha < 0:
            raise DegenerateSignalError(f"alpha must be finite and >= 0, got {self.alpha}")


def _check_aligned(a, b, name_a, name_b):
    if len(a) != len(b):
        raise MismatchError(f"length mismatch: {name_a} {len(a)} vs {name_b} {len(b)}")
    if a.sample_rate != b.sample_rate:
        raise MismatchError(
            f"sample rate mismatch: {name_a} {a.sample_rate} vs {name_b} {b.sample_rate}"
        )


def extract_residual(x, x_hat, mode="projection"):
    """Extract the residual of x against the enhanced estimate x_hat.

    projection mode returns a_hat = x - w * x_hat with w = (x . x_hat) /
    ||x_hat||^2, exactly orthogonal to x_hat. naive mode returns the plain
    difference x - x_hat with the weight reported as 1; it leaves a
    clean-speech component in the residual whenever the enhancer rescaled
    the signal.

    Raises
    ------
    MismatchError
        Lengths or sample rates differ.
    DegenerateSignalError
        x_hat has zero energy in projection mode (a silent enhancer output
        signals a broken backend, not a usable estimate).
    """
    if mode not in EXTRACTION_MODES:
        raise DegenerateSignalError(f"unknown extraction mode {mode!r}")
    _check_aligned(x, x_hat, "x", "x_hat")
    if mode == "naive":
        return Residual(x.with_samples(x.samples - x_hat.samples), 1.0)
    denom = x_hat.energy()
    if denom == 0.0:
        raise DegenerateSignalError("x_hat has zero energy; projection undefined")
    w = float(np.dot(x.samples, x_hat.samples) / denom)
    a_hat = x.with_samples(x.samples - w * x_hat.samples)
    return Residual(a_hat, w)


def amplify(x, r, spec):
    """Add the scaled residual back onto the utterance.

    Returns x_tilde = x + alpha * a_hat elementwise; alpha = 0 returns x
    exactly.
    """
    _check_aligned(x, r.a_hat, "x", "residual")
    if spec.alpha == 0.0:
        return x
    return x.with_samples(x.samples + spec.alpha * r.a_hat.samples)


@dataclass(frozen=True)
class ProcessDetails:
    """Per-utterance outputs of the full pipeline, for logging."""

    x_tilde: Waveform
    residual: Residual
    noisy: Waveform
    enhanced: Waveform


@contextmanager
def _stage(name):
    """Re-raise a SpoofampError from the body as a StageError naming the stage."""
    try:
        yield
    except SpoofampError as e:
        raise StageError(name, e) from e


def process_utterance_details(x, config, enhancer, noise_seed=None):
    """Run noise addition, enhancement, extraction, and amplification on one
    utterance, returning all intermediate products.

    config supplies snr_db, noise_color, alpha, extraction_mode,
    skip_noise_addition, and global_seed. noise_seed overrides the noise
    realization seed (the batch runner derives one per utterance id).
    Stage failures are wrapped in StageError carrying the stage name.
    """
    seed = config.global_seed if noise_seed is None else noise_seed
    if config.skip_noise_addition:
        y = x
    else:
        with _stage("noise-gen"):
            spec = noise.NoiseSpec(
                color=config.noise_color,
                length=len(x),
                sample_rate=x.sample_rate,
                seed=seed,
            )
            n = noise.generate(spec)
        with _stage("mixing"):
            y = mixing.add_noise_at_snr(x, n, mixing.MixSpec(config.snr_db))
    with _stage("enhance"):
        x_hat = enhance(enhancer, y, reference_clean=x)
    with _stage("extract"):
        r = extract_residual(x, x_hat, config.extraction_mode)
    with _stage("amplify"):
        x_tilde = amplify(x, r, AmplifySpec(config.alpha))
    return ProcessDetails(x_tilde=x_tilde, residual=r, noisy=y, enhanced=x_hat)


def process_utterance(x, config, enhancer, noise_seed=None):
    """Single-utterance pipeline; returns the amplified waveform x_tilde."""
    return process_utterance_details(x, config, enhancer, noise_seed=noise_seed).x_tilde
