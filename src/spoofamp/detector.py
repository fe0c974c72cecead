"""Stand-in countermeasure: diagonal-covariance Gaussian classifier over
spectral statistics.

Features per utterance: mean and variance over STFT frames of mel-spaced
band log energies, mean spectral flatness, and the ratio of energy above
4 kHz to energy below it. The classifier is a closed-form per-class Gaussian
with a variance floor, so training is deterministic for a fixed example order
and insensitive to reordering up to floating-point summation.
"""

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .config import _read_json_object
from .errors import (
    ConfigError,
    DegenerateSignalError,
    MismatchError,
    MissingInputError,
    SpoofampError,
    TrainingDataError,
)
from .metrics import LABELS
from .stft import StftConfig, stft

_VARIANCE_FLOOR = 1e-6
_EPS = 1e-12


@dataclass(frozen=True)
class FeatureConfig:
    """Feature extraction parameters; dimensionality is 2*n_bands + 2."""

    n_bands: int = 24
    window_length: int = 512
    split_hz: float = 4000.0

    def __post_init__(self):
        if self.n_bands < 2:
            raise DegenerateSignalError(f"n_bands must be >= 2, got {self.n_bands}")
        StftConfig(self.window_length)  # rejects odd or too-short windows

    @property
    def hop(self):
        return self.window_length // 2

    @property
    def dim(self):
        return 2 * self.n_bands + 2

    def to_dict(self):
        return {
            "n_bands": self.n_bands,
            "window_length": self.window_length,
            "hop": self.hop,
            "split_hz": self.split_hz,
        }

    @classmethod
    def from_dict(cls, d):
        config = cls(
            n_bands=int(d["n_bands"]),
            window_length=int(d["window_length"]),
            split_hz=float(d["split_hz"]),
        )
        # the model format stores the hop, but the STFT fixes it at half the window
        if int(d["hop"]) != config.hop:
            raise ConfigError(
                f"hop must be half of window_length {config.window_length}, got {d['hop']}"
            )
        return config


def _mel(f):
    return 2595.0 * np.log10(1.0 + f / 700.0)


def _mel_inv(m):
    return 700.0 * (10.0 ** (m / 2595.0) - 1.0)


def _band_edges(config, sample_rate):
    """Bin indices of mel-spaced band edges, strictly increasing."""
    n_bins = config.window_length // 2 + 1
    hz = _mel_inv(np.linspace(0.0, _mel(sample_rate / 2.0), config.n_bands + 1))
    spacing = sample_rate / config.window_length
    edges = np.round(hz / spacing).astype(int)
    edges[0] = 0
    edges[-1] = n_bins
    # force at least one bin per band
    for i in range(1, len(edges)):
        edges[i] = max(edges[i], edges[i - 1] + 1)
    if edges[-1] > n_bins:
        raise DegenerateSignalError(
            f"{config.n_bands} bands need more than {n_bins} spectral bins"
        )
    return edges


def extract_features(w, config=FeatureConfig()):
    """Deterministic feature vector of length config.dim for one waveform.

    Raises
    ------
    DegenerateSignalError
        Input shorter than one analysis window.
    """
    if len(w) < config.window_length:
        raise DegenerateSignalError(
            f"input too short for features: {len(w)} < {config.window_length} samples"
        )
    cfg = StftConfig(config.window_length)
    power = np.abs(stft(w.samples, cfg)) ** 2
    edges = _band_edges(config, w.sample_rate)
    band_energy = np.add.reduceat(power, edges[:-1], axis=1)
    log_energy = np.log(band_energy + _EPS)
    means = log_energy.mean(axis=0)
    variances = log_energy.var(axis=0)
    flatness = np.exp(np.mean(np.log(power + _EPS), axis=1)) / (power.mean(axis=1) + _EPS)
    freqs = np.fft.rfftfreq(config.window_length, d=1.0 / w.sample_rate)
    hi = float(power[:, freqs >= config.split_hz].sum())
    lo = float(power[:, freqs < config.split_hz].sum())
    ratio = hi / (lo + _EPS)
    return np.concatenate([means, variances, [float(flatness.mean())], [ratio]])


@dataclass(frozen=True)
class GaussianModel:
    """Per-class diagonal Gaussians with class priors."""

    means: dict
    variances: dict
    priors: dict
    feature_config: FeatureConfig = field(default_factory=FeatureConfig)


def fit(features, labels, feature_config=FeatureConfig()):
    """Fit per-class mean and variance with a variance floor of 1e-6.

    Priors come from class counts. Training order does not matter.

    Raises
    ------
    TrainingDataError
        A class is missing or has fewer than 2 examples.
    """
    features = [np.asarray(f, dtype=np.float64) for f in features]
    labels = list(labels)
    if len(features) != len(labels):
        raise MismatchError(f"{len(features)} feature vectors vs {len(labels)} labels")
    means, variances, priors = {}, {}, {}
    for label in LABELS:
        rows = [f for f, l in zip(features, labels) if l == label]
        if len(rows) < 2:
            raise TrainingDataError(
                f"class {label!r} has {len(rows)} examples; need at least 2"
            )
        mat = np.stack(rows)
        means[label] = mat.mean(axis=0)
        variances[label] = np.maximum(mat.var(axis=0), _VARIANCE_FLOOR)
        priors[label] = len(rows) / len(features)
    return GaussianModel(
        means=means, variances=variances, priors=priors, feature_config=feature_config
    )


def score(model, f):
    """Log-likelihood ratio log p(f | bonafide) - log p(f | spoof) plus the
    log prior ratio; higher means more bona fide."""
    f = np.asarray(f, dtype=np.float64)
    dim = model.means["bonafide"].size
    if f.size != dim:
        raise MismatchError(f"feature dimensionality {f.size} != model dimensionality {dim}")

    def loglik(label):
        mu = model.means[label]
        var = model.variances[label]
        return -0.5 * float(np.sum((f - mu) ** 2 / var + np.log(var)))

    return (
        loglik("bonafide")
        - loglik("spoof")
        + float(np.log(model.priors["bonafide"] / model.priors["spoof"]))
    )


_MODEL_FORMAT = "spoofamp-gaussian-model"
_MODEL_VERSION = 1


def save_model(model, path):
    """Serialize a model as versioned JSON."""
    doc = {
        "format": _MODEL_FORMAT,
        "version": _MODEL_VERSION,
        "feature_config": model.feature_config.to_dict(),
        "classes": {
            label: {
                "mean": model.means[label].tolist(),
                "variance": model.variances[label].tolist(),
                "prior": model.priors[label],
            }
            for label in LABELS
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_model(path):
    """Load a model written by save_model, validating format and version."""
    if not os.path.isfile(path):
        raise MissingInputError(f"no such model file: {path}")
    doc = _read_json_object(path, "model file", error=TrainingDataError)
    if doc.get("format") != _MODEL_FORMAT:
        raise TrainingDataError(f"{path}: not a {_MODEL_FORMAT} file")
    if doc.get("version") != _MODEL_VERSION:
        raise TrainingDataError(
            f"{path}: unsupported model version {doc.get('version')!r}"
        )
    means, variances, priors = {}, {}, {}
    try:
        for label in LABELS:
            cls = doc["classes"][label]
            means[label] = np.asarray(cls["mean"], dtype=np.float64)
            variances[label] = np.asarray(cls["variance"], dtype=np.float64)
            priors[label] = float(cls["prior"])
        feature_config = FeatureConfig.from_dict(doc["feature_config"])
    except (KeyError, TypeError, ValueError, SpoofampError) as e:
        raise TrainingDataError(f"{path}: malformed model: {e!r}") from e
    return GaussianModel(
        means=means, variances=variances, priors=priors, feature_config=feature_config
    )
