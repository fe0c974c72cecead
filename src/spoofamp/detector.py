"""Stand-in countermeasure: diagonal-covariance Gaussian classifier over
spectral statistics.

Features per utterance: mean and variance over STFT frames of mel-spaced
band log energies, mean spectral flatness, and the ratio of energy above
4 kHz to energy below it. The classifier is a closed-form per-class Gaussian
with a variance floor, so training is deterministic for a fixed example order
and insensitive to reordering up to floating-point summation.
"""

import functools
import json
from dataclasses import dataclass, field

import numpy as np

from ._files import _read_json_object, _write_file
from .errors import (
    ConfigError,
    DegenerateSignalError,
    SpoofampError,
    TrainingDataError,
    _is_integer,
)
from .metrics import LABELS
from .stft import HOP, WINDOW_LENGTH, stft

_VARIANCE_FLOOR = 1e-6
_EPS = 1e-12
_SPLIT_HZ = 4000.0


@dataclass(frozen=True)
class FeatureConfig:
    """Feature extraction parameters; dimensionality is 2*n_bands + 2. The
    STFT window and hop and the 4 kHz band split are fixed."""

    n_bands: int = 24

    def __post_init__(self):
        n_bins = WINDOW_LENGTH // 2 + 1  # every band needs a bin of its own
        n = self.n_bands
        if not (_is_integer(n) and 2 <= n <= n_bins):
            raise ConfigError(f"n_bands must be an integer in [2, {n_bins}], got {n!r}")

    @property
    def dim(self):
        return 2 * self.n_bands + 2


def _mel(f):
    return 2595.0 * np.log10(1.0 + f / 700.0)


def _mel_inv(m):
    return 700.0 * (10.0 ** (m / 2595.0) - 1.0)


@functools.lru_cache(maxsize=16)
def _band_edges(config, sample_rate):
    """Bin indices of mel-spaced band edges, strictly increasing; cached, read-only."""
    n_bins = WINDOW_LENGTH // 2 + 1
    hz = _mel_inv(np.linspace(0.0, _mel(sample_rate / 2.0), config.n_bands + 1))
    spacing = sample_rate / WINDOW_LENGTH
    edges = np.round(hz / spacing).astype(int)
    edges[0] = 0
    edges[-1] = n_bins
    # force at least one bin per band
    for i in range(1, len(edges)):
        edges[i] = max(edges[i], edges[i - 1] + 1)
    edges.flags.writeable = False
    return edges


def extract_features(w, config=FeatureConfig()):
    """Deterministic feature vector of length config.dim for one waveform.

    Raises
    ------
    DegenerateSignalError
        Input shorter than one analysis window.
    """
    if len(w) < WINDOW_LENGTH:
        raise DegenerateSignalError(
            f"input too short for features: {len(w)} < {WINDOW_LENGTH} samples"
        )
    power = np.abs(stft(w.samples))
    power **= 2
    edges = _band_edges(config, w.sample_rate)
    log_energy = np.add.reduceat(power, edges[:-1], axis=1)  # band energies, logged in place
    log_energy += _EPS
    np.log(log_energy, out=log_energy)
    means = log_energy.mean(axis=0)
    variances = log_energy.var(axis=0)
    log_power = power + _EPS
    np.log(log_power, out=log_power)
    flatness = np.exp(np.mean(log_power, axis=1)) / (power.mean(axis=1) + _EPS)
    freqs = np.fft.rfftfreq(WINDOW_LENGTH, d=1.0 / w.sample_rate)
    hi = float(power[:, freqs >= _SPLIT_HZ].sum())
    lo = float(power[:, freqs < _SPLIT_HZ].sum())
    ratio = hi / (lo + _EPS)
    return np.concatenate([means, variances, [float(flatness.mean())], [ratio]])


@dataclass(frozen=True)
class GaussianModel:
    """Per-class diagonal Gaussians with class priors."""

    means: dict
    variances: dict
    priors: dict
    feature_config: FeatureConfig = field(default_factory=FeatureConfig)


def _check_labels(labels):
    """fit's TrainingDataError for its labels, raised before any feature exists."""
    for label in labels:
        if label not in LABELS:
            raise TrainingDataError(f"unknown label {label!r} (expected one of {LABELS})")
    for label in LABELS:
        n = labels.count(label)
        if n < 2:
            raise TrainingDataError(f"class {label!r} has {n} examples; need at least 2")


def fit(features, labels, feature_config=FeatureConfig()):
    """Fit per-class mean and variance with a variance floor of 1e-6.

    Priors come from class counts. Training order does not matter.

    Raises
    ------
    TrainingDataError
        A label outside LABELS, or a class missing or with fewer than 2
        examples.
    DegenerateSignalError
        Vectors and labels that differ in number, or vectors of differing shapes.
    """
    features = [np.asarray(f, dtype=np.float64) for f in features]
    labels = list(labels)
    if len(features) != len(labels):
        raise DegenerateSignalError(f"{len(features)} feature vectors vs {len(labels)} labels")
    _check_labels(labels)
    if len({f.shape for f in features}) > 1:
        raise DegenerateSignalError("feature vectors differ in shape")
    means, variances, priors = {}, {}, {}
    for label in LABELS:
        rows = [f for f, l in zip(features, labels) if l == label]
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
        raise DegenerateSignalError(
            f"feature dimensionality {f.size} != model dimensionality {dim}"
        )

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
# the model file stores the STFT window and hop and the band split, which are fixed
_FIXED_FEATURES = {"window_length": WINDOW_LENGTH, "hop": HOP, "split_hz": _SPLIT_HZ}


def _check_model(model, path):
    """load_model's rule, which save_model applies before it writes."""
    dim = model.feature_config.dim
    for label in LABELS:
        mean, var = model.means[label], model.variances[label]  # NaN fails both comparisons below
        if not (mean.shape == var.shape == (dim,) and np.all(np.isfinite(mean))
                and np.all((var > 0) & (var < np.inf)) and 0.0 < model.priors[label] < 1.0):
            raise TrainingDataError(
                f"{path}: malformed model: class {label!r} needs a mean and a variance of "
                f"{dim} values, finite means, finite variances > 0 and a prior in (0, 1)"
            )


def save_model(model, path):
    """Serialize a model as versioned JSON, refusing one that load_model would refuse."""
    _check_model(model, path)
    doc = {
        "format": _MODEL_FORMAT,
        "version": _MODEL_VERSION,
        "feature_config": {"n_bands": model.feature_config.n_bands, **_FIXED_FEATURES},
        "classes": {
            label: {
                "mean": model.means[label].tolist(),
                "variance": model.variances[label].tolist(),
                "prior": model.priors[label],
            }
            for label in LABELS
        },
    }
    _write_file(path, (json.dumps(doc, indent=1) + "\n").encode("utf-8"))


def load_model(path):
    """Load a model written by save_model, validating format and version."""
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
        stored = doc["feature_config"]
        feature_config = FeatureConfig(n_bands=stored["n_bands"])
        for key, fixed in _FIXED_FEATURES.items():
            if stored[key] != fixed:
                raise ConfigError(f"{key} must be {fixed}, got {stored[key]!r}")
    except (KeyError, TypeError, ValueError, OverflowError, SpoofampError) as e:
        raise TrainingDataError(f"{path}: malformed model: {e!r}") from e
    model = GaussianModel(means, variances, priors, feature_config)
    _check_model(model, path)
    return model
