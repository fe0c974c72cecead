"""Pipeline configuration: defaults, JSON loading, hashing, seed derivation.

The config hash covers every signal-affecting field (so runs are comparable)
but excludes parallelism, which changes scheduling only; the determinism
contract requires identical outputs at any worker count.
"""

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from ._files import _read_json_object
from .amplify import _check_alpha, _check_extraction_mode
from .audio import _check_seconds
from .enhance import EnhancerKind
from .errors import ConfigError, _is_integer
from .mixing import _check_snr_db
from .noise import _check_noise_color

# fixed release seed used by the acceptance experiments
RELEASE_SEED = 555


def _plain(value):
    return value.item() if isinstance(value, np.generic) else value


@dataclass(frozen=True)
class PipelineConfig:
    """Every knob of the per-utterance pipeline plus batch execution. _enhancer, no field,
    is the EnhancerKind the batch layer runs; hashes, run logs, == and repr ignore it."""

    snr_db: float = 0.0
    noise_color: str = "white"
    enhancer: str = "wiener"
    enhancer_params: dict = field(default_factory=dict)
    alpha: float = 1.4
    crop_seconds: float = 4.0
    extraction_mode: str = "projection"
    skip_noise_addition: bool = False
    global_seed: int = RELEASE_SEED
    parallelism: int = 1

    def __post_init__(self):
        _check_snr_db(self.snr_db)
        _check_noise_color(self.noise_color)
        # checks the tag and its parameters; the fields keep the values as given
        object.__setattr__(self, "_enhancer", EnhancerKind(self.enhancer, self.enhancer_params))
        _check_alpha(self.alpha)
        _check_seconds(self.crop_seconds, "crop_seconds")
        _check_extraction_mode(self.extraction_mode)
        if not isinstance(self.skip_noise_addition, bool):
            raise ConfigError("skip_noise_addition must be a boolean")
        if not _is_integer(self.global_seed):
            raise ConfigError(f"global_seed must be an integer, got {self.global_seed!r}")
        # a numpy scalar, in a knob or in enhancer_params, passes the checks but would not
        # serialize into the hash and run log; Python numbers stay as given, so an int
        # from JSON hashes as before
        for name in ("snr_db", "alpha", "crop_seconds", "global_seed"):
            object.__setattr__(self, name, _plain(getattr(self, name)))
        params = {key: _plain(value) for key, value in self.enhancer_params.items()}
        object.__setattr__(self, "enhancer_params", params)
        if not (_is_integer(self.parallelism) and self.parallelism >= 1):
            raise ConfigError(f"parallelism must be a positive integer, got {self.parallelism}")

    def with_overrides(self, **kwargs):
        return replace(self, **kwargs)


def load_config(path):
    """Load a PipelineConfig from a flat JSON object.

    Unknown keys are rejected so typos fail loudly. Keys starting with an
    underscore are ignored (comment convention).
    """
    clean = _read_json_object(path, "config", known=PipelineConfig.__dataclass_fields__)
    return PipelineConfig(**clean)


def config_doc(config):
    """Every config field but parallelism, which only schedules work: hashes
    and run logs must match at any width."""
    doc = asdict(config)
    doc.pop("parallelism")
    return doc


def config_hash(config):
    """Stable 16-hex-digit digest of all signal-affecting config fields."""
    canonical = json.dumps(config_doc(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def derive_seed(global_seed, *parts):
    """Deterministic per-item seed from the global seed and string parts.

    Uses sha256 (never the salted builtin hash) so every process and run
    derives identical seeds.
    """
    key = ":".join([str(int(global_seed))] + [str(p) for p in parts])
    return int(hashlib.sha256(key.encode("utf-8")).hexdigest()[:16], 16)
