"""Pipeline configuration: defaults, JSON loading, hashing, seed derivation.

The config hash covers every signal-affecting field (so runs are comparable)
but excludes parallelism, which changes scheduling only; the determinism
contract requires identical outputs at any worker count.
"""

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .amplify import EXTRACTION_MODES
from .enhance import EnhancerKind
from .errors import ConfigError
from .noise import NOISE_COLORS

# fixed release seed used by the acceptance experiments
RELEASE_SEED = 555


@dataclass(frozen=True)
class PipelineConfig:
    """Every knob of the per-utterance pipeline plus batch execution."""

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
        if not np.isfinite(self.snr_db):
            raise ConfigError(f"snr_db must be finite, got {self.snr_db}")
        if self.noise_color not in NOISE_COLORS:
            raise ConfigError(
                f"unknown noise_color {self.noise_color!r}; choose from {NOISE_COLORS}"
            )
        # checks the tag and its parameters; the fields keep the values as given
        EnhancerKind(self.enhancer, self.enhancer_params)
        if not (np.isfinite(self.alpha) and self.alpha >= 0):
            raise ConfigError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not (np.isfinite(self.crop_seconds) and self.crop_seconds > 0):
            raise ConfigError(f"crop_seconds must be positive, got {self.crop_seconds}")
        if self.extraction_mode not in EXTRACTION_MODES:
            raise ConfigError(
                f"unknown extraction_mode {self.extraction_mode!r}; "
                f"choose from {EXTRACTION_MODES}"
            )
        if not isinstance(self.skip_noise_addition, bool):
            raise ConfigError("skip_noise_addition must be a boolean")
        if not isinstance(self.global_seed, int) or isinstance(self.global_seed, bool):
            raise ConfigError(f"global_seed must be an integer, got {self.global_seed!r}")
        if not isinstance(self.parallelism, int) or self.parallelism < 1:
            raise ConfigError(f"parallelism must be a positive integer, got {self.parallelism}")

    def with_overrides(self, **kwargs):
        return replace(self, **kwargs)


def _read_json_object(path, what, error=ConfigError, known=None):
    """Parse a JSON file holding one object and drop its comment keys.

    Keys starting with an underscore are comments and are dropped. When known
    is given, any other key outside it is rejected so typos fail loudly. Every
    failure raises error with a message naming what the file is and its path.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        raise error(f"cannot read {what} {path}: {e}") from e
    except ValueError as e:  # JSONDecodeError, or bytes that are not UTF-8
        raise error(f"{what} {path} is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise error(f"{what} {path} must hold a JSON object")
    clean = {key: value for key, value in doc.items() if not key.startswith("_")}
    if known is not None:
        for key in clean:
            if key not in known:
                raise error(f"{what} {path}: unknown key {key!r}")
    return clean


def load_config(path):
    """Load a PipelineConfig from a flat JSON object.

    Unknown keys are rejected so typos fail loudly. Keys starting with an
    underscore are ignored (comment convention).
    """
    clean = _read_json_object(path, "config", known=PipelineConfig.__dataclass_fields__)
    try:
        return PipelineConfig(**clean)
    except TypeError as e:
        raise ConfigError(f"config {path}: {e}") from e


def config_hash(config):
    """Stable 16-hex-digit digest of all signal-affecting config fields."""
    doc = asdict(config)
    doc.pop("parallelism")
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def derive_seed(global_seed, *parts):
    """Deterministic per-item seed from the global seed and string parts.

    Uses sha256 (never the salted builtin hash) so every process and run
    derives identical seeds.
    """
    key = ":".join([str(int(global_seed))] + [str(p) for p in parts])
    return int(hashlib.sha256(key.encode("utf-8")).hexdigest()[:16], 16)
