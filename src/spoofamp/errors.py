"""Exception hierarchy for the spoofamp package.

Every error raised by the library derives from SpoofampError so callers can
catch one base class. Subclasses exist wherever the contract requires a
distinct, testable failure mode.
"""

import math
import numbers
from contextlib import contextmanager


class SpoofampError(Exception):
    """Base class for all spoofamp errors."""


class AudioIOError(SpoofampError):
    """Base class for WAV read/write failures."""


class MalformedWavError(AudioIOError):
    """File exists but is not a structurally valid RIFF/WAVE file."""


class UnsupportedEncodingError(AudioIOError):
    """Audio this package does not decode: a WAV sample encoding other than
    PCM16 or float32, or another container such as FLAC."""


class UnwritablePathError(AudioIOError):
    """Output path cannot be created or written."""


class DegenerateSignalError(SpoofampError):
    """Signal violates an operation's preconditions (zero energy, too short)."""


class MismatchError(SpoofampError):
    """Operands disagree in length, sample rate, or dimensionality."""


class EnhancerError(SpoofampError):
    """Base class for external enhancer subprocess failures."""

    def __init__(self, message, stderr=""):
        super().__init__(message)
        self.stderr = stderr


class EnhancerTimeoutError(EnhancerError):
    """External enhancer exceeded its time budget."""


class EnhancerProcessError(EnhancerError):
    """External enhancer exited with a nonzero status."""


class EnhancerOutputError(EnhancerError):
    """External enhancer produced missing, unreadable, or incompatible audio."""


class MissingReferenceError(SpoofampError):
    """oracle_clean enhancer invoked without a clean reference signal."""


class StageError(SpoofampError):
    """A pipeline stage failed; carries the stage name and the original error."""

    def __init__(self, stage, cause):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


@contextmanager
def _stage(name):
    """Re-raise an exception as a StageError naming the stage. A SpoofampError
    or OSError is the cause as it is; any other fault becomes a SpoofampError
    whose message names its type, so one bad utterance fails only itself."""
    try:
        yield
    except (SpoofampError, OSError) as e:
        raise StageError(name, e) from e
    except Exception as e:
        raise StageError(name, SpoofampError(f"{type(e).__name__}: {e}")) from e


class SingleClassError(SpoofampError):
    """Metric or fit invoked with records from only one class."""


class TrainingDataError(SpoofampError):
    """Detector training set is too small or missing a class."""


class ManifestError(SpoofampError):
    """Manifest file is malformed; message carries the offending line number."""


class DuplicateIdError(ManifestError):
    """Same utterance id appears twice; message cites both line numbers."""


class ScoreFileError(SpoofampError):
    """Score file line cannot be parsed."""


class ConfigError(SpoofampError):
    """Invalid configuration value, file, or combination (CLI exit code 2)."""


# The two number rules every knob check uses, kept here because every
# checker can import this module without a cycle.
def _is_finite_number(value):
    """A real number, not a bool, that fits in a float: NaN, ±inf and ints
    too big for a float fail."""
    number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        return number and math.isfinite(value)
    except OverflowError:  # an int too big for a float
        return False


def _is_integer(value):
    """An integral finite number: bools and ints too big for a float fail."""
    return isinstance(value, numbers.Integral) and _is_finite_number(value)
