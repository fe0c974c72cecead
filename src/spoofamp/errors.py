"""Exception hierarchy for the spoofamp package.

Every error raised by the library derives from SpoofampError so callers can
catch one base class. A subclass exists only where a caller tells it apart:
some code catches it, the CLI maps it to its own exit code, it carries data,
or it is the error of one kind of input file.
"""

import math
import numbers
from contextlib import contextmanager


class SpoofampError(Exception):
    """Base class for all spoofamp errors."""


class AudioIOError(SpoofampError):
    """An audio file cannot be read: missing, not a valid RIFF/WAVE file, or
    in an encoding other than PCM16 or float32 WAV."""


class UnwritablePathError(SpoofampError):
    """An output file or directory cannot be created, written, or removed."""


class DegenerateSignalError(SpoofampError):
    """Input data violates an operation's precondition: zero energy, too
    short, operands that differ in length, sample rate or dimensionality, a
    score record with a bad label or score, or scores from only one class."""


class EnhancerError(SpoofampError):
    """External enhancer timed out, could not launch, exited nonzero, or
    produced unusable audio; carries its captured stderr text."""

    def __init__(self, message, stderr=""):
        super().__init__(message)
        self.stderr = stderr


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


class TrainingDataError(SpoofampError):
    """Detector training labels are unknown or give a class fewer than two
    examples, or a model file is missing or malformed."""


class ManifestError(SpoofampError):
    """Manifest file or entry is malformed or repeats an id; the message
    carries the offending line or entry number."""


class ScoreFileError(SpoofampError):
    """Score file is missing or malformed, a record cannot be written as one
    line, or the scores disagree with their manifest."""


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
