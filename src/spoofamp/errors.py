"""Exception hierarchy for the spoofamp package.

Every error raised by the library derives from SpoofampError so callers can
catch one base class. Subclasses exist wherever the contract requires a
distinct, testable failure mode.
"""


class SpoofampError(Exception):
    """Base class for all spoofamp errors."""


class AudioIOError(SpoofampError):
    """Base class for WAV read/write failures."""


class MissingFileError(AudioIOError):
    """Input audio file does not exist."""


class MalformedWavError(AudioIOError):
    """File exists but is not a structurally valid RIFF/WAVE file."""


class UnsupportedEncodingError(AudioIOError):
    """Audio this package does not decode: a WAV sample encoding other than
    PCM16 or float32, or another container such as FLAC."""


class UnwritablePathError(AudioIOError):
    """Output path cannot be created or written."""


class DegenerateSignalError(SpoofampError):
    """Signal violates an operation's preconditions (zero energy, too short)."""


class InfiniteSnrError(SpoofampError):
    """Residual between clean and mixture is exactly zero, so SNR is unbounded."""


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


class SingleClassError(SpoofampError):
    """Metric or fit invoked with records from only one class."""


class CoefficientDegeneracyError(SpoofampError):
    """Tandem cost coefficients are non-positive under the given parameters."""


class TrainingDataError(SpoofampError):
    """Detector training set is too small or missing a class."""


class ManifestError(SpoofampError):
    """Manifest file is malformed; message carries the offending line number."""


class DuplicateIdError(ManifestError):
    """Same utterance id appears twice; message cites both line numbers."""


class ScoreFileError(SpoofampError):
    """Score file line cannot be parsed."""


class MissingIdError(SpoofampError):
    """Manifest utterance id absent from the score file."""


class MissingInputError(SpoofampError):
    """A named input file (manifest, model, or score file) does not exist."""


class ConfigError(SpoofampError):
    """Invalid configuration value, file, or combination (CLI exit code 2)."""
