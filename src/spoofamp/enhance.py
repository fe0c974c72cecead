"""Pluggable speech enhancement: built-in classical enhancers and an
adapter that round-trips audio through an external command.

Both classical enhancers estimate the noise magnitude per STFT bin as the
10th percentile of that bin's frame magnitudes over the utterance. For
Gaussian noise the bin magnitude is Rayleigh distributed, whose 10th
percentile sits far below its mean, so the raw percentile underestimates the
noise; the constants below rescale it to the Rayleigh mean amplitude (for
spectral subtraction) or RMS (for the Wiener gain's power estimate).
"""

import numbers
import shlex
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .audio import Waveform, read_wav, write_wav
from .errors import (
    AudioIOError,
    ConfigError,
    EnhancerOutputError,
    EnhancerProcessError,
    EnhancerTimeoutError,
    MissingReferenceError,
)
from .stft import StftConfig, istft, stft

# the parameters each kind accepts and their defaults; an external command has none
_PARAM_DEFAULTS = {
    "identity": {},
    "oracle_clean": {},
    "spectral_subtraction": {"subtraction_factor": 1.0, "floor": 0.02},
    "wiener": {"floor": 0.01},
    "external": {"command": None, "timeout_s": 60.0},
}
ENHANCER_KINDS = tuple(_PARAM_DEFAULTS)

_NOISE_PERCENTILE = 10.0
# Rayleigh(sigma): 10th percentile = sigma*sqrt(-2 ln 0.9), mean = sigma*sqrt(pi/2),
# RMS = sigma*sqrt(2). Ratios convert the observed percentile to mean / RMS.
_Q10 = np.sqrt(-2.0 * np.log(0.9))
_RAYLEIGH_MEAN_OVER_Q10 = float(np.sqrt(np.pi / 2.0) / _Q10)
_RAYLEIGH_RMS_OVER_Q10 = float(np.sqrt(2.0) / _Q10)
# Noise overestimation for musical-noise suppression at low SNR; also keeps
# the output scale conservative, which the projection extraction corrects
# and the naive extraction does not.
_OVERSUBTRACTION = 1.6


@dataclass(frozen=True)
class EnhancerKind:
    """Enhancer selection plus per-kind parameters.

    params keys by kind:
      spectral_subtraction: subtraction_factor (1.0), floor (0.02)
      wiener: floor (0.01)
      external: command (required, with {in} and {out} placeholders),
                timeout_s (60.0)

    After construction params holds every key of the kind, defaults filled
    in and numbers as floats.

    Raises
    ------
    ConfigError
        Unknown tag or key, a number that is not finite and >= 0, a zero
        timeout_s, or an external kind without a command.
    """

    tag: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.tag not in ENHANCER_KINDS:
            raise ConfigError(f"unknown enhancer {self.tag!r}; choose from {ENHANCER_KINDS}")
        if not isinstance(self.params, dict):
            raise ConfigError("enhancer_params must be a mapping")
        checked = dict(_PARAM_DEFAULTS[self.tag])
        for key, value in self.params.items():
            if key not in checked:
                raise ConfigError(
                    f"unknown {self.tag} enhancer parameter {key!r}; choose from {tuple(checked)}"
                )
            if key != "command":
                number = isinstance(value, numbers.Real) and not isinstance(value, bool)
                # NaN fails both comparisons; the upper one also stops ints too big for a float
                if not (number and 0 <= value <= sys.float_info.max):
                    raise ConfigError(
                        f"{self.tag} enhancer parameter {key!r} must be a finite number >= 0, "
                        f"got {value!r}"
                    )
                value = float(value)
            checked[key] = value
        if self.tag == "external":
            cmd = checked["command"]
            if not isinstance(cmd, str) or not cmd.strip():
                raise ConfigError("external enhancer requires a non-empty 'command' template")
            if checked["timeout_s"] <= 0:
                raise ConfigError(f"timeout_s must be positive, got {checked['timeout_s']}")
        object.__setattr__(self, "params", checked)


def _match_length(samples, n):
    if samples.size == n:
        return samples
    if samples.size > n:
        return samples[:n]
    return np.concatenate([samples, np.zeros(n - samples.size)])


def _noise_profile(mag):
    """Per-bin 10th percentile of frame magnitudes."""
    return np.percentile(mag, _NOISE_PERCENTILE, axis=0)


def _spectral_subtraction(y, factor, floor):
    cfg = StftConfig()
    spectra = stft(y.samples, cfg)
    mag = np.abs(spectra)
    nhat = _OVERSUBTRACTION * _RAYLEIGH_MEAN_OVER_Q10 * _noise_profile(mag)
    target = np.maximum(mag - factor * nhat[None, :], floor * mag)
    ratio = np.where(mag > 0.0, target / np.where(mag > 0.0, mag, 1.0), floor)
    out = istft(spectra * ratio, cfg, len(y))
    return y.with_samples(out)


def _wiener(y, floor):
    cfg = StftConfig()
    spectra = stft(y.samples, cfg)
    power = np.abs(spectra) ** 2
    nhat = _OVERSUBTRACTION * _RAYLEIGH_RMS_OVER_Q10 * _noise_profile(np.sqrt(power))
    gain = np.maximum(1.0 - nhat[None, :] ** 2 / np.maximum(power, 1e-300), floor)
    out = istft(spectra * gain, cfg, len(y))
    return y.with_samples(out)


def run_external(command_template, y, timeout_s=60.0):
    """Round-trip a waveform through an external enhancer command.

    The template must contain {in} and {out} placeholders; the input is
    written as float32 WAV, the command executed without a shell, and the
    output read back and trimmed or zero padded to the input length.

    Raises
    ------
    ConfigError
        Placeholders missing from the template.
    EnhancerTimeoutError, EnhancerProcessError, EnhancerOutputError
        Process ran too long, exited nonzero, or produced unusable audio;
        each carries captured stderr text.
    """
    if "{in}" not in command_template or "{out}" not in command_template:
        raise ConfigError("command template must contain {in} and {out} placeholders")
    tmpdir = tempfile.mkdtemp(prefix="spoofamp-ext-")
    try:
        in_path = f"{tmpdir}/in.wav"
        out_path = f"{tmpdir}/out.wav"
        write_wav(y, in_path, "float32")
        tokens = [
            tok.replace("{in}", in_path).replace("{out}", out_path)
            for tok in shlex.split(command_template)
        ]
        try:
            proc = subprocess.run(
                tokens, capture_output=True, text=True, timeout=timeout_s
            )
        except subprocess.TimeoutExpired as e:
            stderr = e.stderr if isinstance(e.stderr, str) else ""
            raise EnhancerTimeoutError(
                f"external enhancer exceeded {timeout_s} s: {tokens[0]}", stderr=stderr
            ) from e
        except OSError as e:
            raise EnhancerProcessError(f"cannot launch external enhancer: {e}") from e
        if proc.returncode != 0:
            raise EnhancerProcessError(
                f"external enhancer exited {proc.returncode}; stderr: {proc.stderr.strip()}",
                stderr=proc.stderr,
            )
        try:
            result = read_wav(out_path)
        except AudioIOError as e:
            raise EnhancerOutputError(
                f"external enhancer output unreadable: {e}", stderr=proc.stderr
            ) from e
        if result.sample_rate != y.sample_rate:
            raise EnhancerOutputError(
                f"external enhancer changed sample rate: {y.sample_rate} -> "
                f"{result.sample_rate}",
                stderr=proc.stderr,
            )
        return y.with_samples(_match_length(result.samples, len(y)))
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def enhance(kind, y, reference_clean=None):
    """Run the selected enhancer on y; output always has y's length and rate.

    oracle_clean requires reference_clean and returns it (the perfect-enhancer
    stand-in used by fixpoint tests); identity returns y unchanged.
    """
    if kind.tag == "identity":
        return y
    if kind.tag == "oracle_clean":
        if reference_clean is None:
            raise MissingReferenceError("oracle_clean enhancer needs a clean reference")
        return y.with_samples(_match_length(reference_clean.samples, len(y)))
    params = kind.params
    if kind.tag == "spectral_subtraction":
        return _spectral_subtraction(y, params["subtraction_factor"], params["floor"])
    if kind.tag == "wiener":
        return _wiener(y, params["floor"])
    return run_external(params["command"], y, timeout_s=params["timeout_s"])
