"""Pluggable speech enhancement: built-in classical enhancers and an
adapter that round-trips audio through an external command.

Both classical enhancers run one STFT mask body: take the STFT, turn its
magnitudes into a gain in place, scale the spectra by that gain and invert.
They differ only in the gain rule, spectral subtraction or Wiener. The body
takes one noise profile for both rules, once per call: per STFT bin, the
10th percentile of that bin's frame magnitudes over the utterance. It is
taken from a sorted per-bin copy of the magnitudes in the thread's STFT
frame scratch and equals np.percentile(mag, 10, axis=0) byte for byte.
For Gaussian noise the bin magnitude is Rayleigh distributed, whose 10th
percentile sits far below its mean, so the raw percentile underestimates the
noise; the constants below rescale it to the Rayleigh mean amplitude (for
spectral subtraction) or RMS (for the Wiener gain's power estimate).
"""

import shlex
import subprocess
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .audio import Waveform, _check_seconds, _Fresh, read_wav, write_wav
from .errors import (
    AudioIOError,
    ConfigError,
    EnhancerError,
    _is_finite_number,
)
from .stft import _frame_scratch, istft, stft

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
        Unknown tag or key, a number that is not finite and >= 0, a timeout_s
        that is no duration in seconds (audio's rule: > 0 and <= 86400), or
        an external command without {in} and {out} or that shlex cannot split.
    """

    tag: str
    params: dict = field(default_factory=dict)
    _tokens: tuple = field(default=(), init=False, repr=False, compare=False)

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
                if not (_is_finite_number(value) and value >= 0):
                    raise ConfigError(
                        f"{self.tag} enhancer parameter {key!r} must be a finite number >= 0, "
                        f"got {value!r}"
                    )
                value = float(value)
            checked[key] = value
        if self.tag == "external":
            cmd = checked["command"]
            if not isinstance(cmd, str) or "{in}" not in cmd or "{out}" not in cmd:
                raise ConfigError("external enhancer requires a 'command' with {in} and {out}")
            try:
                tokens = tuple(shlex.split(cmd))
            except ValueError as e:
                raise ConfigError(f"external enhancer command cannot be split: {e}") from e
            object.__setattr__(self, "_tokens", tokens)
            _check_seconds(checked["timeout_s"], "timeout_s")
        object.__setattr__(self, "params", checked)


def _match_length(samples, n):
    if samples.size >= n:
        return samples[:n]
    return np.concatenate([samples, np.zeros(n - samples.size)])


def _noise_profile(mag):
    """Per bin, the 10th percentile over frames of mag (frames, bins);
    np.percentile(mag, 10, axis=0) to the byte.

    Each bin's values are written as one row of this thread's STFT frame
    scratch and sorted in place there, then neighbouring order statistics
    are interpolated as numpy's linear method does. A bin holding NaN gets NaN.
    """
    n_frames, n_bins = mag.shape
    rows = _frame_scratch(n_frames).reshape(-1)[: n_bins * n_frames].reshape(n_bins, n_frames)
    np.copyto(rows, mag.T)
    rows.sort(axis=1)
    index = _NOISE_PERCENTILE / 100 * (n_frames - 1)
    lo = min(int(index), n_frames - 2)  # one frame: numpy pairs columns -1 and 0 at weight 1
    t = index - lo
    below, above = rows[:, lo], rows[:, lo + 1]
    diff = above - below
    profile = above - diff * (1 - t) if t >= 0.5 else below + diff * t
    profile[np.isnan(rows[:, -1])] = np.nan
    return profile


def _subtraction_gain(mag, magnitude_q10, subtraction_factor, floor):
    nhat = _OVERSUBTRACTION * _RAYLEIGH_MEAN_OVER_Q10 * magnitude_q10
    # gain = max(mag - subtraction_factor * nhat, floor * mag) / mag, and floor where mag is 0
    kept = floor * mag
    np.maximum(mag - subtraction_factor * nhat[None, :], kept, out=kept)
    nonzero = mag > 0.0
    np.divide(kept, mag, out=mag, where=nonzero)
    mag[~nonzero] = floor


def _wiener_gain(gain, magnitude_q10, floor):
    nhat = _OVERSUBTRACTION * _RAYLEIGH_RMS_OVER_Q10 * magnitude_q10
    gain **= 2  # the power, turned into the gain in place
    np.maximum(gain, 1e-300, out=gain)
    np.divide(nhat[None, :] ** 2, gain, out=gain)
    np.subtract(1.0, gain, out=gain)
    np.maximum(gain, floor, out=gain)


def _run_external(y, tokens, timeout_s):
    """Round-trip a waveform through an external enhancer command.

    tokens is the command template as EnhancerKind split it, with {in} and
    {out} placeholders; the input is written as float32 WAV, the command
    executed without a shell, and the output read back and trimmed or zero
    padded to the input length.

    Raises
    ------
    EnhancerError
        Process ran too long, could not launch, exited nonzero, or produced
        unusable audio; carries captured stderr text.
    """
    with tempfile.TemporaryDirectory(prefix="spoofamp-ext-", ignore_cleanup_errors=True) as tmpdir:
        in_path = f"{tmpdir}/in.wav"
        out_path = f"{tmpdir}/out.wav"
        write_wav(y, in_path)
        tokens = [tok.replace("{in}", in_path).replace("{out}", out_path) for tok in tokens]
        try:
            proc = subprocess.run(
                tokens, capture_output=True, text=True, errors="replace", timeout=timeout_s
            )
        except subprocess.TimeoutExpired as e:
            stderr = e.stderr if isinstance(e.stderr, str) else ""
            raise EnhancerError(
                f"external enhancer exceeded {timeout_s} s: {tokens[0]}", stderr=stderr
            ) from e
        except OSError as e:
            raise EnhancerError(f"cannot launch external enhancer: {e}") from e
        if proc.returncode != 0:
            raise EnhancerError(
                f"external enhancer exited {proc.returncode}; stderr: {proc.stderr.strip()}",
                stderr=proc.stderr,
            )
        try:
            result = read_wav(out_path)
        except AudioIOError as e:
            raise EnhancerError(
                f"external enhancer output unreadable: {e}", stderr=proc.stderr
            ) from e
        if result.sample_rate != y.sample_rate:
            raise EnhancerError(
                f"external enhancer changed sample rate: {y.sample_rate} -> "
                f"{result.sample_rate}",
                stderr=proc.stderr,
            )
        return y.with_samples(_match_length(result.samples, len(y)))


def enhance(kind, y, reference_clean=None):
    """Run the selected enhancer on y; output always has y's length and rate.

    oracle_clean requires reference_clean and returns it (the perfect-enhancer
    stand-in used by fixpoint tests); identity returns y unchanged. The two
    classical enhancers take the noise profile once, of the STFT magnitude,
    and hand it to their gain rule.
    """
    if kind.tag == "identity":
        return y
    if kind.tag == "oracle_clean":
        if reference_clean is None:
            raise ConfigError("oracle_clean enhancer needs a clean reference")
        return y.with_samples(_match_length(reference_clean.samples, len(y)))
    if kind.tag == "external":
        return _run_external(y, kind._tokens, kind.params["timeout_s"])
    spectra = stft(y.samples)
    gain = np.abs(spectra)
    rule = _subtraction_gain if kind.tag == "spectral_subtraction" else _wiener_gain
    rule(gain, _noise_profile(gain), **kind.params)
    spectra *= gain
    del gain
    return y.with_samples(_Fresh(istft(spectra, len(y))))
