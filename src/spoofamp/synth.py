"""Synthetic bona fide / spoof corpus generation.

Bona fide items are harmonic-plus-noise pseudo-speech: a vibrato'd harmonic
bank under a syllabic amplitude envelope plus low-level pink noise, with
per-utterance randomized voice parameters. Spoof items run the same
generator and then one artifact injector: a comb filter (delayed-copy
periodicity), amplitude quantization, or a narrow spectral notch. Artifact
strength scales each injector continuously down to the identity at 0.
"""

import os
from dataclasses import dataclass

import numpy as np

from ._files import _make_dir
from .audio import Waveform, _Fresh, write_wav
from .config import derive_seed
from .errors import ConfigError, _is_finite_number, _is_integer
from .manifest import ManifestEntry, _check_entries, write_manifest
from .noise import _output_length, generate

ARTIFACT_KINDS = ("comb_filter", "quantization", "band_notch")

_TWO_PI = 2.0 * np.pi

COMB_DELAY_SAMPLES = 32
NOTCH_CENTER_HZ = 3000.0
NOTCH_FULL_WIDTH_HZ = 2000.0  # width at strength 1.0

# per-utterance voice nuisance ranges (uniform draws)
F0_RANGE_HZ = (85.0, 255.0)
DECAY_RANGE = (0.7, 1.4)
VIB_RATE_RANGE_HZ = (4.0, 7.0)
VIB_DEPTH_RANGE_HZ = (0.5, 3.0)
AM_RATE_RANGE_HZ = (2.0, 5.0)
AM_POWER_RANGE = (1.5, 2.5)
ENV_FLOOR_RANGE = (0.1, 0.2)  # envelope minimum between syllables
NOISE_FLOOR_RANGE = (0.15, 0.25)  # pink floor RMS relative to voiced RMS
TILT_RANGE = (-0.2, 0.2)  # channel tilt exponent s: amplitude weight (f/1kHz)^s
TARGET_RMS_RANGE = (0.06, 0.2)


def _check_artifact(kind, strength):
    if kind not in ARTIFACT_KINDS:
        raise ConfigError(f"unknown artifact_kind {kind!r}; choose from {ARTIFACT_KINDS}")
    if not (_is_finite_number(strength) and 0.0 < strength <= 1.0):
        raise ConfigError(f"artifact_strength must lie in (0, 1], got {strength}")


@dataclass(frozen=True)
class SynthSpec:
    """Corpus recipe: sizes, duration, artifact family, strength, seed."""

    n_bonafide: int
    n_spoof: int
    duration_s: float = 4.0
    sample_rate: int = 16000
    artifact_kind: str = "comb_filter"
    artifact_strength: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if not all(_is_integer(n) and n >= 1 for n in (self.n_bonafide, self.n_spoof)):
            raise ConfigError("corpus needs at least one item per class")
        _output_length(self.duration_s, self.sample_rate, "duration_s", 3)  # 1 or 2 are all zeros
        _check_artifact(self.artifact_kind, self.artifact_strength)
        if not _is_integer(self.seed):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")


def _harmonic_bank(theta, amps, phases):
    """Sum of sinusoidal harmonics of the fundamental phase theta.

    Harmonic k (1-based) contributes amps[k-1] * sin(k*theta + phases[k-1]).
    With z = exp(i*theta) and c_k = amps[k-1] * exp(i*phases[k-1]), the sum
    is Im(sum_k c_k z^k): a polynomial in z, evaluated by Horner's rule over
    k. That costs one cos/sin pair and one complex multiply-add per harmonic
    instead of one full-length sin per harmonic. z is computed per sample
    from theta, not by a recurrence over time, whose rounding error would
    grow with the utterance length.
    """
    z = np.empty(theta.size, dtype=np.complex128)
    np.cos(theta, out=z.real)
    np.sin(theta, out=z.imag)
    coeffs = np.asarray(amps) * np.exp(1j * np.asarray(phases))
    acc = np.full(theta.size, coeffs[-1], dtype=np.complex128)
    for c in coeffs[-2::-1]:
        acc *= z
        acc += c
    acc *= z
    return acc.imag.copy()


def _pseudo_speech(utt_id, spec):
    """One bona fide style utterance as a new float64 array, deterministic in
    (spec.seed, utt_id)."""
    rng = np.random.default_rng(derive_seed(spec.seed, utt_id, "voice"))
    n = int(round(spec.duration_s * spec.sample_rate))
    sr = spec.sample_rate

    f0 = rng.uniform(*F0_RANGE_HZ)
    decay = rng.uniform(*DECAY_RANGE)
    n_harm = max(3, min(40, int(0.45 * sr / f0)))
    amps = (np.arange(1, n_harm + 1, dtype=np.float64)) ** (-decay)
    amps /= amps.sum()
    phases = rng.uniform(0.0, 2.0 * np.pi, n_harm)
    vib_rate = rng.uniform(*VIB_RATE_RANGE_HZ)
    vib_depth = rng.uniform(*VIB_DEPTH_RANGE_HZ)
    # fundamental phase: 2*pi times the integral of f0 + vib_depth*cos(2*pi*vib_rate*t)
    t = np.arange(n, dtype=np.float64) / sr
    theta = _TWO_PI * (f0 * t + vib_depth * np.sin(_TWO_PI * vib_rate * t) / (_TWO_PI * vib_rate))
    voiced = _harmonic_bank(theta, amps, phases)
    del theta

    am_rate = rng.uniform(*AM_RATE_RANGE_HZ)
    am_phase = rng.uniform(0.0, 2.0 * np.pi)
    am_power = rng.uniform(*AM_POWER_RANGE)
    env_floor = rng.uniform(*ENV_FLOOR_RANGE)
    envelope = env_floor + (1.0 - env_floor) * (
        0.5 + 0.5 * np.sin(2.0 * np.pi * am_rate * t + am_phase)
    ) ** am_power
    del t
    ramp = min(int(0.01 * sr), n // 2)
    if ramp > 0:
        fade = 0.5 - 0.5 * np.cos(np.pi * np.arange(ramp) / ramp)
        envelope[:ramp] *= fade
        envelope[-ramp:] *= fade[::-1]
    sig = voiced
    sig *= envelope
    del envelope

    pink = generate("pink", n, sr, derive_seed(spec.seed, utt_id, "pinkfloor")).samples
    noise_level = rng.uniform(*NOISE_FLOOR_RANGE) * np.sqrt(np.mean(sig**2))
    sig += noise_level * pink
    del pink

    # random channel coloration: amplitude weight (f / 1 kHz)^tilt, DC zeroed
    tilt = rng.uniform(*TILT_RANGE)
    if tilt != 0.0:
        spectrum = np.fft.rfft(sig)
        weights = np.fft.rfftfreq(n, 1.0 / sr)  # bin 0 is 0 Hz and stays 0
        weights[1:] /= 1000.0
        weights[1:] **= tilt
        spectrum *= weights
        sig = np.fft.irfft(spectrum, n)

    target_rms = rng.uniform(*TARGET_RMS_RANGE)
    sig *= target_rms / np.sqrt(np.mean(sig**2))
    return sig


def apply_artifact(samples, sample_rate, kind, strength):
    """Inject one artifact family into a signal, preserving its RMS, as a new array.

    comb_filter adds a copy delayed by COMB_DELAY_SAMPLES scaled by strength;
    quantization maps amplitudes onto ceil(2/strength) uniform cells; band_notch
    zeroes round(strength * NOTCH_FULL_WIDTH_HZ / bin_spacing) spectral bins
    centered at NOTCH_CENTER_HZ (zero bins as strength -> 0, so the injector
    degrades continuously to the identity). An unknown kind or a strength
    outside (0, 1] raises ConfigError.
    """
    _check_artifact(kind, strength)
    x = np.asarray(samples, dtype=np.float64)
    rms_in = np.sqrt(np.mean(x**2))
    if kind == "comb_filter":
        delayed = np.concatenate([np.zeros(min(COMB_DELAY_SAMPLES, x.size)), x])[: x.size]
        y = x + strength * delayed
    elif kind == "quantization":
        levels = max(2, int(np.ceil(2.0 / strength)))
        peak = np.max(np.abs(x))
        if peak == 0.0:
            return x.copy()
        # uniform mid-riser over [-peak, peak]: exactly `levels` output values
        step = 2.0 * peak / levels
        cell = np.minimum(np.floor((x + peak) / step), levels - 1)
        y = -peak + (cell + 0.5) * step
    else:  # band_notch
        spectrum = np.fft.rfft(x)
        spacing = sample_rate / x.size
        n_zero = int(round(strength * NOTCH_FULL_WIDTH_HZ / spacing))
        if n_zero > 0:
            center = int(round(NOTCH_CENTER_HZ / spacing))
            lo = max(0, center - (n_zero - 1) // 2)
            hi = min(spectrum.size, lo + n_zero)
            spectrum[lo:hi] = 0.0
        y = np.fft.irfft(spectrum, n=x.size)
    rms_out = np.sqrt(np.mean(y**2))
    if rms_out > 0.0 and rms_in > 0.0:
        y *= rms_in / rms_out
    return y


def synth_utterance(utt_id, spec, spoof):
    """Generate one corpus item; spoof items get the artifact injection."""
    sig = _pseudo_speech(utt_id, spec)
    if spoof:
        sig = apply_artifact(sig, spec.sample_rate, spec.artifact_kind, spec.artifact_strength)
    return Waveform(_Fresh(sig), spec.sample_rate)


def synth_corpus(spec, out_dir, prefix="SYN"):
    """Generate the corpus into out_dir and write its simple_tsv manifest.tsv.

    Returns (entries, manifest_path). File and manifest content are byte
    identical across reruns of the same spec. A prefix that makes ids the
    manifest would refuse raises ManifestError before anything is made.
    """
    jobs = [(f"{prefix}_B_{i:04d}", "bonafide", "-") for i in range(spec.n_bonafide)]
    jobs += [(f"{prefix}_S_{i:04d}", "spoof", spec.artifact_kind) for i in range(spec.n_spoof)]
    manifest_path = os.path.join(out_dir, "manifest.tsv")
    entries = _check_entries(manifest_path, [
        ManifestEntry(utt_id, os.path.join(out_dir, utt_id + ".wav"), label, attack_id)
        for utt_id, label, attack_id in jobs
    ])
    _make_dir(out_dir, "corpus")
    for e in entries:
        write_wav(synth_utterance(e.utterance_id, spec, e.label == "spoof"), e.path)
    write_manifest(manifest_path, entries)
    return entries, manifest_path
