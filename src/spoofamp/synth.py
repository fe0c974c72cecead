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

from .audio import Waveform, write_wav
from .config import derive_seed
from .errors import ConfigError, UnwritablePathError
from .manifest import ManifestEntry, write_manifest
from .noise import NoiseSpec, generate

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
        if self.n_bonafide < 1 or self.n_spoof < 1:
            raise ConfigError("corpus needs at least one item per class")
        if self.duration_s <= 0:
            raise ConfigError(f"duration_s must be positive, got {self.duration_s}")
        if self.sample_rate <= 0:
            raise ConfigError(f"sample_rate must be positive, got {self.sample_rate}")
        if self.artifact_kind not in ARTIFACT_KINDS:
            raise ConfigError(
                f"unknown artifact_kind {self.artifact_kind!r}; choose from {ARTIFACT_KINDS}"
            )
        if not (0.0 < self.artifact_strength <= 1.0):
            raise ConfigError(
                f"artifact_strength must lie in (0, 1], got {self.artifact_strength}"
            )


def _harmonic_bank(n_samples, sample_rate, f0, vib_rate, vib_depth, amps, phases):
    """Sum of sinusoidal harmonics with optional vibrato.

    Harmonic k (1-based) contributes amps[k-1] * sin(2*pi*k*base(t) +
    phases[k-1]), where base(t) integrates an instantaneous frequency of
    f0 + vib_depth*cos(2*pi*vib_rate*t).
    """
    t = np.arange(n_samples, dtype=np.float64) / sample_rate
    if vib_rate > 0.0:
        base = f0 * t + vib_depth * np.sin(_TWO_PI * vib_rate * t) / (_TWO_PI * vib_rate)
    else:
        base = f0 * t
    out = np.zeros(n_samples, dtype=np.float64)
    # harmonics are summed in order k = 1, 2, ...; the corpus bytes depend on it
    for k in range(len(amps)):
        out += amps[k] * np.sin(_TWO_PI * (k + 1) * base + phases[k])
    return out


def _pseudo_speech(utt_id, spec):
    """One bona fide style utterance, deterministic in (spec.seed, utt_id)."""
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
    voiced = _harmonic_bank(n, sr, f0, vib_rate, vib_depth, amps, phases)

    t = np.arange(n, dtype=np.float64) / sr
    am_rate = rng.uniform(*AM_RATE_RANGE_HZ)
    am_phase = rng.uniform(0.0, 2.0 * np.pi)
    am_power = rng.uniform(*AM_POWER_RANGE)
    env_floor = rng.uniform(*ENV_FLOOR_RANGE)
    envelope = env_floor + (1.0 - env_floor) * (
        0.5 + 0.5 * np.sin(2.0 * np.pi * am_rate * t + am_phase)
    ) ** am_power
    ramp = min(int(0.01 * sr), n // 2)
    if ramp > 0:
        fade = 0.5 - 0.5 * np.cos(np.pi * np.arange(ramp) / ramp)
        envelope[:ramp] *= fade
        envelope[-ramp:] *= fade[::-1]
    sig = voiced * envelope

    pink = generate(
        NoiseSpec("pink", n, sr, derive_seed(spec.seed, utt_id, "pinkfloor"))
    ).samples
    noise_level = rng.uniform(*NOISE_FLOOR_RANGE) * np.sqrt(np.mean(sig**2))
    sig = sig + noise_level * pink

    # random channel coloration: amplitude weight (f / 1 kHz)^tilt, DC zeroed
    tilt = rng.uniform(*TILT_RANGE)
    if tilt != 0.0:
        spectrum = np.fft.rfft(sig)
        freqs = np.fft.rfftfreq(n, 1.0 / sr)
        weights = np.zeros_like(freqs)
        weights[1:] = (freqs[1:] / 1000.0) ** tilt
        sig = np.fft.irfft(spectrum * weights, n)

    target_rms = rng.uniform(*TARGET_RMS_RANGE)
    sig *= target_rms / np.sqrt(np.mean(sig**2))
    return Waveform(sig, sr)


def apply_artifact(samples, sample_rate, kind, strength):
    """Inject one artifact family into a signal, preserving its RMS.

    comb_filter adds a copy delayed by COMB_DELAY_SAMPLES scaled by strength;
    quantization maps amplitudes onto ceil(2/strength) uniform cells; band_notch
    zeroes round(strength * NOTCH_FULL_WIDTH_HZ / bin_spacing) spectral bins
    centered at NOTCH_CENTER_HZ (zero bins as strength -> 0, so the injector
    degrades continuously to the identity).
    """
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
    elif kind == "band_notch":
        spectrum = np.fft.rfft(x)
        spacing = sample_rate / x.size
        n_zero = int(round(strength * NOTCH_FULL_WIDTH_HZ / spacing))
        if n_zero > 0:
            center = int(round(NOTCH_CENTER_HZ / spacing))
            lo = max(0, center - (n_zero - 1) // 2)
            hi = min(spectrum.size, lo + n_zero)
            spectrum[lo:hi] = 0.0
        y = np.fft.irfft(spectrum, n=x.size)
    else:
        raise ConfigError(f"unknown artifact kind {kind!r}")
    rms_out = np.sqrt(np.mean(y**2))
    if rms_out > 0.0 and rms_in > 0.0:
        y = y * (rms_in / rms_out)
    return y


def synth_utterance(utt_id, spec, spoof):
    """Generate one corpus item; spoof items get the artifact injection."""
    w = _pseudo_speech(utt_id, spec)
    if not spoof:
        return w
    return w.with_samples(
        apply_artifact(w.samples, spec.sample_rate, spec.artifact_kind, spec.artifact_strength)
    )


def synth_corpus(spec, out_dir, prefix="SYN", manifest_name="manifest.tsv"):
    """Generate the corpus into out_dir and write a simple_tsv manifest.

    Returns (entries, manifest_path). File and manifest content are byte
    identical across reruns of the same spec.
    """
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as e:
        raise UnwritablePathError(f"cannot create corpus directory {out_dir}: {e}") from e
    entries = []
    jobs = [(f"{prefix}_B_{i:04d}", False) for i in range(spec.n_bonafide)]
    jobs += [(f"{prefix}_S_{i:04d}", True) for i in range(spec.n_spoof)]
    for utt_id, spoof in jobs:
        w = synth_utterance(utt_id, spec, spoof)
        path = os.path.join(out_dir, utt_id + ".wav")
        write_wav(w, path, "float32")
        entries.append(
            ManifestEntry(
                utterance_id=utt_id,
                path=path,
                label="spoof" if spoof else "bonafide",
                attack_id=spec.artifact_kind if spoof else "-",
            )
        )
    manifest_path = os.path.join(out_dir, manifest_name)
    write_manifest(manifest_path, entries)
    return entries, manifest_path
