"""Synthetic corpus generation and artifact injectors."""

import numpy as np
import pytest

from conftest import make_noise_wave
from spoofamp.detector import FeatureConfig, extract_features, fit, score
from spoofamp.errors import ConfigError, UnwritablePathError
from spoofamp.manifest import load_manifest
from spoofamp.metrics import ScoreRecord, eer
from spoofamp.synth import (
    COMB_DELAY_SAMPLES,
    SynthSpec,
    _harmonic_bank,
    apply_artifact,
    synth_corpus,
    synth_utterance,
)

SMALL = SynthSpec(n_bonafide=2, n_spoof=2, duration_s=0.5, seed=7)


def _harmonic_bank_reference(n, sr, f0, vib_rate, vib_depth, amps, phases):
    """Direct evaluation of the harmonic sum with vibrato phase integral."""
    t = np.arange(n) / sr
    if vib_rate > 0:
        base = f0 * t + vib_depth / (2 * np.pi * vib_rate) * np.sin(2 * np.pi * vib_rate * t)
    else:
        base = f0 * t
    out = np.zeros(n)
    for k, (a, p) in enumerate(zip(amps, phases), start=1):
        out += a * np.sin(2 * np.pi * k * base + p)
    return out


class TestHarmonicBank:
    def test_matches_reference(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            n = int(rng.integers(100, 2000))
            f0 = float(rng.uniform(80, 300))
            vib_rate = float(rng.choice([0.0, 5.0]))
            vib_depth = float(rng.uniform(0.0, 3.0))
            n_harm = int(rng.integers(1, 12))
            amps = rng.uniform(0.1, 1.0, n_harm)
            phases = rng.uniform(0, 2 * np.pi, n_harm)
            got = _harmonic_bank(n, 16000, f0, vib_rate, vib_depth, amps, phases)
            want = _harmonic_bank_reference(n, 16000, f0, vib_rate, vib_depth, amps, phases)
            assert np.allclose(got, want, rtol=0, atol=1e-9)

    def test_single_harmonic_is_sine(self):
        n = 1600
        got = _harmonic_bank(n, 16000, 200.0, 0.0, 0.0, np.array([1.0]), np.array([0.0]))
        t = np.arange(n) / 16000
        assert np.allclose(got, np.sin(2 * np.pi * 200.0 * t), atol=1e-9)


class TestSynthSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_bonafide": 0, "n_spoof": 1},
            {"n_bonafide": 1, "n_spoof": 0},
            {"n_bonafide": 1, "n_spoof": 1, "duration_s": 0.0},
            {"n_bonafide": 1, "n_spoof": 1, "sample_rate": 0},
            {"n_bonafide": 1, "n_spoof": 1, "artifact_kind": "reverb"},
            {"n_bonafide": 1, "n_spoof": 1, "artifact_strength": 0.0},
            {"n_bonafide": 1, "n_spoof": 1, "artifact_strength": 1.5},
        ],
    )
    def test_invalid_specs(self, kwargs):
        with pytest.raises(ConfigError):
            SynthSpec(**kwargs)

    def test_full_strength_allowed(self):
        SynthSpec(n_bonafide=1, n_spoof=1, artifact_strength=1.0)


class TestCombFilter:
    def test_impulse_response_ratio(self):
        # y = x + s * delay(x): the echo-to-direct ratio survives the global
        # RMS rescale
        x = np.zeros(4096)
        x[0] = 1.0
        y = apply_artifact(x, 16000, "comb_filter", 0.3)
        assert y[COMB_DELAY_SAMPLES] / y[0] == pytest.approx(0.3, abs=1e-12)
        others = np.delete(y, [0, COMB_DELAY_SAMPLES])
        assert np.all(others == 0.0)

    def test_transfer_function_ripple(self):
        # delay D at rate sr ripples with period sr/D = 500 Hz: a 500 Hz tone
        # reinforces (1+s), a 250 Hz tone cancels to (1-s)
        sr, n, s = 16000, 16000, 0.3
        t = np.arange(n) / sr
        x = np.sin(2 * np.pi * 500 * t) + np.sin(2 * np.pi * 250 * t)
        y = apply_artifact(x, sr, "comb_filter", s)
        fx = np.abs(np.fft.rfft(x))
        fy = np.abs(np.fft.rfft(y))
        gain_ratio = (fy[500] / fx[500]) / (fy[250] / fx[250])
        assert gain_ratio == pytest.approx((1 + s) / (1 - s), rel=0.02)

    def test_rms_preserved(self):
        x = make_noise_wave(seed=30, n=8000).samples
        y = apply_artifact(x, 16000, "comb_filter", 0.3)
        assert np.sqrt(np.mean(y**2)) == pytest.approx(np.sqrt(np.mean(x**2)), rel=1e-12)

    def test_small_strength_near_identity(self):
        x = make_noise_wave(seed=31, n=4000).samples
        y = apply_artifact(x, 16000, "comb_filter", 1e-6)
        assert np.max(np.abs(y - x)) < 1e-4


class TestQuantization:
    def test_level_count(self):
        x = make_noise_wave(seed=32, n=4000).samples
        for strength, levels in [(1.0, 2), (0.5, 4), (0.25, 8)]:
            y = apply_artifact(x, 16000, "quantization", strength)
            assert np.unique(y).size <= levels

    def test_full_strength_not_silent(self):
        x = make_noise_wave(seed=33, n=4000).samples
        y = apply_artifact(x, 16000, "quantization", 1.0)
        assert np.sqrt(np.mean(y**2)) == pytest.approx(np.sqrt(np.mean(x**2)), rel=1e-12)
        assert np.unique(y).size == 2

    def test_small_strength_near_identity(self):
        x = make_noise_wave(seed=34, n=4000).samples
        peak = np.max(np.abs(x))
        y = apply_artifact(x, 16000, "quantization", 1e-5)
        assert np.max(np.abs(y - x)) < 1e-4 * peak

    def test_silence_passthrough(self):
        y = apply_artifact(np.zeros(100), 16000, "quantization", 0.5)
        assert np.all(y == 0.0)


class TestBandNotch:
    def test_band_zeroed(self):
        sr, n, s = 16000, 64000, 0.3
        x = make_noise_wave(seed=35, n=n).samples
        y = apply_artifact(x, sr, "band_notch", s)
        spec = np.abs(np.fft.rfft(y)) ** 2
        freqs = np.fft.rfftfreq(n, 1.0 / sr)
        half = s * 2000.0 / 2.0
        inner = (freqs > 3000.0 - half + 10) & (freqs < 3000.0 + half - 10)
        outer = (freqs < 3000.0 - half - 10) | (freqs > 3000.0 + half + 10)
        assert spec[inner].sum() < 1e-16 * spec[outer].sum()

    def test_rms_preserved(self):
        x = make_noise_wave(seed=36, n=32000).samples
        y = apply_artifact(x, 16000, "band_notch", 0.5)
        assert np.sqrt(np.mean(y**2)) == pytest.approx(np.sqrt(np.mean(x**2)), rel=1e-12)

    def test_vanishing_strength_zeroes_no_bins(self):
        x = make_noise_wave(seed=37, n=16000).samples
        y = apply_artifact(x, 16000, "band_notch", 1e-5)
        assert np.allclose(y, x, atol=1e-9)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            apply_artifact(np.ones(10), 16000, "reverb", 0.5)


class TestSynthUtterance:
    def test_deterministic(self):
        a = synth_utterance("SYN_B_0000", SMALL, spoof=False)
        b = synth_utterance("SYN_B_0000", SMALL, spoof=False)
        assert np.array_equal(a.samples, b.samples)

    def test_distinct_ids_differ(self):
        a = synth_utterance("SYN_B_0000", SMALL, spoof=False)
        b = synth_utterance("SYN_B_0001", SMALL, spoof=False)
        assert not np.array_equal(a.samples, b.samples)

    def test_shape_and_rate(self):
        w = synth_utterance("SYN_B_0000", SMALL, spoof=False)
        assert len(w) == 8000
        assert w.sample_rate == 16000

    def test_rms_within_target_range(self):
        for i in range(4):
            w = synth_utterance(f"SYN_B_{i:04d}", SMALL, spoof=False)
            rms = np.sqrt(np.mean(w.samples**2))
            assert 0.06 <= rms <= 0.2

    def test_spoof_applies_artifact(self):
        bona = synth_utterance("SYN_S_0000", SMALL, spoof=False)
        spoofed = synth_utterance("SYN_S_0000", SMALL, spoof=True)
        expect = apply_artifact(bona.samples, 16000, "comb_filter", SMALL.artifact_strength)
        assert np.array_equal(spoofed.samples, expect)


class TestSynthCorpus:
    def test_files_and_manifest(self, tmp_path):
        out = str(tmp_path / "corpus")
        entries, manifest_path = synth_corpus(SMALL, out)
        assert [e.utterance_id for e in entries] == [
            "SYN_B_0000", "SYN_B_0001", "SYN_S_0000", "SYN_S_0001",
        ]
        assert all(e.attack_id == "-" for e in entries if e.label == "bonafide")
        assert all(e.attack_id == "comb_filter" for e in entries if e.label == "spoof")
        loaded = load_manifest(manifest_path)
        assert [e.utterance_id for e in loaded] == [e.utterance_id for e in entries]
        assert [e.label for e in loaded] == [e.label for e in entries]

    def test_custom_prefix(self, tmp_path):
        entries, _ = synth_corpus(
            SynthSpec(1, 1, duration_s=0.25, seed=1), str(tmp_path), prefix="SYNTR"
        )
        assert entries[0].utterance_id == "SYNTR_B_0000"

    def test_rerun_byte_identical(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        entries_a, man_a = synth_corpus(SMALL, a)
        entries_b, man_b = synth_corpus(SMALL, b)
        for ea, eb in zip(entries_a, entries_b):
            with open(ea.path, "rb") as fa, open(eb.path, "rb") as fb:
                assert fa.read() == fb.read()
        with open(man_a, "rb") as fa, open(man_b, "rb") as fb:
            assert fa.read() == fb.read()  # manifests store relative paths

    def test_unwritable_directory(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        with pytest.raises(UnwritablePathError):
            synth_corpus(SMALL, str(blocker / "sub"))

    def test_artifact_detectable_but_not_trivial(self, tmp_path):
        # in-sample sanity: the comb artifact at strength 0.3 gives the
        # detector real signal without making the classes trivially separable
        spec = SynthSpec(n_bonafide=12, n_spoof=12, duration_s=1.0, seed=5)
        entries, _ = synth_corpus(spec, str(tmp_path / "c"))
        from spoofamp.audio import read_wav

        cfg = FeatureConfig(n_bands=8)
        feats = [extract_features(read_wav(e.path), cfg) for e in entries]
        labels = [e.label for e in entries]
        model = fit(feats, labels, cfg)
        recs = [
            ScoreRecord(e.utterance_id, e.label, e.attack_id, score(model, f))
            for e, f in zip(entries, feats)
        ]
        value = eer(recs)
        assert value < 0.5
