"""Feature extraction and the diagonal Gaussian classifier."""

import json

import numpy as np
import pytest

from conftest import make_noise_wave, make_sine, make_speechlike
from spoofamp.detector import (
    FeatureConfig,
    GaussianModel,
    extract_features,
    fit,
    load_model,
    save_model,
    score,
)
from spoofamp.errors import (
    ConfigError,
    DegenerateSignalError,
    MismatchError,
    MissingInputError,
    TrainingDataError,
)
from spoofamp.metrics import ScoreRecord, eer


def _hand_model(mu_b, mu_s, var=0.01, prior_b=0.5):
    return GaussianModel(
        means={"bonafide": np.array([mu_b]), "spoof": np.array([mu_s])},
        variances={"bonafide": np.array([var]), "spoof": np.array([var])},
        priors={"bonafide": prior_b, "spoof": 1.0 - prior_b},
    )


class TestFeatureConfig:
    def test_dim(self):
        assert FeatureConfig(n_bands=24).dim == 50
        assert FeatureConfig(n_bands=5).dim == 12

    def test_n_bands_minimum(self):
        with pytest.raises(DegenerateSignalError):
            FeatureConfig(n_bands=1)

    def test_dict_roundtrip(self):
        cfg = FeatureConfig(n_bands=10, window_length=256, split_hz=3000.0)
        assert cfg.to_dict()["hop"] == 128
        assert FeatureConfig.from_dict(cfg.to_dict()) == cfg

    def test_rejects_bad_hop(self, tmp_path):
        # the model format stores the hop, but the STFT fixes it at half the window
        stored = dict(FeatureConfig().to_dict(), hop=128)
        with pytest.raises(ConfigError, match="hop"):
            FeatureConfig.from_dict(stored)
        path = tmp_path / "model.json"
        save_model(fit(np.eye(4).repeat(2, axis=0), ["bonafide", "spoof"] * 4), str(path))
        doc = json.loads(path.read_text())
        doc["feature_config"] = stored
        path.write_text(json.dumps(doc))
        with pytest.raises(TrainingDataError, match="hop"):
            load_model(str(path))


class TestExtractFeatures:
    def test_dimensionality(self):
        w = make_speechlike(seed=1)
        for nb in (2, 8, 24):
            cfg = FeatureConfig(n_bands=nb)
            assert extract_features(w, cfg).shape == (cfg.dim,)

    def test_deterministic(self):
        w = make_speechlike(seed=2)
        a = extract_features(w)
        b = extract_features(w)
        assert np.array_equal(a, b)

    def test_low_frequency_tone_has_tiny_band_ratio(self):
        w = make_sine(freq_hz=440.0, seconds=1.0)
        ratio = extract_features(w)[-1]
        assert ratio < 1e-3

    def test_high_frequency_tone_has_large_band_ratio(self):
        w = make_sine(freq_hz=6000.0, seconds=1.0)
        ratio = extract_features(w)[-1]
        assert ratio > 100.0

    def test_scaling_shifts_log_means_only(self):
        # doubling the amplitude multiplies band energies by 4, so the
        # log-energy means shift by ln 4 while variances, flatness, and the
        # band ratio are scale-free; broadband noise keeps every band far
        # above the log epsilon
        w = make_noise_wave(seed=3, n=32000)
        scaled = type(w)(2.0 * w.samples, w.sample_rate)
        cfg = FeatureConfig(n_bands=12)
        f1 = extract_features(w, cfg)
        f2 = extract_features(scaled, cfg)
        nb = cfg.n_bands
        assert np.allclose(f2[:nb] - f1[:nb], np.log(4.0), atol=1e-9)
        assert np.allclose(f2[nb : 2 * nb], f1[nb : 2 * nb], atol=1e-9)
        assert f2[-2] == pytest.approx(f1[-2], rel=1e-9)
        assert f2[-1] == pytest.approx(f1[-1], rel=1e-9)

    def test_too_short_rejected(self):
        w = make_sine(seconds=0.01)  # 160 samples < 512
        with pytest.raises(DegenerateSignalError):
            extract_features(w)

    def test_too_many_bands_rejected(self):
        w = make_speechlike(seed=4)
        with pytest.raises(DegenerateSignalError):
            extract_features(w, FeatureConfig(n_bands=300))


class TestFit:
    def test_order_invariance(self):
        # permuting examples reorders the per-class sums, so agreement is
        # exact only up to floating-point summation order
        rng = np.random.default_rng(20)
        feats = [rng.standard_normal(4) for _ in range(10)]
        labels = ["bonafide"] * 5 + ["spoof"] * 5
        m1 = fit(feats, labels)
        order = rng.permutation(10)
        m2 = fit([feats[i] for i in order], [labels[i] for i in order])
        for label in ("bonafide", "spoof"):
            assert np.allclose(m1.means[label], m2.means[label], rtol=0, atol=1e-14)
            assert np.allclose(m1.variances[label], m2.variances[label], rtol=0, atol=1e-14)
            assert m1.priors[label] == m2.priors[label]

    def test_hand_statistics(self):
        feats = [np.array([0.0]), np.array([0.2]), np.array([1.0]), np.array([1.2])]
        labels = ["bonafide", "bonafide", "spoof", "spoof"]
        m = fit(feats, labels)
        assert m.means["bonafide"][0] == pytest.approx(0.1)
        assert m.means["spoof"][0] == pytest.approx(1.1)
        assert m.variances["bonafide"][0] == pytest.approx(0.01)
        assert m.priors == {"bonafide": 0.5, "spoof": 0.5}

    def test_variance_floor_on_identical_vectors(self):
        feats = [np.array([1.0, 2.0])] * 4
        labels = ["bonafide", "bonafide", "spoof", "spoof"]
        m = fit(feats, labels)
        assert np.all(m.variances["bonafide"] == 1e-6)
        assert np.all(m.variances["spoof"] == 1e-6)

    def test_priors_from_counts(self):
        feats = [np.array([float(i)]) for i in range(8)]
        labels = ["bonafide"] * 6 + ["spoof"] * 2
        m = fit(feats, labels)
        assert m.priors["bonafide"] == pytest.approx(0.75)
        assert m.priors["spoof"] == pytest.approx(0.25)

    def test_missing_class_rejected(self):
        feats = [np.array([0.0]), np.array([1.0])]
        with pytest.raises(TrainingDataError):
            fit(feats, ["bonafide", "bonafide"])

    def test_single_example_rejected(self):
        feats = [np.array([0.0]), np.array([1.0]), np.array([2.0])]
        with pytest.raises(TrainingDataError):
            fit(feats, ["bonafide", "bonafide", "spoof"])

    def test_length_mismatch_rejected(self):
        with pytest.raises(MismatchError):
            fit([np.array([0.0])], ["bonafide", "spoof"])


class TestScore:
    def test_closed_form_one_dimensional(self):
        m = _hand_model(mu_b=0.1, mu_s=1.1, var=0.01)
        x = 0.3
        want = -0.5 * ((x - 0.1) ** 2 / 0.01 - (x - 1.1) ** 2 / 0.01)
        assert score(m, np.array([x])) == pytest.approx(want, abs=1e-12)

    def test_midpoint_scores_zero(self):
        m = _hand_model(mu_b=0.1, mu_s=1.1)
        assert score(m, np.array([0.6])) == pytest.approx(0.0, abs=1e-12)

    def test_prior_ratio_offset(self):
        # identical class densities leave only the log prior ratio
        m = GaussianModel(
            means={"bonafide": np.array([0.0]), "spoof": np.array([0.0])},
            variances={"bonafide": np.array([1.0]), "spoof": np.array([1.0])},
            priors={"bonafide": 0.75, "spoof": 0.25},
        )
        assert score(m, np.array([5.0])) == pytest.approx(np.log(3.0), abs=1e-12)

    def test_closer_class_wins(self):
        m = _hand_model(mu_b=0.0, mu_s=1.0)
        assert score(m, np.array([0.1])) > 0.0
        assert score(m, np.array([0.9])) < 0.0

    def test_dimension_mismatch_rejected(self):
        m = _hand_model(mu_b=0.0, mu_s=1.0)
        with pytest.raises(MismatchError):
            score(m, np.array([0.0, 1.0]))

    def test_separable_features_reach_zero_eer(self):
        rng = np.random.default_rng(21)
        bona = [rng.standard_normal(3) * 0.1 for _ in range(20)]
        spoof = [rng.standard_normal(3) * 0.1 + 5.0 for _ in range(20)]
        m = fit(bona + spoof, ["bonafide"] * 20 + ["spoof"] * 20)
        recs = [
            ScoreRecord(f"B{i}", "bonafide", "-", score(m, f)) for i, f in enumerate(bona)
        ] + [
            ScoreRecord(f"S{i}", "spoof", "A01", score(m, f)) for i, f in enumerate(spoof)
        ]
        assert eer(recs) == 0.0

    def test_waveform_classes_separate(self):
        # harmonic tones vs white noise should separate perfectly in-sample
        bona = [extract_features(make_speechlike(seed=s)) for s in range(6)]
        spoof = [extract_features(make_noise_wave(seed=s, n=32000)) for s in range(6)]
        m = fit(bona + spoof, ["bonafide"] * 6 + ["spoof"] * 6)
        recs = [
            ScoreRecord(f"B{i}", "bonafide", "-", score(m, f)) for i, f in enumerate(bona)
        ] + [
            ScoreRecord(f"S{i}", "spoof", "A01", score(m, f)) for i, f in enumerate(spoof)
        ]
        assert eer(recs) == 0.0


class TestModelIO:
    def _model(self):
        rng = np.random.default_rng(22)
        feats = [rng.standard_normal(6) for _ in range(10)]
        labels = ["bonafide"] * 4 + ["spoof"] * 6
        return fit(feats, labels, feature_config=FeatureConfig(n_bands=2))

    def test_roundtrip(self, tmp_path):
        m = self._model()
        path = str(tmp_path / "model.json")
        save_model(m, path)
        loaded = load_model(path)
        for label in ("bonafide", "spoof"):
            assert np.array_equal(loaded.means[label], m.means[label])
            assert np.array_equal(loaded.variances[label], m.variances[label])
            assert loaded.priors[label] == m.priors[label]
        assert loaded.feature_config == m.feature_config

    def test_roundtrip_preserves_scores(self, tmp_path):
        m = self._model()
        path = str(tmp_path / "model.json")
        save_model(m, path)
        loaded = load_model(path)
        f = np.linspace(-1.0, 1.0, 6)
        assert score(loaded, f) == score(m, f)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format": "something-else", "version": 1}\n')
        with pytest.raises(TrainingDataError):
            load_model(str(path))

    @pytest.mark.parametrize(
        "text, match",
        [
            ("{not json", "not valid JSON"),
            ('{"format": "spoofamp-gaussian-model", "version": 1}', "classes"),
        ],
        ids=["invalid_json", "no_classes"],
    )
    def test_malformed_model_rejected(self, tmp_path, text, match):
        path = tmp_path / "model.json"
        path.write_text(text)
        with pytest.raises(TrainingDataError, match=match):
            load_model(str(path))

    def test_missing_model_file(self, tmp_path):
        with pytest.raises(MissingInputError, match="no such model file"):
            load_model(str(tmp_path / "nope.json"))

    def test_wrong_version_rejected(self, tmp_path):
        m = self._model()
        path = tmp_path / "model.json"
        save_model(m, str(path))
        doc = path.read_text().replace('"version": 1', '"version": 99')
        path.write_text(doc)
        with pytest.raises(TrainingDataError):
            load_model(str(path))
