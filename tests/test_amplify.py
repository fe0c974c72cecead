"""Residual extraction (projection and naive), amplification, and the
per-utterance pipeline composition."""

import numpy as np
import pytest

from spoofamp.amplify import (
    EXTRACTION_MODES,
    amplify,
    extract_residual,
    process_utterance,
    process_utterance_details,
)
from spoofamp.audio import Waveform
from spoofamp.config import PipelineConfig
from spoofamp.enhance import EnhancerKind
from spoofamp.errors import ConfigError, DegenerateSignalError, StageError

from conftest import make_speechlike


def _wave(values):
    return Waveform(np.asarray(values, dtype=float), 16000)


class TestExtractResidual:
    def test_collinear_inputs_zero_residual(self):
        r = extract_residual(_wave([2.0, 0.0]), _wave([1.0, 0.0]))
        assert r.projection_weight == pytest.approx(2.0)
        assert np.allclose(r.a_hat.samples, [0.0, 0.0], atol=1e-15)

    def test_hand_projection_case(self):
        r = extract_residual(_wave([1.0, 1.0]), _wave([1.0, 0.0]))
        assert r.projection_weight == pytest.approx(1.0)
        assert np.allclose(r.a_hat.samples, [0.0, 1.0], atol=1e-15)
        assert float(np.dot(r.a_hat.samples, [1.0, 0.0])) == pytest.approx(0.0, abs=1e-15)

    def test_naive_mode_plain_difference(self):
        r = extract_residual(_wave([1.0, 1.0]), _wave([1.0, 0.0]), mode="naive")
        assert r.projection_weight == 1.0
        assert np.allclose(r.a_hat.samples, [0.0, 1.0])
        # scaled input shows the leftover clean-speech component
        r2 = extract_residual(_wave([2.0, 2.0]), _wave([1.0, 0.0]), mode="naive")
        assert np.allclose(r2.a_hat.samples, [1.0, 2.0])
        assert float(np.dot(r2.a_hat.samples, [1.0, 0.0])) == pytest.approx(1.0)

    def test_orthogonality_randomized(self):
        rng = np.random.default_rng(60)
        for _ in range(300):
            m = int(rng.integers(4, 2048))
            x = Waveform(rng.standard_normal(m), 16000)
            xh = Waveform(rng.standard_normal(m), 16000)
            r = extract_residual(x, xh)
            dot = abs(float(np.dot(r.a_hat.samples, xh.samples)))
            assert dot <= 1e-9 * np.sqrt(x.energy()) * np.sqrt(xh.energy())

    def test_pythagoras_randomized(self):
        rng = np.random.default_rng(61)
        for _ in range(300):
            m = int(rng.integers(4, 2048))
            x = Waveform(rng.standard_normal(m), 16000)
            xh = Waveform(rng.standard_normal(m), 16000)
            r = extract_residual(x, xh)
            lhs = x.energy()
            rhs = r.projection_weight**2 * xh.energy() + r.a_hat.energy()
            assert abs(lhs - rhs) <= 1e-9 * lhs

    def test_idempotent_weight(self):
        x = make_speechlike(seed=62, seconds=0.5)
        r = extract_residual(x, x)
        assert r.projection_weight == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(r.a_hat.samples)) <= 1e-12 * np.max(np.abs(x.samples))

    def test_residual_scale_invariant_in_x_hat(self):
        rng = np.random.default_rng(63)
        x = Waveform(rng.standard_normal(512), 16000)
        xh = Waveform(rng.standard_normal(512), 16000)
        base = extract_residual(x, xh)
        for c in (0.01, 0.5, 3.0, -2.0):
            r = extract_residual(x, xh.with_samples(c * xh.samples))
            assert np.allclose(r.a_hat.samples, base.a_hat.samples, atol=1e-12)
            assert r.projection_weight == pytest.approx(base.projection_weight / c)

    def test_zero_enhanced_rejected(self):
        with pytest.raises(DegenerateSignalError):
            extract_residual(_wave([1.0, 1.0]), _wave([0.0, 0.0]))

    def test_naive_mode_allows_zero_enhanced(self):
        r = extract_residual(_wave([1.0, 1.0]), _wave([0.0, 0.0]), mode="naive")
        assert np.allclose(r.a_hat.samples, [1.0, 1.0])

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError, match="unknown extraction mode 'orthogonal'"):
            extract_residual(_wave([1.0]), _wave([1.0]), mode="orthogonal")
        assert EXTRACTION_MODES == ("projection", "naive")

    def test_length_mismatch(self):
        with pytest.raises(DegenerateSignalError, match="length mismatch: x 2 vs x_hat 1"):
            extract_residual(_wave([1.0, 1.0]), _wave([1.0]))


class TestAmplify:
    def test_alpha_zero_identity(self):
        x = make_speechlike(seed=64, seconds=0.31)
        a_hat = x.with_samples(np.ones(len(x)))
        assert amplify(x, a_hat, 0.0) is x

    def test_hand_cases(self):
        x = _wave([1.0, 1.0])
        a_hat = _wave([0.0, 1.0])
        assert np.allclose(amplify(x, a_hat, 1.4).samples, [1.0, 2.4])
        assert np.allclose(amplify(x, a_hat, 0.6).samples, [1.0, 1.6])

    def test_linearity_in_alpha(self):
        rng = np.random.default_rng(65)
        x = Waveform(rng.standard_normal(256), 16000)
        a_hat = Waveform(rng.standard_normal(256), 16000)
        a1, a2 = 0.7, 0.9
        once = amplify(amplify(x, a_hat, a1), a_hat, a2)
        combined = amplify(x, a_hat, a1 + a2)
        assert np.allclose(once.samples, combined.samples, atol=1e-12)

    def test_rejects_negative_alpha(self):
        x = _wave([1.0, 1.0])
        with pytest.raises(ConfigError, match="alpha must be finite and >= 0, got -0.1"):
            amplify(x, x, -0.1)
        with pytest.raises(ConfigError, match="alpha must be finite and >= 0, got nan"):
            amplify(x, x, float("nan"))

    def test_length_mismatch(self):
        x = _wave([1.0, 1.0])
        with pytest.raises(DegenerateSignalError, match="length mismatch: x 2 vs residual 1"):
            amplify(x, _wave([1.0]), 1.0)


class TestProcessUtterance:
    def test_oracle_clean_fixpoint_all_alphas(self):
        x = make_speechlike(seed=66, seconds=1.0)
        for alpha in (0.0, 0.6, 1.4, 2.0):
            config = PipelineConfig(alpha=alpha, global_seed=1)
            out = process_utterance(x, config, EnhancerKind("oracle_clean"), noise_seed=1)
            assert np.max(np.abs(out.samples - x.samples)) <= 1e-12

    def test_identity_with_skip_noise_is_identity(self):
        x = make_speechlike(seed=67, seconds=0.5)
        config = PipelineConfig(skip_noise_addition=True, global_seed=1)
        out = process_utterance(x, config, EnhancerKind("identity"), noise_seed=1)
        assert np.max(np.abs(out.samples - x.samples)) <= 1e-12

    def test_deterministic_given_seed(self):
        x = make_speechlike(seed=68, seconds=1.0)
        config = PipelineConfig(global_seed=99)
        kind = EnhancerKind("wiener")
        a = process_utterance(x, config, kind, noise_seed=99)
        b = process_utterance(x, config, kind, noise_seed=99)
        assert np.array_equal(a.samples, b.samples)

    def test_noise_seed_changes_output(self):
        x = make_speechlike(seed=69, seconds=1.0)
        config = PipelineConfig(global_seed=99)
        kind = EnhancerKind("wiener")
        a = process_utterance(x, config, kind, noise_seed=1)
        b = process_utterance(x, config, kind, noise_seed=2)
        assert not np.array_equal(a.samples, b.samples)

    def test_skip_noise_addition_uses_raw_input(self):
        x = make_speechlike(seed=70, seconds=1.0)
        config = PipelineConfig(skip_noise_addition=True, global_seed=1)
        details = process_utterance_details(x, config, EnhancerKind("identity"), noise_seed=1)
        assert details.enhanced is x

    def test_details_expose_stages(self):
        x = make_speechlike(seed=71, seconds=1.0)
        config = PipelineConfig(global_seed=5)
        details = process_utterance_details(x, config, EnhancerKind("wiener"), noise_seed=5)
        assert len(details.enhanced) == len(x)
        assert len(details.residual.a_hat) == len(x)
        # x_tilde = x + alpha * a_hat, rebuilt from the parts
        rebuilt = x.samples + config.alpha * details.residual.a_hat.samples
        assert np.allclose(details.x_tilde.samples, rebuilt, atol=1e-12)

    def test_naive_mode_is_naive_residual_of_projection_run(self):
        # criterion 6 derives its naive variant this way, enhancing once
        x = make_speechlike(seed=74, seconds=1.0)
        config = PipelineConfig()
        kind = EnhancerKind("wiener")
        details = process_utterance_details(x, config, kind, noise_seed=3)
        want = amplify(x, extract_residual(x, details.enhanced, "naive").a_hat, config.alpha)
        naive_config = config.with_overrides(extraction_mode="naive")
        out = process_utterance(x, naive_config, kind, noise_seed=3)
        assert np.array_equal(out.samples, want.samples)

    def test_mixing_failure_wrapped_with_stage(self):
        x = Waveform(np.zeros(16000), 16000)  # zero energy makes the mix gain undefined
        config = PipelineConfig(global_seed=1)
        with pytest.raises(StageError) as exc:
            process_utterance(x, config, EnhancerKind("wiener"), noise_seed=1)
        assert exc.value.stage == "mixing"

    def test_negative_seed_fails_at_noise_gen(self):
        x = make_speechlike(seed=73, seconds=0.3)
        with pytest.raises(StageError) as exc:
            process_utterance(x, PipelineConfig(), EnhancerKind("wiener"), noise_seed=-1)
        assert exc.value.stage == "noise-gen"
        assert isinstance(exc.value.cause, ConfigError)

    def test_enhance_failure_wrapped_with_stage(self):
        x = make_speechlike(seed=72, seconds=0.3)
        config = PipelineConfig(global_seed=1)
        kind = EnhancerKind("external", {"command": "/no/such/binary {in} {out}"})
        with pytest.raises(StageError) as exc:
            process_utterance(x, config, kind, noise_seed=1)
        assert exc.value.stage == "enhance"
