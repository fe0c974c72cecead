"""Residual extraction (projection and naive), amplification, and the
per-utterance pipeline composition."""

import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from spoofamp import amplify as amplify_module
from spoofamp import noise as noise_module
from spoofamp.amplify import (
    EXTRACTION_MODES,
    amplify,
    extract_residual,
    process_utterance,
    process_utterance_details,
)
from spoofamp.audio import Waveform
from spoofamp.config import PipelineConfig
from spoofamp.detector import extract_features
from spoofamp.enhance import EnhancerKind
from spoofamp.errors import ConfigError, DegenerateSignalError, EnhancerError, StageError

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


@pytest.fixture
def chain_calls(monkeypatch):
    """Counts of the noise draws and enhancements the chain runs from now on."""
    counts = {"noise": 0, "enhance": 0}
    real_generate, real_enhance = noise_module.generate, amplify_module.enhance

    def generate(*args):
        counts["noise"] += 1
        return real_generate(*args)

    def enhance(*args, **kwargs):
        counts["enhance"] += 1
        return real_enhance(*args, **kwargs)

    monkeypatch.setattr(noise_module, "generate", generate)
    monkeypatch.setattr(amplify_module, "enhance", enhance)
    return counts


def _fresh(x, config, kind, noise_seed):
    """The chain on a copy of x: another Waveform object, so nothing is reused."""
    return process_utterance_details(Waveform(x.samples, x.sample_rate), config, kind, noise_seed)


class TestEnhancedReuse:
    """A thread that runs one utterance again, changing only alpha or the
    extraction mode, reuses its enhanced estimate x_hat."""

    _CONFIG = PipelineConfig(global_seed=1)
    _KIND = EnhancerKind("wiener")

    @pytest.mark.parametrize(
        "change",
        [
            {"skip_noise_addition": True},
            {"noise_color": "pink"},
            {"snr_db": 5.0},
            {"noise_seed": 8},
            {"enhancer": EnhancerKind("wiener", {"floor": 0.02})},
            {"x": "an equal copy"},
        ],
        ids=["skip_noise_addition", "noise_color", "snr_db", "noise_seed", "enhancer", "x"],
    )
    def test_an_upstream_change_recomputes(self, chain_calls, change):
        x = make_speechlike(seed=80, seconds=0.5)
        process_utterance_details(x, self._CONFIG, self._KIND, 7)
        downstream = self._CONFIG.with_overrides(alpha=4.0, extraction_mode="naive")
        process_utterance_details(x, downstream, EnhancerKind("wiener", {"floor": 0.01}), 7)
        assert chain_calls["enhance"] == 1  # an equal kind built apart is the same enhancer
        change = dict(change)
        y = Waveform(x.samples, x.sample_rate) if change.pop("x", None) else x
        kind = change.pop("enhancer", self._KIND)
        noise_seed = change.pop("noise_seed", 7)
        got = process_utterance_details(y, self._CONFIG.with_overrides(**change), kind, noise_seed)
        assert chain_calls["enhance"] == 2
        want = _fresh(x, self._CONFIG.with_overrides(**change), kind, noise_seed)
        assert np.array_equal(got.enhanced.samples, want.enhanced.samples)

    def test_a_hit_equals_a_fresh_chain(self, chain_calls):
        x = make_speechlike(seed=81, seconds=1.0)
        configs = [
            self._CONFIG.with_overrides(alpha=alpha, extraction_mode=mode)
            for mode in ("projection", "naive") for alpha in (0.0, 1.4, 4.0)
        ]
        hits = [process_utterance_details(x, c, self._KIND, 3) for c in configs]
        assert (chain_calls["noise"], chain_calls["enhance"]) == (1, 1)
        for config, hit in zip(configs, hits):
            fresh = _fresh(x, config, self._KIND, 3)
            assert np.array_equal(hit.x_tilde.samples, fresh.x_tilde.samples)
            assert hit.residual.projection_weight == fresh.residual.projection_weight
            assert np.array_equal(extract_features(hit.x_tilde), extract_features(fresh.x_tilde))

    def test_threads_do_not_share_an_entry(self, chain_calls):
        x = make_speechlike(seed=82, seconds=0.5)
        mine = process_utterance_details(x, self._CONFIG, self._KIND, 4)
        theirs = []
        worker = threading.Thread(
            target=lambda: theirs.append(process_utterance_details(x, self._CONFIG, self._KIND, 4))
        )
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert chain_calls["enhance"] == 2
        assert theirs[0].enhanced is not mine.enhanced
        assert np.array_equal(theirs[0].enhanced.samples, mine.enhanced.samples)
        again = process_utterance_details(x, self._CONFIG, self._KIND, 4)
        assert chain_calls["enhance"] == 2  # the worker's run left this thread's entry
        assert again.enhanced is mine.enhanced

    def test_threads_sharing_utterances_match_a_serial_run(self):
        # more workers than cores on shared Waveforms, switching threads as often as
        # the interpreter allows: each task runs two utterances through every config
        xs = [make_speechlike(seed=90 + k, seconds=0.25) for k in range(4)]
        configs = [self._CONFIG.with_overrides(alpha=a, extraction_mode=m)
                   for m in ("projection", "naive") for a in (0.0, 4.0)]
        want = [[_fresh(x, c, self._KIND, k).x_tilde.samples for c in configs]
                for k, x in enumerate(xs)]

        def task(i):
            return [[process_utterance_details(xs[k], c, self._KIND, k).x_tilde.samples
                     for c in configs] for k in (i % 4, (i + 1) % 4)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(task, range(32), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for i, rows in enumerate(got):
            for k, row in zip((i % 4, (i + 1) % 4), rows):
                assert all(np.array_equal(g, w) for g, w in zip(row, want[k]))

    @pytest.mark.parametrize("skip", [False, True], ids=["wiener", "identity_skip_noise"])
    def test_entry_dies_with_its_utterance(self, skip):
        config = self._CONFIG.with_overrides(skip_noise_addition=skip)
        kind = EnhancerKind("identity") if skip else self._KIND
        x = make_speechlike(seed=83, seconds=0.5)
        details = process_utterance_details(x, config, kind, 5)
        x_hat, x_ref = weakref.ref(details.enhanced), weakref.ref(x)
        del details
        if not skip:  # without noise or enhancer x_hat is x, and nothing is stored
            assert x_hat() is not None
        del x
        assert x_ref() is None
        assert x_hat() is None

    def test_failed_enhancement_stores_nothing(self, chain_calls, monkeypatch):
        x = make_speechlike(seed=84, seconds=0.5)
        earlier = weakref.ref(process_utterance_details(x, self._CONFIG, self._KIND, 5).enhanced)
        real_enhance = amplify_module.enhance

        def failing(*args, **kwargs):
            real_enhance(*args, **kwargs)
            raise EnhancerError("enhancer crashed")

        monkeypatch.setattr(amplify_module, "enhance", failing)
        with pytest.raises(StageError) as exc:
            process_utterance_details(x, self._CONFIG, self._KIND, 6)
        assert exc.value.stage == "enhance"
        assert earlier() is None  # a miss drops the last entry before its chain runs
        monkeypatch.setattr(amplify_module, "enhance", real_enhance)
        got = process_utterance_details(x, self._CONFIG, self._KIND, 6)
        assert chain_calls["enhance"] == 3
        want = _fresh(x, self._CONFIG, self._KIND, 6)
        assert np.array_equal(got.x_tilde.samples, want.x_tilde.samples)
