"""Pipeline configuration, JSON loading, hashing, and seed derivation."""

import hashlib
import json

import numpy as np
import pytest

from spoofamp.amplify import amplify, extract_residual
from spoofamp.audio import Waveform, crop_or_pad, write_wav
from spoofamp.config import (
    RELEASE_SEED,
    PipelineConfig,
    config_doc,
    config_hash,
    derive_seed,
    load_config,
)
from spoofamp.detector import FeatureConfig
from spoofamp.enhance import EnhancerKind
from spoofamp.errors import ConfigError
from spoofamp.manifest import ManifestEntry
from spoofamp.mixing import add_noise_at_snr
from spoofamp.noise import generate
from spoofamp.pipeline import run_pipeline
from spoofamp.synth import SynthSpec

_X = Waveform(np.ones(160), 16000)
_VALUES = {
    "nan": float("nan"), "inf": float("inf"), "minus_one": -1.0, "zero": 0.0,
    "unknown_name": "brown", "string": "high", "none": None, "bool": True,
    "int_too_big_for_float": 10**400,
    # finite, but past a bound that keeps the stage arithmetic inside a float
    "snr_overflow": 4000.0, "over_a_day": 86401.0, "huge": 1e308, "minus_huge": -1e308,
}
_NOT_NUMBERS = {"string", "none", "bool", "int_too_big_for_float"}
_HUGE = {"over_a_day", "huge", "minus_huge"}
# config field -> (the stage calls that consume it, the values its rule rejects)
_KNOBS = {
    "snr_db": (
        [lambda v: add_noise_at_snr(_X, _X, v)],
        {"nan", "inf", "snr_overflow"} | _NOT_NUMBERS | _HUGE,
    ),
    "noise_color": ([lambda v: generate(v, 160, 16000, 0)], set(_VALUES)),
    "alpha": (
        [lambda v: amplify(_X, _X, v)], {"nan", "inf", "minus_one", "minus_huge"} | _NOT_NUMBERS
    ),
    "extraction_mode": ([lambda v: extract_residual(_X, _X, v)], set(_VALUES)),
    "crop_seconds": (
        [lambda v: crop_or_pad(_X, v, 0)],
        {"nan", "inf", "minus_one", "zero"} | _NOT_NUMBERS | _HUGE,
    ),
}


class TestPipelineConfig:
    def test_defaults_match_release_recipe(self):
        cfg = PipelineConfig()
        assert cfg.snr_db == 0.0
        assert cfg.noise_color == "white"
        assert cfg.enhancer == "wiener"
        assert cfg.alpha == 1.4
        assert cfg.crop_seconds == 4.0
        assert cfg.extraction_mode == "projection"
        assert cfg.skip_noise_addition is False
        assert cfg.global_seed == RELEASE_SEED
        assert cfg.parallelism == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"snr_db": float("nan")},
            {"noise_color": "brown"},
            {"enhancer": "dnn"},
            {"alpha": -1.0},
            {"crop_seconds": 0.0},
            {"extraction_mode": "orthogonal"},
            {"skip_noise_addition": "yes"},
            {"global_seed": 1.5},
            {"parallelism": 0},
            {"parallelism": True},
            {"alpha": "high"},
            {"enhancer_params": "floor=0.1"},
        ],
    )
    def test_rejects_invalid_fields(self, kwargs):
        with pytest.raises(ConfigError):
            PipelineConfig(**kwargs)

    def test_with_overrides_validates(self):
        cfg = PipelineConfig()
        assert cfg.with_overrides(alpha=0.6).alpha == 0.6
        with pytest.raises(ConfigError):
            cfg.with_overrides(noise_color="magenta")


class TestKeptEnhancer:
    """A config keeps the EnhancerKind that checked its enhancer fields."""

    def test_kind_of_the_fields(self):
        cfg = PipelineConfig(
            enhancer="spectral_subtraction", enhancer_params={"floor": np.float32(0.1)}
        )
        assert cfg._enhancer == EnhancerKind(cfg.enhancer, cfg.enhancer_params)
        assert cfg._enhancer == EnhancerKind("spectral_subtraction", {"floor": np.float32(0.1)})

    def test_with_overrides_rebuilds_it(self):
        cfg = PipelineConfig()
        assert cfg.with_overrides(alpha=0.6)._enhancer is not cfg._enhancer
        floor = cfg.with_overrides(enhancer_params={"floor": 0.2})
        assert floor._enhancer == EnhancerKind("wiener", {"floor": 0.2})
        spectral = cfg.with_overrides(enhancer="spectral_subtraction")
        assert spectral._enhancer == EnhancerKind("spectral_subtraction")

    def test_no_field(self):
        # pinned values: a kept kind that reached config_doc would move every run
        # log's config_hash
        a = PipelineConfig(
            enhancer="spectral_subtraction", enhancer_params={"floor": np.float32(0.1)}
        )
        b = PipelineConfig(
            enhancer="spectral_subtraction", enhancer_params={"floor": float(np.float32(0.1))}
        )
        assert a._enhancer is not b._enhancer
        assert a == b
        assert list(config_doc(a)) == [
            "snr_db", "noise_color", "enhancer", "enhancer_params", "alpha", "crop_seconds",
            "extraction_mode", "skip_noise_addition", "global_seed",
        ]
        assert config_hash(a) == "ad26424297ae430f"
        assert config_hash(PipelineConfig()) == "f20279b9c23b4195"
        assert repr(a) == (
            "PipelineConfig(snr_db=0.0, noise_color='white', enhancer='spectral_subtraction', "
            "enhancer_params={'floor': 0.10000000149011612}, alpha=1.4, crop_seconds=4.0, "
            "extraction_mode='projection', skip_noise_addition=False, global_seed=555, "
            "parallelism=1)"
        )


@pytest.mark.parametrize(
    "field, value_id",
    [(field, v) for field, (_, rejected) in _KNOBS.items() for v in _VALUES if v in rejected],
)
def test_config_and_stage_share_one_rule(field, value_id):
    """A knob's config field and every stage that consumes it apply one rule:
    the same values fail, with ConfigError and the same message."""
    value = _VALUES[value_id]
    stages, _ = _KNOBS[field]
    with pytest.raises(ConfigError) as from_config:
        PipelineConfig(**{field: value})
    for stage in stages:
        with pytest.raises(ConfigError) as from_stage:
            stage(value)
        assert str(from_stage.value) == str(from_config.value)


@pytest.mark.parametrize("value_id", sorted(_KNOBS["crop_seconds"][1]))
def test_synth_duration_shares_the_crop_rule(value_id):
    """SynthSpec's duration_s and crop_seconds are durations under one rule: the
    same values fail, with ConfigError and messages that differ only in the knob's name."""
    value = _VALUES[value_id]
    with pytest.raises(ConfigError) as from_config:
        PipelineConfig(crop_seconds=value)
    with pytest.raises(ConfigError) as from_synth:
        SynthSpec(1, 1, duration_s=value)
    assert str(from_synth.value) == str(from_config.value).replace("crop_seconds", "duration_s")


_INTEGER_KNOBS = {
    "global_seed": lambda v: PipelineConfig(global_seed=v),
    "parallelism": lambda v: PipelineConfig(parallelism=v),
    "n_bonafide": lambda v: SynthSpec(v, 1),
    "synth_sample_rate": lambda v: SynthSpec(1, 1, sample_rate=v),
    "synth_seed": lambda v: SynthSpec(1, 1, seed=v),
    "n_bands": lambda v: FeatureConfig(n_bands=v),
    "noise_length": lambda v: generate("white", v, 16000, 0),
    "noise_sample_rate": lambda v: generate("white", 160, v, 0),
    "noise_seed": lambda v: generate("white", 160, 16000, v),
    "crop_seed": lambda v: crop_or_pad(_X, 0.001, v),
}


@pytest.mark.parametrize(
    "value", ["high", None, True, 1.5, float("nan"), 10**400],
    ids=["string", "none", "bool", "fraction", "nan", "int_too_big_for_float"],
)
@pytest.mark.parametrize("knob", list(_INTEGER_KNOBS))
def test_integer_knob_rejects_non_integers(knob, value):
    with pytest.raises(ConfigError):
        _INTEGER_KNOBS[knob](value)


class TestLoadConfig:
    def test_roundtrip(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"alpha": 0.6, "noise_color": "pink", "_note": "x"}))
        cfg = load_config(str(p))
        assert cfg.alpha == 0.6
        assert cfg.noise_color == "pink"

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"alpa": 0.6}))
        with pytest.raises(ConfigError):
            load_config(str(p))

    def test_invalid_json_rejected(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{alpha: 0.6")
        with pytest.raises(ConfigError):
            load_config(str(p))

    def test_nesting_too_deep_rejected(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("[" * 100000)
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(str(p))

    def test_byte_order_mark_is_not_part_of_the_file(self, tmp_path):
        text = '{"alpha": 0.6, "noise_color": "pink"}'
        plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(text.encode("utf-8-sig"))
        assert load_config(str(marked)) == load_config(str(plain))

    def test_not_utf8_rejected(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_bytes(b'{"noise_color": "\xff"}')
        with pytest.raises(ConfigError, match="config is not UTF-8 text"):
            load_config(str(p))

    def test_non_object_rejected(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            load_config(str(p))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "absent.json"))


class TestConfigHash:
    def test_stable_across_parallelism(self):
        a = PipelineConfig(parallelism=1)
        b = PipelineConfig(parallelism=8)
        assert config_hash(a) == config_hash(b)

    def test_sensitive_to_signal_fields(self):
        base = PipelineConfig()
        assert config_hash(base) != config_hash(base.with_overrides(alpha=0.6))
        assert config_hash(base) != config_hash(base.with_overrides(global_seed=123))

    def test_numpy_integer_seed_hashes_like_int(self):
        cfg = PipelineConfig(global_seed=np.int64(123))
        assert type(cfg.global_seed) is int
        assert config_hash(cfg) == config_hash(PipelineConfig(global_seed=123))

    @pytest.mark.parametrize("field", ["snr_db", "alpha", "crop_seconds"])
    def test_numpy_float_knob_hashes_like_python_number(self, field):
        cfg = PipelineConfig(**{field: np.float32(1.0)})
        assert type(getattr(cfg, field)) is float
        assert config_hash(cfg) == config_hash(PipelineConfig(**{field: 1.0}))

    @pytest.mark.parametrize(
        "value, plain",
        [(np.float64(0.1), 0.1), (np.float32(0.1), float(np.float32(0.1)))],
        ids=["float64", "float32"],
    )
    def test_numpy_enhancer_param_hashes_like_python_number(self, value, plain, tmp_path):
        cfg = PipelineConfig(enhancer_params={"floor": value}, crop_seconds=1.0)
        assert type(cfg.enhancer_params["floor"]) is float
        plain_cfg = PipelineConfig(enhancer_params={"floor": plain}, crop_seconds=1.0)
        assert config_hash(cfg) == config_hash(plain_cfg)
        assert type(PipelineConfig(enhancer_params={"floor": 0}).enhancer_params["floor"]) is int
        path = str(tmp_path / "U0.wav")
        write_wav(Waveform(np.sin(np.arange(16000) / 5.0), 16000), path)
        entries = [ManifestEntry("U0", path, "bonafide", "-")]
        result = run_pipeline(cfg, entries, str(tmp_path / "run"))
        assert (result.n_ok, result.n_failed, result.config_hash) == (1, 0, config_hash(cfg))

    def test_python_int_knob_kept_as_given(self):
        # 1 and 1.0 serialize differently, so converting an int from a JSON
        # config would move its hash
        cfg = PipelineConfig(alpha=1, snr_db=0, crop_seconds=2)
        assert [type(v) for v in (cfg.alpha, cfg.snr_db, cfg.crop_seconds)] == [int] * 3

    def test_format(self):
        h = config_hash(PipelineConfig())
        assert len(h) == 16
        int(h, 16)


class TestDeriveSeed:
    def test_matches_sha256_definition(self):
        # independent recomputation of the derivation rule
        key = "555:UTT_0001:noise"
        want = int(hashlib.sha256(key.encode()).hexdigest()[:16], 16)
        assert derive_seed(555, "UTT_0001", "noise") == want

    def test_distinct_parts_distinct_seeds(self):
        seeds = {
            derive_seed(1, "a"),
            derive_seed(1, "b"),
            derive_seed(2, "a"),
            derive_seed(1, "a", "x"),
        }
        assert len(seeds) == 4

    def test_fits_in_64_bits(self):
        s = derive_seed(RELEASE_SEED, "anything")
        assert 0 <= s < 1 << 64
