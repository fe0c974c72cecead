"""Fuzzed readers: whatever the bytes, only a SpoofampError may escape.

Each reader gets random bytes and mutations of a valid file (bytes
overwritten, inserted and cut off). The JSON readers also get valid JSON with
one value replaced by an arbitrary JSON value, which byte mutations rarely
reach, and by each edge value in turn. Examples are derandomized, so a run is
repeatable.
"""

import json
import os
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spoofamp.audio import Waveform, read_wav, write_wav
from spoofamp.config import load_config
from spoofamp.detector import FeatureConfig, fit, load_model, save_model
from spoofamp.errors import SpoofampError
from spoofamp.manifest import ManifestEntry, load_manifest
from spoofamp.metrics import parse_score_file
from spoofamp.pipeline import _read_run

from conftest import write_minimal_wav

FUZZ = settings(
    max_examples=100,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_MANIFEST = (
    b"U1\ta.wav\tbonafide\t-\n"
    b"U2\t/abs/b.wav\tspoof\tA01\r\n"
    b"\n"
    b"U3\tc.wav\tspoof\tA02\n"
)
_PROTOCOL = b"LA_0079 LA_T_1 - - bonafide\nLA_0079 LA_T_2 - A01 spoof\n"
_SCORES = b"# config_hash=0000000000abc123\nU1 - bonafide 0.5\nU2 A01 spoof -1.25\n\nU3 0.75\n"
_CONFIG = {"snr_db": 5.0, "noise_color": "pink", "enhancer": "spectral_subtraction",
           "enhancer_params": {"floor": 0.02}, "alpha": 1.4, "crop_seconds": 2.0,
           "extraction_mode": "naive", "skip_noise_addition": False, "global_seed": 7,
           "parallelism": 2, "_comment": "x"}
_RUN_LOG = {
    "config_hash": "0123456789abcdef", "config": {"alpha": 1.4}, "n_ok": 1, "n_failed": 1,
    "entries": [
        {"utterance_id": "U1", "status": "ok", "crop_seed": 3, "noise_seed": 4},
        {"utterance_id": "U2", "status": "failed", "stage": "io", "error": "x"},
    ],
}
_RUN_LOG_PATHS = [(key,) for key in _RUN_LOG] + [("entries", 0), ("entries", 1)] + [
    ("entries", 1, key) for key in _RUN_LOG["entries"][1]
]
_RUN_ENTRIES = [
    ManifestEntry("U1", "a.wav", "bonafide", "-"), ManifestEntry("U2", "b.wav", "spoof", "A01")
]

# values at the edges of what a float, an int or a container holds
_EDGES = [10**400, -(10**400), float("inf"), float("-inf"), float("nan"), 0, -1, "", [], {}]
json_values = st.recursive(
    st.sampled_from(_EDGES) | st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                               max_size=4),
    max_leaves=8,
)


@st.composite
def mutations(draw, valid):
    """valid with a few bytes overwritten, a few inserted, and maybe cut short."""
    data = bytearray(valid)
    for _ in range(draw(st.integers(0, 6))):
        pos = draw(st.integers(0, len(data)))
        byte = draw(st.integers(0, 255))
        if draw(st.booleans()) and pos < len(data):
            data[pos] = byte
        else:
            data.insert(pos, byte)
    return bytes(data[: draw(st.integers(0, len(data)))])


def _read_run_log(path):
    """_read_run on the run directory holding path, a file named run_log.json."""
    return _read_run(os.path.dirname(path), _RUN_ENTRIES)


def _check(reader, path, data):
    """Run reader on a file holding data; anything but a SpoofampError fails."""
    with open(path, "wb") as f:
        f.write(data)
    try:
        reader(path)
    except SpoofampError:
        pass


def _inputs(*valid):
    return st.binary(max_size=256) | st.one_of(*(mutations(v) for v in valid))


def _replace_one_value(doc, draw_value, path):
    """doc with the value at path (a tuple of keys) replaced."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = draw_value
    return json.dumps(doc).encode("utf-8")


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """Valid WAV and model files to mutate, and the path each example writes."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(0)
    wav = root / "float.wav"
    write_wav(Waveform(rng.standard_normal(5), 16000), str(wav))
    pcm = root / "pcm.wav"
    write_minimal_wav(pcm, struct.pack("<4h", 0, 16384, -16384, 1), fmt_tag=1, bits=16,
                      channels=2, rate=8000, extensible=True, extra_chunk=(b"LIST", b"abc"))
    feats = [rng.standard_normal(6) for _ in range(4)]
    model = root / "model.json"
    save_model(fit(feats, ["bonafide", "spoof"] * 2, FeatureConfig(n_bands=2)), str(model))
    (root / "run").mkdir()
    return {
        "root": str(root),
        "path": str(root / "input"),
        "run_log": str(root / "run" / "run_log.json"),
        "wavs": (wav.read_bytes(), pcm.read_bytes()),
        "model": json.loads(model.read_text()),
    }


def _model_paths(model):
    """Key paths to every value of a saved model, down to a mean's first element."""
    paths = [("format",), ("version",), ("classes",), ("feature_config",)]
    paths += [("feature_config", key) for key in model["feature_config"]]
    for label in ("bonafide", "spoof"):
        paths += [("classes", label), ("classes", label, "mean", 0),
                  ("classes", label, "variance", 0)]
        paths += [("classes", label, key) for key in ("mean", "variance", "prior")]
    return paths


class TestFuzzedReaders:
    def test_valid_inputs_load(self, valid):
        for wav in valid["wavs"]:
            _check(read_wav, valid["path"], wav)
            assert len(read_wav(valid["path"])) > 0
        _check(load_config, valid["path"], json.dumps(_CONFIG).encode("utf-8"))
        assert load_config(valid["path"]).enhancer == "spectral_subtraction"
        _check(load_model, valid["path"], json.dumps(valid["model"]).encode("utf-8"))
        assert load_model(valid["path"]).feature_config == FeatureConfig(n_bands=2)
        _check(load_manifest, valid["path"], _MANIFEST)
        assert len(load_manifest(valid["path"])) == 3
        _check(parse_score_file, valid["path"], _SCORES)
        assert len(parse_score_file(valid["path"])[0]) == 3
        _check(_read_run_log, valid["run_log"], json.dumps(_RUN_LOG).encode("utf-8"))
        kept, chash = _read_run_log(valid["run_log"])
        assert [e.utterance_id for e in kept] == ["U1"] and chash == "0123456789abcdef"

    def test_edge_value_in_every_json_field(self, valid):
        # every edge value at every key path, which random draws reach too rarely
        config_paths = [(key,) for key in _CONFIG] + [("enhancer_params", "floor")]
        for reader, target, doc, paths in (
            (load_model, valid["path"], valid["model"], _model_paths(valid["model"])),
            (load_config, valid["path"], _CONFIG, config_paths),
            (_read_run_log, valid["run_log"], _RUN_LOG, _RUN_LOG_PATHS),
        ):
            for path in paths:
                for value in _EDGES:
                    _check(reader, target, _replace_one_value(doc, value, path))

    @FUZZ
    @given(st.data())
    def test_read_wav(self, valid, data):
        _check(read_wav, valid["path"], data.draw(_inputs(*valid["wavs"])))

    @FUZZ
    @given(st.data())
    def test_load_manifest(self, valid, data):
        text = data.draw(_inputs(_MANIFEST, _PROTOCOL))
        _check(load_manifest, valid["path"], text)
        _check(lambda p: load_manifest(p, "asvspoof_protocol", valid["root"]), valid["path"], text)

    @FUZZ
    @given(st.data())
    def test_parse_score_file(self, valid, data):
        _check(parse_score_file, valid["path"], data.draw(_inputs(_SCORES)))

    @FUZZ
    @given(st.data())
    def test_load_model(self, valid, data):
        model = valid["model"]
        replaced = st.builds(
            _replace_one_value, st.just(model), json_values, st.sampled_from(_model_paths(model))
        )
        text = data.draw(_inputs(json.dumps(model).encode("utf-8")) | replaced)
        _check(load_model, valid["path"], text)

    @FUZZ
    @given(st.data())
    def test_load_config(self, valid, data):
        paths = [(key,) for key in _CONFIG] + [("enhancer_params", "floor")]
        replaced = st.builds(_replace_one_value, st.just(_CONFIG), json_values,
                             st.sampled_from(paths))
        text = data.draw(_inputs(json.dumps(_CONFIG).encode("utf-8")) | replaced)
        _check(load_config, valid["path"], text)

    @FUZZ
    @given(st.data())
    def test_read_run(self, valid, data):
        replaced = st.builds(_replace_one_value, st.just(_RUN_LOG), json_values,
                             st.sampled_from(_RUN_LOG_PATHS))
        text = data.draw(_inputs(json.dumps(_RUN_LOG).encode("utf-8")) | replaced)
        _check(_read_run_log, valid["run_log"], text)
