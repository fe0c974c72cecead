"""Batch pipeline runs, sweeps, and score joining."""

import json
import os

import numpy as np
import pytest

from spoofamp.audio import crop_or_pad, read_wav
from spoofamp.config import PipelineConfig, config_hash, derive_seed
from spoofamp.errors import ConfigError, MissingIdError, ScoreFileError
from spoofamp.manifest import ManifestEntry, load_manifest
from spoofamp.metrics import TdcfParams, eer, ScoreRecord
from spoofamp.pipeline import (
    SWEEP_AXES,
    SweepCell,
    join_scores,
    load_tdcf_params,
    run_pipeline,
    sweep,
    sweep_csv_text,
)
from spoofamp.detector import FeatureConfig, extract_features, fit, score
from spoofamp.synth import SynthSpec, synth_corpus

from conftest import write_minimal_wav

UNIT_PARAMS = TdcfParams(
    p_target=0.25, p_nontarget=0.25, p_spoof=0.5,
    c_miss=2.0, c_fa=1.0, c_fa_spoof=1.0,
    asv_pmiss=0.0, asv_pfa=0.0, asv_pmiss_spoof=0.0,
)


def _config(**overrides):
    base = dict(
        snr_db=0.0,
        noise_color="white",
        enhancer="wiener",
        alpha=1.4,
        crop_seconds=0.5,
        global_seed=99,
        parallelism=1,
    )
    base.update(overrides)
    return PipelineConfig(**base)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("corpus"))
    spec = SynthSpec(n_bonafide=3, n_spoof=3, duration_s=0.5, seed=11)
    entries, manifest_path = synth_corpus(spec, out)
    return entries, manifest_path


class TestRunPipeline:
    def test_outputs_and_log(self, corpus, tmp_path):
        entries, _ = corpus
        cfg = _config()
        out = str(tmp_path / "run")
        result = run_pipeline(cfg, entries, out)
        assert result.n_ok == 6
        assert result.n_failed == 0
        assert result.config_hash == config_hash(cfg)
        for e in entries:
            assert os.path.isfile(os.path.join(out, e.utterance_id + ".wav"))
        with open(result.log_path) as f:
            log = json.load(f)
        assert log["config_hash"] == config_hash(cfg)
        assert log["n_ok"] == 6
        assert [r["utterance_id"] for r in log["entries"]] == [
            e.utterance_id for e in entries
        ]
        first = log["entries"][0]
        assert first["status"] == "ok"
        assert first["noise_seed"] == derive_seed(99, first["utterance_id"], "noise")
        assert "parallelism" not in log["config"]

    def test_parallelism_byte_identity(self, corpus, tmp_path):
        entries, _ = corpus
        out1 = str(tmp_path / "p1")
        out8 = str(tmp_path / "p8")
        run_pipeline(_config(parallelism=1), entries, out1)
        run_pipeline(_config(parallelism=8), entries, out8)
        names = sorted(os.listdir(out1))
        assert names == sorted(os.listdir(out8))
        for name in names:
            with open(os.path.join(out1, name), "rb") as a, open(
                os.path.join(out8, name), "rb"
            ) as b:
                assert a.read() == b.read(), name

    def test_log_energies_satisfy_energy_split(self, corpus, tmp_path):
        # orthogonal residual: |x|^2 = w^2 |x_hat|^2 + |a_hat|^2
        entries, _ = corpus
        result = run_pipeline(_config(), entries, str(tmp_path / "run"))
        with open(result.log_path) as f:
            log = json.load(f)
        for r in log["entries"]:
            w = r["projection_weight"]
            lhs = r["input_energy"]
            rhs = w * w * r["enhanced_energy"] + r["residual_energy"]
            assert rhs == pytest.approx(lhs, rel=1e-9)

    def test_oracle_enhancer_passes_input_through(self, corpus, tmp_path):
        entries, _ = corpus
        cfg = _config(enhancer="oracle_clean")
        out = str(tmp_path / "run")
        result = run_pipeline(cfg, entries, out)
        assert result.n_failed == 0
        with open(result.log_path) as f:
            log = json.load(f)
        for e, r in zip(entries, log["entries"]):
            assert r["residual_energy"] <= 1e-12 * r["input_energy"]
            x = crop_or_pad(
                read_wav(e.path), 0.5, derive_seed(99, e.utterance_id, "crop")
            )
            y = read_wav(os.path.join(out, e.utterance_id + ".wav"))
            assert np.allclose(y.samples, x.samples, atol=1e-7)

    def test_zero_alpha_output_is_identity(self, corpus, tmp_path):
        entries, _ = corpus
        out = str(tmp_path / "run")
        run_pipeline(_config(alpha=0.0), entries, out)
        for e in entries:
            x = crop_or_pad(
                read_wav(e.path), 0.5, derive_seed(99, e.utterance_id, "crop")
            )
            y = read_wav(os.path.join(out, e.utterance_id + ".wav"))
            assert np.array_equal(y.samples, x.samples.astype(np.float32).astype(np.float64))

    def test_missing_file_logged_not_raised(self, tmp_path):
        spec = SynthSpec(n_bonafide=5, n_spoof=5, duration_s=0.25, seed=12)
        entries, _ = synth_corpus(spec, str(tmp_path / "c"))
        os.remove(entries[3].path)
        result = run_pipeline(_config(crop_seconds=0.25), entries, str(tmp_path / "run"))
        assert result.n_ok == 9
        assert result.n_failed == 1
        with open(result.log_path) as f:
            log = json.load(f)
        failed = [r for r in log["entries"] if r["status"] == "failed"]
        assert len(failed) == 1
        assert failed[0]["utterance_id"] == entries[3].utterance_id
        assert failed[0]["stage"] == "io"

    def test_partial_sample_file_logged_not_raised(self, corpus, tmp_path):
        entries, _ = corpus
        bad_path = tmp_path / "partial.wav"
        write_minimal_wav(bad_path, b"\x00\x01\x02", fmt_tag=1, bits=16, channels=1, rate=16000)
        bad = ManifestEntry("PARTIAL", str(bad_path), "bonafide", "-")
        result = run_pipeline(_config(), entries + [bad], str(tmp_path / "run"))
        assert (result.n_ok, result.n_failed) == (len(entries), 1)
        with open(result.log_path) as f:
            log = json.load(f)
        outcome = {r["utterance_id"]: (r["status"], r.get("stage")) for r in log["entries"]}
        assert outcome.pop("PARTIAL") == ("failed", "io")
        assert set(outcome.values()) == {("ok", None)}


class TestSweep:
    def test_zero_alpha_cell_matches_raw_baseline(self, corpus):
        entries, _ = corpus
        train = entries[:2] + entries[3:5]  # two per class
        eval_ = entries
        cfg = _config()
        fc = FeatureConfig(n_bands=6)
        cells = sweep(cfg, train, eval_, "alpha", [0.0], UNIT_PARAMS, feature_config=fc)
        assert len(cells) == 1
        assert cells[0].error is None

        def crops(es):
            return [
                crop_or_pad(read_wav(e.path), 0.5, derive_seed(99, e.utterance_id, "crop"))
                for e in es
            ]

        feats_train = [extract_features(x, fc) for x in crops(train)]
        model = fit(feats_train, [e.label for e in train], fc)
        recs = [
            ScoreRecord(e.utterance_id, e.label, e.attack_id, score(model, f))
            for e, f in zip(eval_, [extract_features(x, fc) for x in crops(eval_)])
        ]
        assert cells[0].eer == eer(recs)

    def test_boolean_axis_runs_both_cells(self, corpus):
        entries, _ = corpus
        cells = sweep(
            _config(), entries, entries, "skip_noise_addition", [False, True],
            UNIT_PARAMS, feature_config=FeatureConfig(n_bands=4),
        )
        assert [c.value for c in cells] == [False, True]
        assert all(c.error is None for c in cells)
        assert all(c.eer is not None and c.min_tdcf is not None for c in cells)

    def test_failing_cell_recorded_and_sweep_continues(self, corpus):
        entries, _ = corpus
        cells = sweep(
            _config(), entries, entries, "noise_color", ["infrared", "white"],
            UNIT_PARAMS, feature_config=FeatureConfig(n_bands=4),
        )
        assert cells[0].error is not None
        assert cells[0].eer is None
        assert cells[1].error is None

    def test_unknown_axis_rejected(self, corpus):
        entries, _ = corpus
        assert "alpha" in SWEEP_AXES
        with pytest.raises(ConfigError):
            sweep(_config(), entries, entries, "beta", [1.0], UNIT_PARAMS)

    def test_csv_formatting(self):
        cells = [
            SweepCell("alpha", 1.4, 0.25, 0.53125, None),
            SweepCell("skip_noise_addition", True, 0.5, 1.0, None),
            SweepCell("skip_noise_addition", False, 0.5, 1.0, None),
            SweepCell("noise_color", "infrared", None, None, "bad, very\nbad"),
        ]
        text = sweep_csv_text(cells)
        lines = text.strip().split("\n")
        assert lines[0] == "axis,value,eer,min_tdcf,status"
        assert lines[1] == "alpha,1.4,0.250000,0.531250,ok"
        assert lines[2] == "skip_noise_addition,on,0.500000,1.000000,ok"
        assert lines[3] == "skip_noise_addition,off,0.500000,1.000000,ok"
        assert lines[4] == "noise_color,infrared,,,error: bad; very bad"
        assert all(len(line.split(",")) == 5 for line in lines)


def _entries(*ids_labels):
    return [
        ManifestEntry(utt, f"/x/{utt}.wav", label, "-" if label == "bonafide" else "A01")
        for utt, label in ids_labels
    ]


class TestJoinScores:
    def test_superset_rows_allowed(self):
        entries = _entries(("U1", "bonafide"), ("U2", "spoof"))
        rows = [
            ("U1", None, None, 0.5),
            ("U2", None, None, -0.5),
            ("U3", None, None, 0.0),
        ]
        records, n_extra = join_scores(entries, rows)
        assert [r.utterance_id for r in records] == ["U1", "U2"]
        assert records[0].score == 0.5
        assert n_extra == 1

    def test_missing_manifest_id(self):
        entries = _entries(("U1", "bonafide"), ("U2", "spoof"))
        with pytest.raises(MissingIdError, match="U2"):
            join_scores(entries, [("U1", None, None, 0.5)])

    def test_label_conflict(self):
        entries = _entries(("U1", "bonafide"))
        rows = [("U1", "A01", "spoof", 0.5)]
        with pytest.raises(ScoreFileError, match="conflict"):
            join_scores(entries, rows)

    def test_matching_labels_accepted(self):
        entries = _entries(("U1", "bonafide"))
        rows = [("U1", "-", "bonafide", 0.5)]
        records, _ = join_scores(entries, rows)
        assert records[0].label == "bonafide"

    def test_duplicate_row_id(self):
        entries = _entries(("U1", "bonafide"))
        rows = [("U1", None, None, 0.5), ("U1", None, None, 0.6)]
        with pytest.raises(ScoreFileError, match="duplicate"):
            join_scores(entries, rows)

    def test_polarity_flip(self):
        entries = _entries(("U1", "bonafide"))
        records, _ = join_scores(entries, [("U1", None, None, 0.5)], polarity_flip=True)
        assert records[0].score == -0.5


class TestLoadTdcfParams:
    def test_packaged_defaults(self):
        params = load_tdcf_params()
        assert params.p_target == pytest.approx(0.9405)
        assert params.p_nontarget == pytest.approx(0.0095)
        assert params.p_spoof == pytest.approx(0.05)
        assert params.c_miss == 1.0
        assert params.c_fa == 10.0
        assert params.c_fa_spoof == 10.0

    def test_underscore_keys_ignored(self, tmp_path):
        doc = {
            "_comment": "x",
            "p_target": 0.5, "p_nontarget": 0.25, "p_spoof": 0.25,
            "c_miss": 1, "c_fa": 1, "c_fa_spoof": 1,
            "asv_pmiss": 0.0, "asv_pfa": 0.0, "asv_pmiss_spoof": 0.0,
        }
        p = tmp_path / "params.json"
        p.write_text(json.dumps(doc))
        assert load_tdcf_params(str(p)).p_target == 0.5

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "params.json"
        p.write_text('{"p_target": 0.5, "bogus": 1}')
        with pytest.raises(ConfigError, match="bogus"):
            load_tdcf_params(str(p))

    def test_missing_keys_rejected(self, tmp_path):
        p = tmp_path / "params.json"
        p.write_text('{"p_target": 0.5}')
        with pytest.raises(ConfigError, match="missing"):
            load_tdcf_params(str(p))

    def test_invalid_json_rejected(self, tmp_path):
        p = tmp_path / "params.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError):
            load_tdcf_params(str(p))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_tdcf_params(str(tmp_path / "absent.json"))

    def test_invalid_values_rejected(self, tmp_path):
        doc = {
            "p_target": 0.9, "p_nontarget": 0.9, "p_spoof": 0.9,
            "c_miss": 1, "c_fa": 1, "c_fa_spoof": 1,
            "asv_pmiss": 0.0, "asv_pfa": 0.0, "asv_pmiss_spoof": 0.0,
        }
        p = tmp_path / "params.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ConfigError):
            load_tdcf_params(str(p))
