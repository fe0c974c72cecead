"""End-to-end CLI coverage driven through main(argv)."""

import json
import os

import numpy as np
import pytest

from spoofamp.audio import read_wav
from spoofamp.cli import main
from spoofamp.config import PipelineConfig
from spoofamp.errors import ConfigError
from spoofamp.metrics import parse_score_file


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Workspace with a synthesized corpus, a processed run, a fitted model,
    and a score file, all built through the CLI."""
    root = tmp_path_factory.mktemp("cli")
    corpus = str(root / "corpus")
    rc = main([
        "synth", "--out-dir", corpus, "--n-bonafide", "3", "--n-spoof", "3",
        "--duration", "0.5", "--seed", "11",
    ])
    assert rc == 0
    manifest = os.path.join(corpus, "manifest.tsv")

    config_path = str(root / "config.json")
    with open(config_path, "w") as f:
        json.dump({"crop_seconds": 0.5, "global_seed": 99}, f)

    processed = str(root / "processed")
    rc = main([
        "process", "--config", config_path, "--manifest", manifest,
        "--out-dir", processed,
    ])
    assert rc == 0

    model = str(root / "model.json")
    rc = main([
        "fit", "--manifest", manifest, "--audio-dir", processed,
        "--n-bands", "4", "--out-model", model,
    ])
    assert rc == 0

    scores = str(root / "scores.txt")
    rc = main([
        "score", "--model", model, "--manifest", manifest,
        "--audio-dir", processed, "--out-scores", scores,
    ])
    assert rc == 0

    return {
        "root": root,
        "corpus": corpus,
        "manifest": manifest,
        "config": config_path,
        "processed": processed,
        "model": model,
        "scores": scores,
    }


class TestSignalCommands:
    def test_gen_noise(self, tmp_path, capsys):
        out = str(tmp_path / "noise.wav")
        rc = main([
            "gen-noise", "--color", "pink", "--seconds", "0.5",
            "--seed", "3", "--out", out,
        ])
        assert rc == 0
        w = read_wav(out)
        assert len(w) == 8000
        assert "pink" in capsys.readouterr().out

    def test_gen_noise_bad_color_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as e:
            main(["gen-noise", "--color", "infrared", "--seconds", "1",
                  "--out", str(tmp_path / "x.wav")])
        assert e.value.code == 2

    def test_mix(self, ws, tmp_path):
        src = os.path.join(ws["corpus"], "SYN_B_0000.wav")
        out = str(tmp_path / "mixed.wav")
        rc = main(["mix", "--in", src, "--snr-db", "10", "--out", out])
        assert rc == 0
        assert len(read_wav(out)) == len(read_wav(src))

    def test_extract_and_amplify_roundtrip(self, ws, tmp_path, capsys):
        # enhanced == input: unit projection weight, zero residual, so
        # amplification returns the input unchanged
        src = os.path.join(ws["corpus"], "SYN_B_0000.wav")
        residual = str(tmp_path / "residual.wav")
        rc = main(["extract", "--in", src, "--enhanced", src, "--out", residual])
        assert rc == 0
        assert "projection_weight=1.0" in capsys.readouterr().out
        assert np.all(read_wav(residual).samples == 0.0)

        out = str(tmp_path / "amplified.wav")
        rc = main(["amplify", "--in", src, "--residual", residual,
                   "--alpha", "1.4", "--out", out])
        assert rc == 0
        assert np.array_equal(read_wav(out).samples, read_wav(src).samples)

    def test_extract_mismatched_lengths_runtime_error(self, ws, tmp_path, capsys):
        src = os.path.join(ws["corpus"], "SYN_B_0000.wav")
        short = str(tmp_path / "short.wav")
        main(["gen-noise", "--color", "white", "--seconds", "0.25", "--out", short])
        rc = main(["extract", "--in", src, "--enhanced", short,
                   "--out", str(tmp_path / "r.wav")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestProcess:
    def test_outputs(self, ws):
        files = os.listdir(ws["processed"])
        assert "run_log.json" in files
        assert sum(1 for f in files if f.endswith(".wav")) == 6

    def test_parallelism_override_identical_log(self, ws, tmp_path):
        out = str(tmp_path / "p4")
        rc = main([
            "process", "--config", ws["config"], "--manifest", ws["manifest"],
            "--out-dir", out, "--parallelism", "4",
        ])
        assert rc == 0
        with open(os.path.join(ws["processed"], "run_log.json"), "rb") as a:
            with open(os.path.join(out, "run_log.json"), "rb") as b:
                assert a.read() == b.read()

    def test_partial_failure_exit_code(self, ws, tmp_path, capsys):
        # a manifest line pointing at a missing file fails that utterance only
        from spoofamp.manifest import load_manifest

        manifest = str(tmp_path / "broken.tsv")
        lines = [
            f"{e.utterance_id}\t{e.path}\t{e.label}\t{e.attack_id}"
            for e in load_manifest(ws["manifest"])
        ]
        lines.append("SYN_X_9999\tmissing.wav\tbonafide\t-")
        with open(manifest, "w") as f:
            f.write("\n".join(lines) + "\n")
        rc = main([
            "process", "--config", ws["config"], "--manifest", manifest,
            "--out-dir", str(tmp_path / "out"),
        ])
        assert rc == 1
        assert "1 failed" in capsys.readouterr().out

    def test_bad_config_usage_error(self, ws, tmp_path, capsys):
        bad = str(tmp_path / "bad.json")
        with open(bad, "w") as f:
            f.write('{"alpa": 1.0}')
        rc = main([
            "process", "--config", bad, "--manifest", ws["manifest"],
            "--out-dir", str(tmp_path / "out"),
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fields",
        [
            {"enhancer_params": {"floor": "abc"}},
            {"enhancer_params": {"flor": 0.5}},
            {"enhancer_params": {"floor": float("nan")}},
            {"enhancer": "external"},
        ],
        ids=["non_number", "unknown_key", "nan", "external_without_command"],
    )
    def test_bad_enhancer_params_usage_error(self, ws, tmp_path, capsys, fields):
        with pytest.raises(ConfigError):
            PipelineConfig(**fields)
        bad = str(tmp_path / "bad.json")
        with open(bad, "w") as f:
            json.dump(fields, f)
        out = tmp_path / "out"
        rc = main([
            "process", "--config", bad, "--manifest", ws["manifest"], "--out-dir", str(out),
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert not (out / "run_log.json").exists()


class TestFitScore:
    def test_model_file_written(self, ws):
        with open(ws["model"]) as f:
            doc = json.load(f)
        assert doc["format"] == "spoofamp-gaussian-model"
        assert doc["feature_config"]["n_bands"] == 4

    def test_score_file_carries_run_hash(self, ws):
        parsed = parse_score_file(ws["scores"])
        assert len(parsed.rows) == 6
        with open(os.path.join(ws["processed"], "run_log.json")) as f:
            assert parsed.config_hash == json.load(f)["config_hash"]

    def test_fit_single_class_runtime_error(self, ws, tmp_path, capsys):
        manifest = str(tmp_path / "bona_only.tsv")
        with open(ws["manifest"]) as f:
            lines = [l for l in f.read().splitlines() if "\tbonafide\t" in l]
        with open(manifest, "w") as f:
            f.write("\n".join(lines) + "\n")
        rc = main([
            "fit", "--manifest", manifest, "--audio-dir", ws["processed"],
            "--n-bands", "4", "--out-model", str(tmp_path / "m.json"),
        ])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestReport:
    def test_report_text(self, ws, capsys):
        rc = main([
            "report", "--manifest", ws["manifest"], "--scores", ws["scores"],
            "--per-attack",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "pooled EER" in out
        assert "min t-DCF" in out
        assert "comb_filter" in out

    def test_csv_out(self, ws, tmp_path):
        csv_path = str(tmp_path / "report.csv")
        rc = main([
            "report", "--manifest", ws["manifest"], "--scores", ws["scores"],
            "--csv-out", csv_path,
        ])
        assert rc == 0
        with open(csv_path) as f:
            assert f.readline().strip() == "scope,metric,value"

    def _split_score_files(self, ws, tmp_path, hash_b):
        with open(ws["scores"]) as f:
            lines = [l for l in f.read().splitlines() if not l.startswith("#")]
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("# config_hash=aaaa\n" + "\n".join(lines[:3]) + "\n")
        b.write_text(f"# config_hash={hash_b}\n" + "\n".join(lines[3:]) + "\n")
        return str(a), str(b)

    def test_merge_conflicting_hashes_refused(self, ws, tmp_path, capsys):
        a, b = self._split_score_files(ws, tmp_path, "bbbb")
        rc = main(["report", "--manifest", ws["manifest"], "--scores", a, b])
        assert rc == 2
        assert "--force" in capsys.readouterr().err

    def test_merge_forced(self, ws, tmp_path, capsys):
        a, b = self._split_score_files(ws, tmp_path, "bbbb")
        rc = main(["report", "--manifest", ws["manifest"], "--scores", a, b, "--force"])
        assert rc == 0
        assert "pooled EER" in capsys.readouterr().out

    def test_merge_same_hash_allowed(self, ws, tmp_path, capsys):
        a, b = self._split_score_files(ws, tmp_path, "aaaa")
        rc = main(["report", "--manifest", ws["manifest"], "--scores", a, b])
        assert rc == 0
        assert "pooled EER" in capsys.readouterr().out


class TestMissingInputs:
    def test_process_missing_manifest(self, tmp_path, capsys):
        rc = main([
            "process", "--manifest", str(tmp_path / "nope.tsv"),
            "--out-dir", str(tmp_path / "out"),
        ])
        assert rc == 1
        assert "no such manifest file" in capsys.readouterr().err

    def test_score_missing_model(self, ws, tmp_path, capsys):
        rc = main([
            "score", "--model", str(tmp_path / "nope.json"),
            "--manifest", ws["manifest"], "--out-scores", str(tmp_path / "s.txt"),
        ])
        assert rc == 1
        assert "no such model file" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, match",
        [
            ("{not json", "not valid JSON"),
            ('{"format": "spoofamp-gaussian-model", "version": 1}', "classes"),
        ],
        ids=["invalid_json", "no_classes"],
    )
    def test_score_malformed_model_runtime_error(self, ws, tmp_path, capsys, text, match):
        model = tmp_path / "model.json"
        model.write_text(text)
        rc = main([
            "score", "--model", str(model),
            "--manifest", ws["manifest"], "--out-scores", str(tmp_path / "s.txt"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert match in err

    def test_report_missing_scores(self, ws, tmp_path, capsys):
        rc = main([
            "report", "--manifest", ws["manifest"],
            "--scores", str(tmp_path / "nope.txt"),
        ])
        assert rc == 1
        assert "no such score file" in capsys.readouterr().err

    def test_report_unwritable_csv_out(self, ws, tmp_path, capsys):
        rc = main([
            "report", "--manifest", ws["manifest"], "--scores", ws["scores"],
            "--csv-out", str(tmp_path / "missing" / "report.csv"),
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")


class TestSynthSplit:
    def test_split_corpora(self, tmp_path, capsys):
        out = str(tmp_path / "splits")
        rc = main([
            "synth", "--out-dir", out, "--n-bonafide", "2", "--n-spoof", "2",
            "--duration", "0.25", "--seed", "5", "--split",
        ])
        assert rc == 0
        train = os.listdir(os.path.join(out, "train"))
        eval_ = os.listdir(os.path.join(out, "eval"))
        assert "SYNTR_B_0000.wav" in train
        assert "SYNEV_S_0001.wav" in eval_
        # split corpora draw different seeds, so content differs
        with open(os.path.join(out, "train", "SYNTR_B_0000.wav"), "rb") as a:
            wa = a.read()
        with open(os.path.join(out, "eval", "SYNEV_B_0000.wav"), "rb") as b:
            wb = b.read()
        assert wa != wb


class TestSweepCommand:
    def test_alpha_sweep_csv(self, tmp_path, capsys):
        out_dir = str(tmp_path / "splits")
        main([
            "synth", "--out-dir", out_dir, "--n-bonafide", "2", "--n-spoof", "2",
            "--duration", "0.5", "--seed", "6", "--split",
        ])
        capsys.readouterr()  # drain the synth chatter
        config_path = str(tmp_path / "config.json")
        with open(config_path, "w") as f:
            json.dump({"crop_seconds": 0.5, "global_seed": 42}, f)
        csv_path = str(tmp_path / "sweep.csv")
        rc = main([
            "sweep", "--config", config_path,
            "--train-manifest", os.path.join(out_dir, "train", "manifest.tsv"),
            "--eval-manifest", os.path.join(out_dir, "eval", "manifest.tsv"),
            "--axis", "alpha", "--values", "0.0,1.4",
            "--n-bands", "4", "--out", csv_path,
        ])
        assert rc == 0
        with open(csv_path) as f:
            lines = f.read().strip().split("\n")
        assert lines[0] == "axis,value,eer,min_tdcf,status"
        assert len(lines) == 3
        assert all(line.endswith(",ok") for line in lines[1:])
        assert capsys.readouterr().out.startswith("axis,value")

    def test_bad_axis_value_usage_error(self, tmp_path, capsys):
        rc = main([
            "sweep",
            "--train-manifest", "x.tsv", "--eval-manifest", "y.tsv",
            "--axis", "alpha", "--values", "zero",
            "--out", str(tmp_path / "s.csv"),
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
