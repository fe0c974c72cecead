"""End-to-end CLI coverage driven through main(argv)."""

import json
import os
import shutil

import numpy as np
import pytest

from spoofamp import pipeline
from spoofamp.audio import read_wav
from spoofamp.cli import build_parser, main
from spoofamp.config import PipelineConfig
from spoofamp.detector import FeatureConfig
from spoofamp.errors import ConfigError, ManifestError, ScoreFileError
from spoofamp.manifest import load_manifest, write_manifest
from spoofamp.metrics import parse_score_file
from spoofamp.synth import SynthSpec

from conftest import write_minimal_wav


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


def _failed_list_id(text):
    """The run log text with its first record failed under a list for an id."""
    log = json.loads(text)
    record = log["entries"][0]
    record.update(status="failed", utterance_id=[record["utterance_id"]])
    return json.dumps(log)


def _manifest_with_missing_file(ws, tmp_path, utterance_id):
    """The workspace manifest plus one line whose audio file does not exist."""
    manifest = str(tmp_path / "broken.tsv")
    lines = [
        f"{e.utterance_id}\t{e.path}\t{e.label}\t{e.attack_id}"
        for e in load_manifest(ws["manifest"])
    ]
    lines.append(f"{utterance_id}\tmissing.wav\tbonafide\t-")
    with open(manifest, "w") as f:
        f.write("\n".join(lines) + "\n")
    return manifest


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

    @pytest.mark.parametrize("command", ["gen-noise", "mix"])
    def test_negative_seed_usage_error(self, ws, tmp_path, capsys, command):
        src = os.path.join(ws["corpus"], "SYN_B_0000.wav")
        args = {"gen-noise": ["--color", "white", "--seconds", "1"], "mix": ["--in", src]}
        out = tmp_path / "x.wav"
        rc = main([command, *args[command], "--seed", "-1", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: noise seed must be >= 0")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["gen-noise", "--color", "white", "--out", "{out}/n.wav"], "--seconds"),
            (["synth", "--n-bonafide", "2", "--n-spoof", "2", "--out-dir", "{out}"], "--duration"),
        ],
        ids=["gen-noise", "synth"],
    )
    def test_non_finite_duration_usage_error(self, tmp_path, capsys, argv, flag, value):
        out = tmp_path / "out"
        rc = main([a.format(out=out) for a in argv] + [flag, value])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"must be finite and positive, got {value}" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, match",
        [
            (["amplify", "--in", "{src}", "--residual", "{src}", "--alpha", "-1"],
             "alpha must be finite and >= 0, got -1.0"),
            (["mix", "--in", "{src}", "--snr-db", "nan"], "snr_db must be finite, got nan"),
            (["gen-noise", "--color", "white", "--seconds", "1", "--sample-rate", "0"],
             "sample_rate must be positive, got 0"),
            (["mix", "--in", "{src}", "--snr-db", "4000"],
             "|snr_db| must be at most 300 dB, got 4000.0"),
            (["gen-noise", "--color", "white", "--seconds", "1e308"],
             "seconds must be at most 86400, got 1e+308"),
        ],
        ids=["amplify_negative_alpha", "mix_nan_snr", "gen_noise_zero_rate", "mix_huge_snr",
             "gen_noise_huge_seconds"],
    )
    def test_bad_parameter_usage_error(self, ws, tmp_path, capsys, argv, match):
        src = os.path.join(ws["corpus"], "SYN_B_0000.wav")
        out = tmp_path / "x.wav"
        rc = main([a.format(src=src) for a in argv] + ["--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {match}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, rc, message",
        [
            (["synth", "--n-bonafide", "1", "--n-spoof", "1", "--duration", "0.0001",
              "--sample-rate", "1073741824", "--out-dir", "{out}"], 2,
             "sample_rate must be at most 1073741823, got 1073741824"),
            (["synth", "--n-bonafide", "1", "--n-spoof", "1", "--duration", "0.00001",
              "--out-dir", "{out}"], 2,
             "duration_s must hold at least 3 samples, got 1e-05"),
            # the same rule as synth's, not the writer's check of a rate read from a file
            (["gen-noise", "--color", "white", "--seconds", "0.0001",
              "--sample-rate", "1073741824", "--out", "{out}"], 2,
             "sample_rate must be at most 1073741823, got 1073741824"),
            (["gen-noise", "--color", "white", "--seconds", "2e-6",
              "--sample-rate", "2000000000", "--out", "{out}"], 2,
             "sample_rate must be at most 1073741823, got 2000000000"),
            (["gen-noise", "--color", "white", "--seconds", "0.00001", "--out", "{out}"], 2,
             "seconds must hold at least 1 sample, got 1e-05"),
        ],
        ids=["synth_rate", "synth_too_short", "gen_noise_rate", "gen_noise_2ghz",
             "gen_noise_too_short"],
    )
    def test_unwritable_rate_or_length_refused_first(self, tmp_path, capsys, monkeypatch, argv,
                                                     rc, message):
        # refused before any directory, file or sample exists
        def no_samples(*args):
            raise AssertionError("noise generated before the check")

        monkeypatch.setattr("spoofamp.cli.generate", no_samples)
        monkeypatch.setattr("spoofamp.synth.generate", no_samples)
        out = tmp_path / "out"
        assert main([a.format(out=out) for a in argv]) == rc
        assert capsys.readouterr().err == f"error: {message.format(out=out)}\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "rate, seconds",
        [(1073741824, 1.0), (2000000000, 1.0), (2**40, 1e-3), (16000, 1e-5), (16000, 3e-5),
         (8000, 1e-9), (1, 0.4)],
    )
    def test_generators_share_one_size_rule(self, tmp_path, capsys, monkeypatch, rate, seconds):
        # SynthSpec and gen-noise refuse the same rate and duration with one
        # message, up to the duration's knob and its floor of samples
        monkeypatch.setattr("spoofamp.cli.generate", lambda *args: pytest.fail("noise made"))
        with pytest.raises(ConfigError) as e:
            SynthSpec(1, 1, duration_s=seconds, sample_rate=rate)
        out = tmp_path / "n.wav"
        rc = main(["gen-noise", "--color", "white", "--seconds", repr(seconds),
                   "--sample-rate", str(rate), "--out", str(out)])
        assert rc == 2
        expected = str(e.value).replace("duration_s", "seconds").replace("3 samples", "1 sample")
        assert capsys.readouterr().err == f"error: {expected}\n"
        assert not out.exists()

    def test_allocation_failure_is_an_error_line(self, tmp_path, capsys, monkeypatch):
        def out_of_memory(*args):
            raise MemoryError("Unable to allocate 1.23 PiB for an array")

        monkeypatch.setattr("spoofamp.cli.generate", out_of_memory)
        out = tmp_path / "x.wav"
        rc = main(["gen-noise", "--color", "white", "--seconds", "1", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: Unable to allocate 1.23 PiB for an array\n"
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["mix", "--in", "{fast}"],
            ["amplify", "--in", "{fast}", "--residual", "{fast}"],
        ],
        ids=["mix", "amplify"],
    )
    def test_unwritable_sample_rate_runtime_error(self, ws, tmp_path, capsys, argv):
        # a 2 GHz WAV reads, but its float32 byte rate does not fit the writer's header
        fast = tmp_path / "fast.wav"
        pcm = read_wav(os.path.join(ws["corpus"], "SYN_B_0000.wav")).samples * 32767
        write_minimal_wav(fast, pcm.astype("<i2").tobytes(), fmt_tag=1, bits=16, channels=1,
                          rate=2_000_000_000)
        out = tmp_path / "x.wav"
        rc = main([a.format(fast=fast) for a in argv] + ["--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: cannot write {out}: a float32 WAV holds at most 1073741823 Hz, "
            "got 2000000000\n"
        )
        assert os.listdir(tmp_path) == ["fast.wav"]  # no output, no temp file

    def test_amplified_beyond_float32_range_runtime_error(self, ws, tmp_path, capsys):
        # no upper bound on alpha: 1e40 times the input exceeds float32, which read_wav refuses
        src = os.path.join(ws["corpus"], "SYN_B_0000.wav")
        out = tmp_path / "x.wav"
        rc = main(["amplify", "--in", src, "--residual", src, "--alpha", "1e40",
                   "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: cannot write {out}: a sample lies beyond the float32 range\n"
        )
        assert os.listdir(tmp_path) == []  # no output, no temp file

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
        manifest = _manifest_with_missing_file(ws, tmp_path, "SYN_X_9999")
        rc = main([
            "process", "--config", ws["config"], "--manifest", manifest,
            "--out-dir", str(tmp_path / "out"),
        ])
        assert rc == 1
        assert "1 failed" in capsys.readouterr().out

    def test_out_dir_holding_the_inputs_usage_error(self, tmp_path, capsys):
        # process --out-dir <corpus> would replace every input WAV with its output
        corpus = str(tmp_path / "corpus")
        assert main(["synth", "--out-dir", corpus, "--n-bonafide", "1", "--n-spoof", "1",
                     "--duration", "0.5"]) == 0
        names = sorted(os.listdir(corpus))
        before = {n: (tmp_path / "corpus" / n).read_bytes() for n in names}
        capsys.readouterr()
        rc = main(["process", "--manifest", os.path.join(corpus, "manifest.tsv"),
                   "--out-dir", corpus])
        assert rc == 2
        wav = os.path.join(corpus, "SYN_B_0000.wav")
        assert capsys.readouterr().err == (
            f"error: refusing to overwrite input {wav} of 'SYN_B_0000'\n"
        )
        assert {n: (tmp_path / "corpus" / n).read_bytes() for n in os.listdir(corpus)} == before

    def test_out_dir_linking_outside_the_run_usage_error(self, ws, tmp_path, capsys):
        # a symlink <out-dir>/<id>.wav would have the output written onto the file it names
        out = tmp_path / "out"
        out.mkdir()
        victim = tmp_path / "victim.wav"
        victim.write_bytes(b"keep")
        link = out / "SYN_B_0000.wav"
        link.symlink_to(victim)
        rc = main(["process", "--config", ws["config"], "--manifest", ws["manifest"],
                   "--out-dir", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: refusing to write {link} through a link to {os.path.realpath(victim)}\n"
        )
        assert victim.read_bytes() == b"keep"
        assert os.listdir(out) == [link.name]

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
            {"enhancer": "external", "enhancer_params": {"command": "cp a b"}},
            {"enhancer": "external", "enhancer_params": {"command": "cp '{in} {out}"}},
        ],
        ids=[
            "non_number", "unknown_key", "nan", "external_without_command",
            "external_without_placeholders", "external_unsplittable",
        ],
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
        assert not list(out.rglob("*.wav"))

    @pytest.mark.parametrize(
        "fields",
        [
            {"snr_db": float("nan")},
            {"noise_color": "brown"},
            {"alpha": -1},
            {"extraction_mode": "orthogonal"},
            {"crop_seconds": 0},
        ],
        ids=["snr_db", "noise_color", "alpha", "extraction_mode", "crop_seconds"],
    )
    def test_bad_knob_usage_error(self, ws, tmp_path, capsys, fields):
        bad = str(tmp_path / "bad.json")
        with open(bad, "w") as f:
            json.dump(fields, f)
        out = tmp_path / "out"
        rc = main([
            "process", "--config", bad, "--manifest", ws["manifest"], "--out-dir", str(out),
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (out / "run_log.json").exists()

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"crop_seconds": 0}, "crop_seconds must be finite and positive, got 0"),
            ({"enhancer": "external",
              "enhancer_params": {"command": "cp {in} {out}", "timeout_s": 0}},
             "timeout_s must be finite and positive, got 0.0"),
        ],
        ids=["crop_seconds", "timeout_s"],
    )
    def test_bad_duration_names_its_knob(self, ws, tmp_path, capsys, fields, message):
        bad = str(tmp_path / "bad.json")
        with open(bad, "w") as f:
            json.dump(fields, f)
        out = tmp_path / "out"
        rc = main([
            "process", "--config", bad, "--manifest", ws["manifest"], "--out-dir", str(out),
        ])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_non_number_knob_names_its_rule(self, ws, tmp_path, capsys):
        bad = str(tmp_path / "bad.json")
        with open(bad, "w") as f:
            json.dump({"alpha": "high"}, f)
        out = tmp_path / "out"
        rc = main([
            "process", "--config", bad, "--manifest", ws["manifest"], "--out-dir", str(out),
        ])
        assert rc == 2
        assert capsys.readouterr().err == "error: alpha must be finite and >= 0, got high\n"
        assert not (out / "run_log.json").exists()

    def test_relative_out_dirs(self, tmp_path, monkeypatch):
        # the README quickstart: synth and process with paths relative to the cwd
        monkeypatch.chdir(tmp_path)
        rc = main([
            "synth", "--out-dir", "corpus", "--n-bonafide", "2", "--n-spoof", "2",
            "--duration", "0.5",
        ])
        assert rc == 0
        with open(os.path.join("corpus", "manifest.tsv")) as f:
            assert f.readline().split("\t")[1] == "SYN_B_0000.wav"
        rc = main([
            "process", "--manifest", os.path.join("corpus", "manifest.tsv"),
            "--out-dir", "amplified",
        ])
        assert rc == 0
        with open(os.path.join("amplified", "run_log.json")) as f:
            log = json.load(f)
        assert log["n_ok"] == 4
        assert all(e["status"] == "ok" for e in log["entries"])


class TestFitScore:
    def test_model_file_written(self, ws):
        with open(ws["model"]) as f:
            doc = json.load(f)
        assert doc["format"] == "spoofamp-gaussian-model"
        assert doc["feature_config"]["n_bands"] == 4

    def test_score_file_carries_run_hash(self, ws):
        rows, chash = parse_score_file(ws["scores"])
        assert len(rows) == 6
        with open(os.path.join(ws["processed"], "run_log.json")) as f:
            assert chash == json.load(f)["config_hash"]

    @pytest.mark.parametrize(
        "damage",
        [
            lambda text: text[: len(text) // 2],
            lambda text: json.dumps({**json.loads(text), "entries": {}}),
            lambda text: json.dumps({**json.loads(text), "config_hash": "ab cd\n# x"}),
            lambda text: json.dumps({**json.loads(text), "config_hash": 12345}),
            _failed_list_id,
        ],
        ids=["truncated", "entries_not_a_list", "bad_hash", "numeric_hash", "list_id"],
    )
    def test_unparsable_run_log_usage_error(self, ws, tmp_path, capsys, damage):
        audio = tmp_path / "audio"
        shutil.copytree(ws["processed"], audio)
        log_text = (audio / "run_log.json").read_text()
        (audio / "run_log.json").write_text(damage(log_text))
        scores = tmp_path / "scores.txt"
        argv = [
            "score", "--model", ws["model"], "--manifest", ws["manifest"],
            "--audio-dir", str(audio), "--out-scores", str(scores),
        ]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: run log ")
        assert not scores.exists()
        # with no run log at all the scores are written without a hash
        (audio / "run_log.json").unlink()
        assert main(argv) == 0
        assert parse_score_file(str(scores))[1] is None

    def test_failed_utterances_skipped(self, ws, tmp_path, capsys):
        manifest = _manifest_with_missing_file(ws, tmp_path, "BAD")
        amp = str(tmp_path / "amp")
        rc = main(["process", "--config", ws["config"], "--manifest", manifest, "--out-dir", amp])
        assert rc == 1
        model = str(tmp_path / "model.json")
        fit_argv = [
            "fit", "--manifest", manifest, "--audio-dir", amp, "--n-bands", "4",
            "--out-model", model,
        ]
        assert main(fit_argv) == 0
        out = capsys.readouterr().out
        assert "skipped 1 of 7 utterances" in out
        assert "fitted on 6 utterances" in out
        scores = str(tmp_path / "scores.txt")
        rc = main([
            "score", "--model", model, "--manifest", manifest, "--audio-dir", amp,
            "--out-scores", scores,
        ])
        assert rc == 0
        rows, chash = parse_score_file(scores)
        assert len(rows) == 6
        with open(os.path.join(amp, "run_log.json")) as f:
            assert chash == json.load(f)["config_hash"]
        # report still needs a score for every manifest id
        assert main(["report", "--manifest", manifest, "--scores", scores]) == 1
        assert "'BAD'" in capsys.readouterr().err
        # with no run log nothing is skipped, so the missing WAV fails fit
        os.remove(os.path.join(amp, "run_log.json"))
        assert main(fit_argv) == 1
        assert "no such audio file" in capsys.readouterr().err

    @pytest.mark.parametrize("n_bands", ["1", "300"])
    def test_n_bands_out_of_range_usage_error(self, ws, tmp_path, capsys, n_bands):
        model = tmp_path / "m.json"
        rc = main([
            "fit", "--manifest", ws["manifest"], "--audio-dir", ws["processed"],
            "--n-bands", n_bands, "--out-model", str(model),
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: n_bands must be an integer in [2, 257]")
        assert not model.exists()

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

    def test_fit_refuses_labels_before_any_read(self, ws, tmp_path, capsys, monkeypatch):
        entries = load_manifest(ws["manifest"])
        bona = [e for e in entries if e.label == "bonafide"]
        manifest = str(tmp_path / "one_bonafide.tsv")
        write_manifest(manifest, [e for e in entries if e not in bona[1:]])
        reads = []
        monkeypatch.setattr("spoofamp.cli.read_wav", lambda path: reads.append(path))
        model = tmp_path / "m.json"
        rc = main(["fit", "--manifest", manifest, "--n-bands", "4", "--out-model", str(model)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: class 'bonafide' has 1 examples; need at least 2\n"
        )
        assert reads == []
        assert not model.exists()

    @pytest.mark.parametrize(
        "spoof_attack, bona_attack, lineno, shown",
        [("A 01", "", 1, "''"), ("A 01", "-", 4, "'A 01'")],
        ids=["empty_and_spaced", "spaced"],
    )
    def test_attack_id_that_would_split_a_score_line(
        self, ws, tmp_path, capsys, spoof_attack, bona_attack, lineno, shown
    ):
        # such an id once passed fit and score and broke only report, whose
        # reader split the score line into 3 fields
        manifest = str(tmp_path / "m.tsv")
        lines = [
            f"{e.utterance_id}\t{e.path}\t{e.label}\t"
            + (spoof_attack if e.label == "spoof" else bona_attack)
            for e in load_manifest(ws["manifest"])
        ]
        with open(manifest, "w") as f:
            f.write("\n".join(lines) + "\n")
        model, scores = str(tmp_path / "m.json"), str(tmp_path / "s.txt")
        for argv in (
            ["fit", "--manifest", manifest, "--audio-dir", ws["processed"], "--n-bands", "4",
             "--out-model", model],
            ["score", "--model", ws["model"], "--manifest", manifest,
             "--audio-dir", ws["processed"], "--out-scores", scores],
            ["report", "--manifest", manifest, "--scores", ws["scores"]],
        ):
            assert main(argv) == 1
            assert f"{manifest}:{lineno}: attack id {shown}" in capsys.readouterr().err
        assert not os.path.exists(model)
        assert not os.path.exists(scores)


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

    def test_extra_score_id_counted(self, ws, tmp_path, capsys):
        scores = tmp_path / "scores.txt"
        with open(ws["scores"]) as f:
            scores.write_text(f.read() + "EXTRA_0000 0.5\n")
        rc = main(["report", "--manifest", ws["manifest"], "--scores", str(scores)])
        assert rc == 0
        assert "(ignored 1 score ids not in manifest)" in capsys.readouterr().out

    def test_attack_id_conflict_fails(self, ws, tmp_path, capsys):
        with open(ws["scores"]) as f:
            lines = f.read().splitlines()
        i = next(i for i, line in enumerate(lines) if " spoof " in line)
        utt, attack, label, score = lines[i].split()
        lines[i] = f"{utt} A99 {label} {score}"
        scores = tmp_path / "scores.txt"
        scores.write_text("\n".join(lines) + "\n")
        rc = main(["report", "--manifest", ws["manifest"], "--scores", str(scores)])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"attack id conflict for {utt!r}: manifest says {attack!r}" in err

    def _split_score_files(self, ws, tmp_path, hash_b):
        with open(ws["scores"]) as f:
            lines = [l for l in f.read().splitlines() if not l.startswith("#")]
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("# config_hash=aaaaaaaaaaaaaaaa\n" + "\n".join(lines[:3]) + "\n")
        b.write_text(f"# config_hash={hash_b}\n" + "\n".join(lines[3:]) + "\n")
        return str(a), str(b)

    def test_merge_conflicting_hashes_refused(self, ws, tmp_path, capsys):
        a, b = self._split_score_files(ws, tmp_path, "bbbbbbbbbbbbbbbb")
        rc = main(["report", "--manifest", ws["manifest"], "--scores", a, b])
        assert rc == 2
        assert "--force" in capsys.readouterr().err

    def test_merge_forced(self, ws, tmp_path, capsys):
        a, b = self._split_score_files(ws, tmp_path, "bbbbbbbbbbbbbbbb")
        rc = main(["report", "--manifest", ws["manifest"], "--scores", a, b, "--force"])
        assert rc == 0
        assert "pooled EER" in capsys.readouterr().out

    def test_merge_same_hash_allowed(self, ws, tmp_path, capsys):
        a, b = self._split_score_files(ws, tmp_path, "aaaaaaaaaaaaaaaa")
        rc = main(["report", "--manifest", ws["manifest"], "--scores", a, b])
        assert rc == 0
        assert "pooled EER" in capsys.readouterr().out

    def test_concatenated_files_of_two_hashes_refused(self, ws, tmp_path, capsys):
        # cat a.txt b.txt > ab.txt hides the merge from --scores, not from the reader
        a, b = self._split_score_files(ws, tmp_path, "bbbbbbbbbbbbbbbb")
        ab = tmp_path / "ab.txt"
        ab.write_text((tmp_path / "a.txt").read_text() + (tmp_path / "b.txt").read_text())
        rc = main(["report", "--manifest", ws["manifest"], "--scores", str(ab)])
        assert rc == 1
        assert "ab.txt:5: config hash 'bbbbbbbbbbbbbbbb' differs from 'aaaaaaaaaaaaaaaa'" in capsys.readouterr().err


class TestDegenerateTdcf:
    @pytest.mark.parametrize("command", ["sweep", "report"])
    def test_usage_error_before_any_read(self, ws, tmp_path, capsys, monkeypatch, command):
        # c_fa_spoof = 0 zeroes C2, so no threshold has a min t-DCF: the file is refused at load
        defaults = os.path.join(os.path.dirname(pipeline.__file__), "data", "tdcf_default.json")
        with open(defaults) as f:
            doc = json.load(f)
        params = tmp_path / "tdcf.json"
        params.write_text(json.dumps({**doc, "c_fa_spoof": 0}))
        reads = []
        monkeypatch.setattr(pipeline, "read_wav", reads.append)
        csv_path = tmp_path / "s.csv"
        argv = {
            "sweep": [
                "sweep", "--train-manifest", ws["manifest"], "--eval-manifest", ws["manifest"],
                "--axis", "alpha", "--values=0.5,1.0,1.4,2.0", "--out", str(csv_path),
            ],
            "report": ["report", "--manifest", ws["manifest"], "--scores", ws["scores"]],
        }[command]
        assert main(argv + ["--tdcf-params", str(params)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: t-DCF parameter file {params}: ")
        assert "tandem cost coefficients degenerate" in err
        assert reads == []
        assert not csv_path.exists()


class TestMissingInputs:
    def test_process_refuses_an_id_that_escapes_out_dir(self, ws, tmp_path, capsys):
        wav = load_manifest(ws["manifest"])[0].path
        manifest = tmp_path / "m.tsv"
        manifest.write_text(f"../escaped\t{wav}\tbonafide\t-\n")
        rc = main(["process", "--manifest", str(manifest), "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert "utterance id '../escaped' cannot name a file" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["m.tsv"]

    def test_process_refuses_a_flac_corpus_at_load(self, tmp_path, capsys):
        audio = tmp_path / "flac"
        audio.mkdir()
        (audio / "U1.flac").write_bytes(b"fLaC" + b"\x00" * 40)
        protocol = tmp_path / "protocol.txt"
        protocol.write_text("S U1 - - bonafide\n")
        rc = main([
            "process", "--manifest", str(protocol), "--manifest-format", "asvspoof_protocol",
            "--audio-root", str(audio), "--out-dir", str(tmp_path / "out"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {protocol}:1: {audio / 'U1.flac'}: FLAC is not read; "
            "convert the corpus to PCM16 or float32 WAV\n"
        )
        assert sorted(os.listdir(tmp_path)) == ["flac", "protocol.txt"]

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

    @pytest.mark.parametrize(
        "which, reader, error",
        [("manifest", load_manifest, ManifestError), ("scores", parse_score_file, ScoreFileError)],
    )
    def test_non_utf8_input_runtime_error(self, ws, tmp_path, capsys, which, reader, error):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"B0\t\xff.wav\tbonafide\t-\n")
        with pytest.raises(error, match="not UTF-8") as e:
            reader(str(bad))
        assert str(bad) in str(e.value)
        files = {"manifest": ws["manifest"], "scores": ws["scores"], which: str(bad)}
        rc = main(["report", "--manifest", files["manifest"], "--scores", files["scores"]])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(bad) in err

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
        assert capsys.readouterr().err.startswith("error: cannot write ")


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
    def _sweep_lines(self, tmp_path, capsys, axis, values):
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
            "--axis", axis, "--values", values,
            "--n-bands", "4", "--out", csv_path,
        ])
        assert rc == 0
        assert capsys.readouterr().out.startswith("axis,value")
        with open(csv_path) as f:
            lines = f.read().strip().split("\n")
        assert lines[0] == "axis,value,eer,min_tdcf,status"
        assert all(line.endswith(",ok") for line in lines[1:])
        return lines[1:]

    def test_alpha_sweep_csv(self, tmp_path, capsys):
        assert len(self._sweep_lines(tmp_path, capsys, "alpha", "0.0,1.4")) == 2

    def test_on_off_sweep_rows(self, tmp_path, capsys):
        rows = self._sweep_lines(tmp_path, capsys, "skip_noise_addition", "on,off")
        assert [row.split(",")[:2] for row in rows] == [
            ["skip_noise_addition", "on"], ["skip_noise_addition", "off"]
        ]

    def test_enhancer_sweep_rows(self, tmp_path, capsys):
        rows = self._sweep_lines(tmp_path, capsys, "enhancer",
                                 "wiener,spectral_subtraction,identity")
        assert [row.split(",")[:2] for row in rows] == [
            ["enhancer", "wiener"], ["enhancer", "spectral_subtraction"], ["enhancer", "identity"]
        ]

    @pytest.mark.parametrize(
        "axis, values, message",
        [
            ("alpha", "zero", "error: "),
            ("alpha", "-1", "error: "),
            ("alpha", "nan", "error: "),
            ("noise_color", "white,red", "error: "),
            ("skip_noise_addition", "on,maybe", "error: "),
            ("alpha", " , ", "error: no sweep values given"),
            ("enhancer", "wiener,dnn", "error: unknown enhancer 'dnn'"),
        ],
        ids=[
            "alpha-zero", "alpha-negative", "alpha-nan", "noise_color-red", "on_off-maybe",
            "no-values", "enhancer-dnn",
        ],
    )
    def test_bad_axis_value_usage_error(self, tmp_path, capsys, axis, values, message):
        # the manifests do not exist: a bad value is reported before any file is read
        rc = main([
            "sweep",
            "--train-manifest", "x.tsv", "--eval-manifest", "y.tsv",
            "--axis", axis, f"--values={values}",
            "--out", str(tmp_path / "s.csv"),
        ])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    def test_training_fault_runtime_error_before_any_read(
        self, ws, tmp_path, capsys, monkeypatch
    ):
        # one bona fide train entry: the fit would refuse it, so no WAV is read
        entries = load_manifest(ws["manifest"])
        bona = [e for e in entries if e.label == "bonafide"]
        train = tmp_path / "one_bonafide.tsv"
        write_manifest(str(train), [e for e in entries if e not in bona[1:]])
        reads = []
        monkeypatch.setattr(pipeline, "read_wav", lambda path: reads.append(path))
        out = tmp_path / "s.csv"
        rc = main([
            "sweep", "--config", ws["config"], "--train-manifest", str(train),
            "--eval-manifest", ws["manifest"], "--axis", "alpha", "--values", "1.0,2.0",
            "--n-bands", "4", "--out", str(out),
        ])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: class 'bonafide' has 1 examples; need at least 2\n"
        )
        assert reads == []
        assert not out.exists()

    def test_one_class_eval_runtime_error_before_any_read(
        self, ws, tmp_path, capsys, monkeypatch
    ):
        # a bona-fide-only eval split: no cell could have an EER, so no WAV is read
        entries = load_manifest(ws["manifest"])
        eval_ = tmp_path / "bonafide_only.tsv"
        write_manifest(str(eval_), [e for e in entries if e.label == "bonafide"])
        n_bona = sum(e.label == "bonafide" for e in entries)
        reads = []
        monkeypatch.setattr(pipeline, "read_wav", lambda path: reads.append(path))
        out = tmp_path / "s.csv"
        rc = main([
            "sweep", "--config", ws["config"], "--train-manifest", ws["manifest"],
            "--eval-manifest", str(eval_), "--axis", "alpha", "--values", "1.0,2.0",
            "--n-bands", "4", "--out", str(out),
        ])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: need both classes, got {n_bona} bonafide and 0 spoof\n"
        )
        assert reads == []
        assert not out.exists()

    def test_load_fault_runtime_error(self, ws, tmp_path, capsys, monkeypatch):
        def crop_out_of_memory(w, target_seconds, rng_seed):
            raise MemoryError("Unable to allocate 29.8 GiB")

        monkeypatch.setattr(pipeline, "crop_or_pad", crop_out_of_memory)
        rc = main([
            "sweep", "--train-manifest", ws["manifest"], "--eval-manifest", ws["manifest"],
            "--axis", "alpha", "--values", "1.0", "--out", str(tmp_path / "s.csv"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: stage 'io' failed: MemoryError: Unable to allocate 29.8 GiB\n"


def test_parser_defaults_are_the_library_defaults():
    # each default is stated once, by the type that owns the knob
    parser = build_parser()
    required = {
        "amplify": ["--in", "x", "--residual", "r", "--out", "o"],
        "mix": ["--in", "x", "--out", "o"],
        "extract": ["--in", "x", "--enhanced", "e", "--out", "o"],
        "fit": ["--manifest", "m", "--out-model", "o"],
        "sweep": ["--train-manifest", "t", "--eval-manifest", "e", "--axis", "alpha",
                  "--values", "1", "--out", "o"],
        "synth": ["--out-dir", "o", "--n-bonafide", "1", "--n-spoof", "1"],
    }
    args = {name: vars(parser.parse_args([name, *argv])) for name, argv in required.items()}
    assert args["amplify"]["alpha"] == PipelineConfig.alpha
    assert args["mix"]["noise_color"] == PipelineConfig.noise_color
    assert args["mix"]["snr_db"] == PipelineConfig.snr_db
    assert args["extract"]["mode"] == PipelineConfig.extraction_mode
    assert args["fit"]["n_bands"] == args["sweep"]["n_bands"] == FeatureConfig.n_bands
    synth = args["synth"]
    assert synth["duration"] == SynthSpec.duration_s
    assert synth["sample_rate"] == SynthSpec.sample_rate
    assert synth["artifact"] == SynthSpec.artifact_kind
    assert synth["strength"] == SynthSpec.artifact_strength
    assert synth["seed"] == SynthSpec.seed
