"""Batch pipeline runs, sweeps, and score joining."""

import ast
import importlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc

import numpy as np
import pytest

from spoofamp import amplify as amplify_module
from spoofamp import noise as noise_module
from spoofamp import pipeline
from spoofamp.audio import Waveform, crop_or_pad, read_wav, write_wav
from spoofamp.config import PipelineConfig, config_hash, derive_seed
from spoofamp.errors import (
    ConfigError,
    DegenerateSignalError,
    ManifestError,
    ScoreFileError,
    StageError,
    TrainingDataError,
    UnwritablePathError,
)
from spoofamp.manifest import ManifestEntry, load_manifest, write_manifest
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
from spoofamp.enhance import EnhancerKind
from spoofamp.synth import SynthSpec, synth_corpus

from conftest import make_speechlike, write_minimal_wav

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


def _bytes(path):
    with open(path, "rb") as f:
        return f.read()


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("corpus"))
    spec = SynthSpec(n_bonafide=3, n_spoof=3, duration_s=0.5, seed=11)
    entries, manifest_path = synth_corpus(spec, out)
    return entries, manifest_path


class TestRunPipeline:
    def test_runs_the_configs_enhancer(self, corpus, tmp_path, monkeypatch):
        cfg = _config()
        builds = _record_enhancer_builds(monkeypatch)
        calls = _record_chain_calls(monkeypatch)
        result = run_pipeline(cfg, corpus[0], str(tmp_path / "run"))
        assert result.n_ok == len(corpus[0])
        assert builds == []
        assert len(calls) == len(corpus[0])
        assert all(c is cfg and e is cfg._enhancer for c, e in calls)

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

    def test_output_path_is_a_file(self, corpus, tmp_path):
        entries, _ = corpus
        out = tmp_path / "run"
        out.write_text("")
        with pytest.raises(UnwritablePathError, match=f"cannot create output directory {out}"):
            run_pipeline(_config(), entries, str(out))

    def test_repeated_id_refused_before_anything_is_made(self, corpus, tmp_path):
        # copies of one entry would race on one temp file name at parallelism 2
        entries, _ = corpus
        out = tmp_path / "run"
        utt = entries[0].utterance_id
        message = f"{out}: duplicate utterance id {utt!r} in entries 1 and 2"
        with pytest.raises(ManifestError, match=re.escape(message)):
            run_pipeline(_config(parallelism=2), [entries[0]] * 8, str(out))
        assert not out.exists()

    def _copied_corpus(self, corpus, tmp_path):
        entries, _ = corpus
        src = tmp_path / "corpus"
        src.mkdir()
        copied = []
        for e in entries:
            path = src / os.path.basename(e.path)
            shutil.copyfile(e.path, path)
            copied.append(ManifestEntry(e.utterance_id, str(path), e.label, e.attack_id))
        return copied

    def _assert_refused(self, entries, out_dir, victim):
        # nothing is written, removed or made: every input and a previous run's log survive
        before = {e.path: _bytes(e.path) for e in entries if os.path.isfile(e.path)}
        listing = sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else None
        message = f"refusing to overwrite input {victim.path} of {victim.utterance_id!r}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            run_pipeline(_config(parallelism=2), entries, str(out_dir))
        assert {p: _bytes(p) for p in before} == before
        assert (sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else None) == listing

    def test_input_in_its_own_output_slot_refused(self, corpus, tmp_path):
        # process --out-dir <the corpus directory> would replace each input with its output;
        # an entry whose path holds a NUL byte names no file and is passed over
        entries = self._copied_corpus(corpus, tmp_path)
        out = tmp_path / "corpus"
        (out / "run_log.json").write_text("{}")
        nul = ManifestEntry("NUL", str(tmp_path / "x\0y.wav"), "bonafide", "-")
        self._assert_refused([nul] + entries, out, entries[0])
        assert (out / "run_log.json").read_text() == "{}"

    def test_input_another_entry_writes_refused(self, corpus, tmp_path):
        # A reading <out>/B.wav races B's write of it at parallelism 2
        entries = self._copied_corpus(corpus, tmp_path)
        out = tmp_path / "run"
        out.mkdir()
        b = entries[1]
        b_output = out / (b.utterance_id + ".wav")
        shutil.copyfile(b.path, b_output)
        a = ManifestEntry(entries[0].utterance_id, str(b_output), "bonafide", "-")
        self._assert_refused([a] + entries[1:], out, a)
        assert not os.path.exists(out / (a.utterance_id + ".wav"))

    def test_output_name_linked_to_an_input_refused(self, corpus, tmp_path):
        # the writer writes through <out>/B.wav, a symlink, onto B's own input
        entries = self._copied_corpus(corpus, tmp_path)
        out = tmp_path / "run"
        out.mkdir()
        b = entries[1]
        (out / (b.utterance_id + ".wav")).symlink_to(b.path)
        self._assert_refused(entries, out, b)

    @pytest.mark.parametrize("target", ["outside", "another_output"])
    def test_output_name_linked_elsewhere_refused(self, corpus, tmp_path, target):
        # the writer writes through <out>/A.wav onto the file it names, in the run or not
        entries, _ = corpus
        out = tmp_path / "run"
        out.mkdir()
        victim = tmp_path / "victim.wav"
        if target == "another_output":
            victim = out / (entries[1].utterance_id + ".wav")
        victim.write_bytes(b"keep")
        link = out / (entries[0].utterance_id + ".wav")
        link.symlink_to(victim)
        listing = sorted(os.listdir(out))
        message = f"refusing to write {link} through a link to {os.path.realpath(victim)}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            run_pipeline(_config(parallelism=2), entries, str(out))
        assert victim.read_bytes() == b"keep"
        assert sorted(os.listdir(out)) == listing

    def test_id_with_a_nul_byte_refused_before_anything_is_made(self, corpus, tmp_path):
        # such an id names no output file, so it is refused as a manifest would refuse it
        out = tmp_path / "run"
        bad = ManifestEntry("a\0b", corpus[0][0].path, "bonafide", "-")
        with pytest.raises(ManifestError, match=re.escape(f"utterance id {bad.utterance_id!r}")):
            run_pipeline(_config(), [bad], str(out))
        assert not out.exists()

    def test_output_dir_reached_through_a_symlink_refused(self, corpus, tmp_path):
        entries = self._copied_corpus(corpus, tmp_path)
        link = tmp_path / "link"
        link.symlink_to(tmp_path / "corpus")
        self._assert_refused(entries, link, entries[0])
        run_pipeline(_config(), entries, str(tmp_path / "elsewhere"))  # a separate dir runs

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

    def test_unwritable_sample_rate_logged_at_io(self, corpus, tmp_path):
        # the reader takes a 2 GHz header, but its float32 byte rate overflows the writer's
        entries, _ = corpus
        samples = read_wav(entries[0].path).samples
        src = tmp_path / "fast.wav"
        pcm = (samples * 32767).astype("<i2").tobytes()
        write_minimal_wav(src, pcm, fmt_tag=1, bits=16, channels=1, rate=2_000_000_000)
        out = tmp_path / "run"
        entry = ManifestEntry("FAST", str(src), "bonafide", "-")
        result = run_pipeline(_config(crop_seconds=2e-6), [entry], str(out))  # 4000 samples
        assert (result.n_ok, result.n_failed) == (0, 1)
        with open(result.log_path) as f:
            [failed] = json.load(f)["entries"]
        assert failed == {
            "utterance_id": "FAST",
            "status": "failed",
            "stage": "io",
            "error": f"cannot write {out / 'FAST.wav'}: a float32 WAV holds at most "
            "1073741823 Hz, got 2000000000",
        }
        assert os.listdir(out) == ["run_log.json"]  # no WAV, no temp file

    def test_output_beyond_float32_range_logged_at_io(self, corpus, tmp_path):
        # alpha has no upper bound; an output float32 cannot hold fails its write
        entries, _ = corpus
        out = tmp_path / "run"
        result = run_pipeline(_config(alpha=1e40), entries[:1], str(out))
        assert (result.n_ok, result.n_failed) == (0, 1)
        with open(result.log_path) as f:
            [failed] = json.load(f)["entries"]
        assert failed == {
            "utterance_id": entries[0].utterance_id,
            "status": "failed",
            "stage": "io",
            "error": f"cannot write {out / entries[0].utterance_id}.wav: "
            "a sample lies beyond the float32 range",
        }
        assert os.listdir(out) == ["run_log.json"]  # no WAV, no temp file

    def test_memory_does_not_grow_with_corpus(self, tmp_path):
        # only each utterance's log record outlives it, never its waveforms
        path = str(tmp_path / "x.wav")
        write_wav(make_speechlike(seed=5, seconds=0.5), path)

        def peak_bytes(n):
            entries = [ManifestEntry(f"U{i:03d}", path, "bonafide", "-") for i in range(n)]
            tracemalloc.start()
            try:
                result = run_pipeline(_config(), entries, str(tmp_path / f"run{n}"))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert result.n_ok == n
            return peak

        small = peak_bytes(4)
        assert peak_bytes(40) - small < 1 << 20

    def test_enhancer_oserror_logged_at_enhance(self, corpus, tmp_path, monkeypatch):
        entries, _ = corpus
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
        cfg = _config(enhancer="external", enhancer_params={"command": "cp {in} {out}"})
        result = run_pipeline(cfg, entries[:2], str(tmp_path / "run"))
        with open(result.log_path) as f:
            log = json.load(f)
        assert [(r["status"], r["stage"]) for r in log["entries"]] == [("failed", "enhance")] * 2

    def test_external_non_utf8_stderr_does_not_fail(self, corpus, tmp_path):
        entries, _ = corpus
        backend = (
            "import shutil, sys; shutil.copyfile(sys.argv[1], sys.argv[2]); "
            "sys.stderr.buffer.write(bytes([255, 254]))"
        )
        command = f'{sys.executable} -c "{backend}" {{in}} {{out}}'
        cfg = _config(enhancer="external", enhancer_params={"command": command})
        result = run_pipeline(cfg, entries, str(tmp_path / "run"))
        with open(result.log_path) as f:
            log = json.load(f)
        assert [r["status"] for r in log["entries"]] == ["ok"] * len(entries)

    def test_read_oserror_logged_at_io(self, corpus, tmp_path, monkeypatch):
        entries, _ = corpus
        real_read_wav = pipeline.read_wav

        def read_wav_denied(path):
            if path == entries[0].path:
                raise PermissionError(13, "Permission denied", path)
            return real_read_wav(path)

        monkeypatch.setattr(pipeline, "read_wav", read_wav_denied)
        result = run_pipeline(_config(), entries, str(tmp_path / "run"))
        assert (result.n_ok, result.n_failed) == (len(entries) - 1, 1)
        with open(result.log_path) as f:
            log = json.load(f)
        failed = log["entries"][0]
        assert (failed["status"], failed["stage"]) == ("failed", "io")
        assert "Permission denied" in failed["error"]
        assert all(r["status"] == "ok" for r in log["entries"][1:])

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_unexpected_error_fails_only_its_utterance(
        self, corpus, tmp_path, monkeypatch, parallelism
    ):
        # e.g. numpy failing to tile a crop for a WAV header claiming 4 GHz;
        # raised by a stand-in, since a real 30 GiB allocation may succeed
        entries, _ = corpus
        cfg = _config(parallelism=parallelism)
        bad_seed = derive_seed(cfg.global_seed, entries[1].utterance_id, "crop")
        real_crop_or_pad = pipeline.crop_or_pad

        def crop_or_pad_out_of_memory(w, seconds, seed):
            if seed == bad_seed:
                raise MemoryError("Unable to allocate 29.8 GiB")
            return real_crop_or_pad(w, seconds, seed)

        monkeypatch.setattr(pipeline, "crop_or_pad", crop_or_pad_out_of_memory)
        result = run_pipeline(cfg, entries, str(tmp_path / "run"))
        assert (result.n_ok, result.n_failed) == (len(entries) - 1, 1)
        with open(result.log_path) as f:
            records = json.load(f)["entries"]
        failed = records.pop(1)
        assert (failed["status"], failed["stage"]) == ("failed", "io")
        assert failed["error"] == "MemoryError: Unable to allocate 29.8 GiB"
        assert all(r["status"] == "ok" for r in records)

    def test_hash_failure_leaves_no_wavs(self, corpus, tmp_path, monkeypatch):
        # the hash is taken first, so a config that cannot be hashed fails the
        # run before it writes WAVs that no run log describes
        def unhashable(config):
            raise TypeError("Object of type float32 is not JSON serializable")

        monkeypatch.setattr(pipeline, "config_hash", unhashable)
        out = tmp_path / "run"
        with pytest.raises(TypeError):
            run_pipeline(_config(), corpus[0], str(out))
        assert not out.exists()

    def test_aborted_rerun_leaves_no_run_log(self, corpus, tmp_path, monkeypatch):
        # a log left by an earlier run would vouch for the WAVs of this one
        entries, _ = corpus
        out = tmp_path / "run"
        run_pipeline(_config(), entries, str(out))
        assert (out / "run_log.json").exists()

        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(pipeline, "process_utterance_details", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_pipeline(_config(alpha=0.5), entries, str(out))
        assert not (out / "run_log.json").exists()

    def test_log_that_cannot_be_removed_stops_the_run(self, corpus, tmp_path):
        out = tmp_path / "run"
        log = out / "run_log.json"
        log.mkdir(parents=True)
        with pytest.raises(UnwritablePathError, match=re.escape(f"cannot remove {log}: ")):
            run_pipeline(_config(), corpus[0], str(out))
        assert os.listdir(out) == ["run_log.json"]  # and no WAV


_SRC = os.path.dirname(os.path.dirname(os.path.abspath(pipeline.__file__)))
_RUN_IN_CHILD = """
import sys
from spoofamp.config import PipelineConfig
from spoofamp.manifest import load_manifest
from spoofamp.pipeline import run_pipeline
run_pipeline(PipelineConfig(crop_seconds=2.0), load_manifest(sys.argv[1]), sys.argv[2])
"""
# a BLAS call, an einsum (optimize=True can dispatch to BLAS tensordot), or a matrix
# product (a decorator's @ starts its line)
_BLAS_CALL = re.compile(
    r"\bnp\.(?:dot|vdot|inner|matmul|tensordot|einsum|linalg)\b|\.dot\(|[\w)\]]\s*@=?\s*[\w(\[]"
)


class TestBlasThreads:
    def test_output_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # 2 s utterances: 32000-sample inner products are long enough for
        # OpenBLAS to split them over threads
        wav_dir = tmp_path / "wavs"
        wav_dir.mkdir()
        entries = []
        for i, label in enumerate(["bonafide", "bonafide", "spoof", "spoof"]):
            path = str(wav_dir / f"U{i}.wav")
            write_wav(make_speechlike(seed=30 + i, seconds=2.0), path)
            entries.append(ManifestEntry(f"U{i}", path, label, "-"))
        manifest = str(tmp_path / "manifest.tsv")
        write_manifest(manifest, entries)
        outputs = {}
        for threads in ("1", "2"):
            out = tmp_path / f"blas{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
            proc = subprocess.run(
                [sys.executable, "-c", _RUN_IN_CHILD, manifest, str(out)],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            outputs[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert sorted(outputs["1"]) == ["U0.wav", "U1.wav", "U2.wav", "U3.wav", "run_log.json"]
        for name, data in outputs["1"].items():
            assert outputs["2"][name] == data, name

    def test_library_makes_no_blas_call_and_sets_no_thread_count(self):
        samples = (
            "np.dot(a, b)", "x.dot(y)", "a @ b", "m[0] @ v", "np.linalg.norm(x)",
            "np.einsum('k,kn->n', a, s)",
        )
        for sample in samples:
            assert _BLAS_CALL.search(sample), sample
        package = os.path.join(_SRC, "spoofamp")
        hits = []
        for name in sorted(os.listdir(package)):
            if name.endswith(".py"):
                with open(os.path.join(package, name), encoding="utf-8") as f:
                    for lineno, line in enumerate(f, start=1):
                        if _BLAS_CALL.search(line) or "NUM_THREADS" in line:
                            hits.append(f"{name}:{lineno}: {line.strip()}")
        assert hits == []


class TestKilledRun:
    @pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
    def test_killed_process_leaves_only_complete_wavs_and_no_log(self, tmp_path):
        wav_dir = tmp_path / "wavs"
        wav_dir.mkdir()
        rng = np.random.default_rng(0)
        entries = []
        for i in range(48):
            path = str(wav_dir / f"U{i:02d}.wav")
            write_wav(Waveform(0.1 * rng.standard_normal(64000), 16000), path)
            entries.append(ManifestEntry(f"U{i:02d}", path, ("bonafide", "spoof")[i % 2], "-"))
        manifest = str(tmp_path / "manifest.tsv")
        write_manifest(manifest, entries)
        out = tmp_path / "out"
        run_pipeline(_config(alpha=0.5), [], str(out))  # a finished log of another config
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "spoofamp.cli", "process", "--manifest", manifest,
             "--out-dir", str(out), "--parallelism", "1"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 120
            while not any(n.endswith(".wav") for n in os.listdir(out)):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.001)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == -signal.SIGKILL  # killed midway, not finished
        names = os.listdir(out)
        wavs = [n for n in names if n.endswith(".wav")]
        assert 0 < len(wavs) < len(entries)
        for name in wavs:
            assert len(read_wav(str(out / name))) == 64000  # crop_seconds 4 at 16 kHz
        assert "run_log.json" not in names


class TestFileAccess:
    _PACKAGE = os.path.join(_SRC, "spoofamp")

    def _function_lines(self, module, names):
        """(module, lineno) for every line of the named top-level functions."""
        with open(os.path.join(self._PACKAGE, module), encoding="utf-8") as f:
            tree = ast.parse(f.read())
        lines = {
            (module, lineno)
            for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name in names
            for lineno in range(node.lineno, node.end_lineno + 1)
        }
        assert len(lines) > 0
        return lines

    def _hits(self, needles, allowed):
        hits = []
        for name in sorted(os.listdir(self._PACKAGE)):
            if name.endswith(".py"):
                with open(os.path.join(self._PACKAGE, name), encoding="utf-8") as f:
                    for lineno, line in enumerate(f, start=1):
                        if any(n in line for n in needles) and (name, lineno) not in allowed:
                            hits.append(f"{name}:{lineno}: {line.strip()}")
        return hits

    def test_only_the_audio_reader_and_writer_open_files(self):
        # every other module reads, writes, creates and removes through _files,
        # so each I/O failure maps to one SpoofampError
        allowed = self._function_lines(
            "_files.py", ("_read_file", "_write_file", "_make_dir", "_remove_file")
        )
        needles = ("open(", "os.makedirs", "os.replace", "os.remove")
        assert self._hits(needles, allowed) == []

    def test_only_optional_files_are_probed(self):
        # the reader decides that an input is missing; a probe belongs only where a
        # missing file is a valid state: a run's log, a protocol id's .wav and the
        # .flac that fails its manifest at load when no .wav is beside it, and the
        # writer's check for a target that a rename must not replace
        allowed = (
            self._function_lines("pipeline.py", ("_read_run",))
            | self._function_lines("manifest.py", ("_resolve_protocol_path",))
            | self._function_lines("_files.py", ("_write_file",))
        )
        assert self._hits(("os.path.isfile", "os.path.exists"), allowed) == []

    def test_only_pipeline_names_the_run_log(self):
        # pipeline writes a run directory and reads it back; no other module knows its layout
        hits = self._hits(("run_log.json",), set())
        assert hits != []
        assert [h for h in hits if not h.startswith("pipeline.py:")] == []


class TestBenchmarkWiring:
    def test_perfbench_tracer_binds_every_site(self, corpus, tmp_path, monkeypatch):
        # the benchmark traces pipeline's read_wav, crop_or_pad,
        # process_utterance_details and write_wav by those names
        monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "perfbench"))
        tracer = importlib.import_module("tracer")
        entries, _ = corpus
        real_read_wav = pipeline.read_wav
        with tracer.Tracer() as t:
            run_pipeline(_config(), entries, str(tmp_path / "run"))
        called = [span[0] for span in t.spans]
        for name in (
            "audio.read_wav", "audio.crop_or_pad", "amplify.process_utterance_details",
            "audio.write_wav",
        ):
            assert called.count(name) == len(entries), name
        assert pipeline.read_wav is real_read_wav  # the tracer put the bindings back

    def test_perfbench_tracer_sees_one_read_per_sweep_entry(self, corpus, monkeypatch):
        # a sweep reads and crops each entry once and runs every cell on that crop
        monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "perfbench"))
        tracer = importlib.import_module("tracer")
        entries, _ = corpus
        train = entries[:2] + entries[3:5]
        values = [1.0, 2.0, 0.5]
        with tracer.Tracer() as t:
            cells = sweep(
                _config(), train, entries, "alpha", values, UNIT_PARAMS,
                feature_config=FeatureConfig(n_bands=4),
            )
        assert all(c.error is None for c in cells)
        called = [span[0] for span in t.spans]
        n = len(train) + len(entries)
        assert called.count("audio.read_wav") == n
        assert called.count("audio.crop_or_pad") == n
        assert called.count("amplify.process_utterance_details") == n * len(values)
        assert called.count("detector.extract_features") == n * len(values)

    def test_perfbench_tracer_binds_every_synth_site(self, tmp_path, monkeypatch):
        # the benchmark's synth-heavy workload traces synth_utterance,
        # apply_artifact, the pink floor's generate and write_wav by those names
        monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "perfbench"))
        tracer = importlib.import_module("tracer")
        spec = SynthSpec(n_bonafide=2, n_spoof=3, duration_s=0.25, seed=4)
        n = spec.n_bonafide + spec.n_spoof
        with tracer.Tracer() as t:
            synth_corpus(spec, str(tmp_path / "corpus"))
        called = [span[0] for span in t.spans]
        assert called.count("synth.synth_utterance") == n
        assert called.count("audio.write_wav") == n
        assert called.count("noise.generate") >= n
        assert called.count("synth.apply_artifact") == spec.n_spoof
        assert t.waveforms == 2 * n  # the pink floor's and the utterance's own


class TestSweep:
    def test_each_cell_runs_its_configs_enhancer(self, corpus, monkeypatch):
        entries, _ = corpus
        cfg = _config()
        builds = _record_enhancer_builds(monkeypatch)
        calls = _record_chain_calls(monkeypatch)
        cells = sweep(cfg, entries, entries, "alpha", [1.0, 2.0], UNIT_PARAMS,
                      feature_config=FeatureConfig(n_bands=4))
        assert [c.error for c in cells] == [None, None]
        assert len(builds) == 2  # one per value, by its cell config
        n_reads = 2 * len(entries)  # the entries serve as both splits
        assert sorted(c.alpha for c, _ in calls) == [1.0] * n_reads + [2.0] * n_reads
        assert all(e is c._enhancer for c, e in calls)
        assert {id(e) for _, e in calls} == {id(b) for b in builds}

    def test_zero_alpha_cell_matches_raw_baseline(self, corpus):
        entries, _ = corpus
        train = entries[:2] + entries[3:5]  # two per class
        fc = FeatureConfig(n_bands=6)
        cells = sweep(_config(), train, entries, "alpha", [0.0], UNIT_PARAMS, feature_config=fc)
        assert len(cells) == 1
        assert cells[0].error is None
        assert cells[0].eer == _raw_eer(train, entries, fc)

    def test_oracle_clean_cell_matches_raw_baseline(self, corpus):
        # the upper control: x_hat = x, so a zero residual and x_tilde = x to the bit
        entries, _ = corpus
        train = entries[:2] + entries[3:5]
        fc = FeatureConfig(n_bands=4)  # 6 bands separate every cell: all EERs 0
        cells = sweep(_config(), train, entries, "enhancer", ["wiener", "oracle_clean"],
                      UNIT_PARAMS, feature_config=fc)
        assert [c.error for c in cells] == [None, None]
        assert cells[0].eer != _raw_eer(train, entries, fc) == cells[1].eer

    def test_enhancer_cells_match_each_kinds_chain(self, corpus, monkeypatch):
        entries, _ = corpus
        fc = FeatureConfig(n_bands=4)
        kinds = ["wiener", "spectral_subtraction", "identity"]
        got = []

        def features_spy(w, feature_config):
            got.append(extract_features(w, feature_config))
            return got[-1]

        monkeypatch.setattr(pipeline.detector, "extract_features", features_spy)
        cells = sweep(_config(), entries, entries, "enhancer", kinds, UNIT_PARAMS,
                      feature_config=fc)
        assert [(c.axis, c.value, c.error) for c in cells] == [
            ("enhancer", k, None) for k in kinds
        ]
        want = []
        for e in entries + entries:  # train, then eval; the cells inner
            x = crop_or_pad(read_wav(e.path), 0.5, derive_seed(99, e.utterance_id, "crop"))
            noise_seed = derive_seed(99, e.utterance_id, "noise")
            for k in kinds:
                d = amplify_module.process_utterance_details(
                    x, _config(enhancer=k), EnhancerKind(k), noise_seed
                )
                want.append(extract_features(d.x_tilde, fc))
        assert len(got) == len(want)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_enhancer_params_a_kind_refuses_raise_before_any_read(self, corpus, monkeypatch):
        entries, _ = corpus
        reads = _record_reads(monkeypatch)
        message = r"^unknown identity enhancer parameter 'floor'; "
        with pytest.raises(ConfigError, match=message):
            sweep(
                _config(enhancer_params={"floor": 0.1}), entries, entries, "enhancer",
                ["wiener", "identity"], UNIT_PARAMS, feature_config=FeatureConfig(n_bands=4),
            )
        assert reads == []

    def test_include_raw_training_appends_raw_features(self, corpus, monkeypatch):
        entries, _ = corpus
        fc = FeatureConfig(n_bands=4)
        fitted = []

        def fit_spy(features, labels, feature_config):
            fitted.append((list(features), list(labels)))
            return fit(features, labels, feature_config)

        monkeypatch.setattr(pipeline.detector, "fit", fit_spy)
        cells = sweep(
            _config(), entries, entries, "alpha", [1.4], UNIT_PARAMS,
            feature_config=fc, include_raw_training=True,
        )
        assert cells[0].error is None
        [(features, labels)] = fitted
        n = len(entries)
        assert len(features) == 2 * n
        assert labels == [e.label for e in entries] * 2
        raw = [
            extract_features(
                crop_or_pad(read_wav(e.path), 0.5, derive_seed(99, e.utterance_id, "crop")), fc
            )
            for e in entries
        ]
        for got, want in zip(features[n:], raw):
            assert np.array_equal(got, want)

    def test_boolean_axis_runs_both_cells(self, corpus):
        entries, _ = corpus
        cells = sweep(
            _config(), entries, entries, "skip_noise_addition", [False, True],
            UNIT_PARAMS, feature_config=FeatureConfig(n_bands=4),
        )
        assert [c.value for c in cells] == [False, True]
        assert all(c.error is None for c in cells)
        assert all(c.eer is not None and c.min_tdcf is not None for c in cells)

    def test_entries_and_values_may_be_iterators(self, corpus):
        entries, _ = corpus
        cells = sweep(
            _config(), iter(entries), iter(entries), "alpha", iter([1.0, 2.0]),
            UNIT_PARAMS, feature_config=FeatureConfig(n_bands=4),
        )
        assert [(c.value, c.error) for c in cells] == [(1.0, None), (2.0, None)]

    def test_refused_value_raises_before_any_read(self, corpus, monkeypatch):
        # a value the config refuses is refused as the CLI refuses it: before any work
        entries, _ = corpus
        reads = _record_reads(monkeypatch)
        with pytest.raises(ConfigError, match=r"^unknown noise color 'infrared'; "):
            sweep(
                _config(), entries, entries, "noise_color", ["white", "infrared"],
                UNIT_PARAMS, feature_config=FeatureConfig(n_bands=4),
            )
        assert reads == []

    def test_no_values_raise_before_any_read(self, corpus, monkeypatch):
        entries, _ = corpus
        reads = _record_reads(monkeypatch)
        with pytest.raises(ConfigError, match=r"^no sweep values given$"):
            sweep(
                _config(), entries, entries, "alpha", iter([]),
                UNIT_PARAMS, feature_config=FeatureConfig(n_bands=4),
            )
        assert reads == []

    def test_non_number_value_raises_before_any_read(self, corpus, monkeypatch):
        entries, _ = corpus
        reads = _record_reads(monkeypatch)
        with pytest.raises(ConfigError, match=r"^alpha must be finite and >= 0, got high$"):
            sweep(
                _config(), entries, entries, "alpha", ["high", 1.0],
                UNIT_PARAMS, feature_config=FeatureConfig(n_bands=4),
            )
        assert reads == []

    def test_unexpected_error_fails_only_its_cell(self, corpus, monkeypatch):
        entries, _ = corpus
        real_amplify = amplify_module.amplify

        def amplify_out_of_memory(x, a_hat, alpha):
            if alpha == 2.0:
                raise MemoryError("Unable to allocate 29.8 GiB")
            return real_amplify(x, a_hat, alpha)

        monkeypatch.setattr(amplify_module, "amplify", amplify_out_of_memory)
        cells = sweep(
            _config(parallelism=2), entries, entries, "alpha", [2.0, 1.0],
            UNIT_PARAMS, feature_config=FeatureConfig(n_bands=4),
        )
        assert cells[0].error == "stage 'amplify' failed: MemoryError: Unable to allocate 29.8 GiB"
        assert cells[0].eer is None
        assert cells[1].error is None
        assert cells[1].eer is not None

    def test_fault_in_one_utterance_fails_only_its_cell(self, corpus, monkeypatch):
        # SYN_S_0001 comes before SYN_B_0002 in train+eval order, though not by id;
        # which of the two a worker reaches first must not matter
        entries, _ = corpus
        train = entries[:2] + entries[3:5]
        _fault_noise(monkeypatch, {("SYN_B_0002", "pink"), ("SYN_S_0001", "pink")})
        for par in (1, 2):
            cells = sweep(
                _config(parallelism=par), train, entries, "noise_color", ["white", "pink"],
                UNIT_PARAMS, feature_config=FeatureConfig(n_bands=4),
            )
            assert cells[0].error is None
            assert cells[0].eer is not None
            assert cells[1].error == "stage 'noise-gen' failed: no noise for SYN_S_0001"
            assert cells[1].eer is None and cells[1].min_tdcf is None

    def test_same_cells_at_any_parallelism(self, corpus, monkeypatch):
        entries, _ = corpus
        train = entries[:2] + entries[3:5]
        _fault_noise(monkeypatch, {("SYN_B_0002", "pink"), ("SYN_S_0001", "pink")})
        runs = [
            sweep(
                _config(parallelism=par), train, entries, "noise_color",
                ["white", "pink", "violet"], UNIT_PARAMS, feature_config=FeatureConfig(n_bands=4),
            )
            for par in (1, 3)
        ]
        assert [c.error is None for c in runs[0]] == [True, False, True]
        assert runs[0] == runs[1]
        assert sweep_csv_text(runs[0]).encode() == sweep_csv_text(runs[1]).encode()

    def test_training_fault_raises_before_any_read(self, corpus, monkeypatch):
        # one bona fide train entry: the fit would refuse it, so no chain runs
        entries, _ = corpus
        train = entries[:1] + entries[3:]
        reads = _record_reads(monkeypatch)
        with pytest.raises(
            TrainingDataError, match=r"^class 'bonafide' has 1 examples; need at least 2$"
        ):
            sweep(
                _config(), train, entries, "alpha", [1.0, 2.0], UNIT_PARAMS,
                feature_config=FeatureConfig(n_bands=4),
            )
        assert reads == []

    def test_raw_training_doubles_the_labels_checked(self, corpus, monkeypatch):
        # the fit sees each train label twice under include_raw_training, so
        # one bona fide train entry is enough
        entries, _ = corpus
        train = entries[:1] + entries[3:]
        reads = _record_reads(monkeypatch)
        cells = sweep(
            _config(), train, entries, "alpha", [1.0], UNIT_PARAMS,
            feature_config=FeatureConfig(n_bands=4), include_raw_training=True,
        )
        assert [c.error for c in cells] == [None]
        assert len(reads) == len(train) + len(entries)

    def test_one_class_eval_raises_before_any_read(self, corpus, monkeypatch):
        # EER and min t-DCF need both classes, and the eval labels are known up front
        entries, _ = corpus
        bona = [e for e in entries if e.label == "bonafide"]
        reads = _record_reads(monkeypatch)
        with pytest.raises(
            DegenerateSignalError, match=r"^need both classes, got 3 bonafide and 0 spoof$"
        ):
            sweep(
                _config(), entries, bona, "alpha", [1.0, 2.0, 3.0], UNIT_PARAMS,
                feature_config=FeatureConfig(n_bands=4),
            )
        assert reads == []

    def test_raw_feature_fault_fails_every_cell(self, corpus):
        # a 0.02 s crop (320 samples) is too short for a 512-sample feature frame,
        # the crop's own features under include_raw_training included
        entries, _ = corpus
        cells = sweep(
            _config(crop_seconds=0.02), entries, entries, "alpha", [1.0, 2.0], UNIT_PARAMS,
            include_raw_training=True,
        )
        error = "input too short for features: 320 < 512 samples"
        assert [(c.value, c.eer, c.min_tdcf, c.error) for c in cells] == [
            (1.0, None, None, error), (2.0, None, None, error)
        ]

    def test_scoring_fault_fails_only_its_cell(self, corpus, monkeypatch, caplog):
        # a fault after the features, in fit, score or the metrics, fails only its cell
        entries, _ = corpus
        real_min_tdcf = pipeline.metrics.min_tdcf
        calls = []

        def min_tdcf_once_degenerate(records, params):
            calls.append(len(records))
            if len(calls) == 1:
                raise DegenerateSignalError("score for 'SYN_B_0000' is not finite: nan")
            return real_min_tdcf(records, params)

        monkeypatch.setattr(pipeline.metrics, "min_tdcf", min_tdcf_once_degenerate)
        with caplog.at_level("WARNING", logger="spoofamp.pipeline"):
            cells = sweep(
                _config(), entries, entries, "alpha", [1.0, 2.0, 3.0], UNIT_PARAMS,
                feature_config=FeatureConfig(n_bands=4),
            )
        assert [c.error for c in cells] == [
            "score for 'SYN_B_0000' is not finite: nan", None, None
        ]
        assert cells[0].eer is None and cells[0].min_tdcf is None
        assert all(c.eer is not None and c.min_tdcf is not None for c in cells[1:])
        assert caplog.messages == [
            "sweep cell alpha=1.0 failed: score for 'SYN_B_0000' is not finite: nan"
        ]

    def test_load_fault_is_a_stage_error(self, corpus, monkeypatch):
        # each entry is loaded once, by the worker that then runs every cell on
        # it; a failed load fails the sweep, not a cell; raised by a stand-in
        entries, _ = corpus

        def crop_out_of_memory(w, target_seconds, rng_seed):
            raise MemoryError("Unable to allocate 29.8 GiB")

        monkeypatch.setattr(pipeline, "crop_or_pad", crop_out_of_memory)
        with pytest.raises(StageError) as e:
            sweep(_config(), entries, entries, "alpha", [1.0], UNIT_PARAMS)
        assert str(e.value) == "stage 'io' failed: MemoryError: Unable to allocate 29.8 GiB"

    def test_load_fault_stops_the_entries_not_started(self, corpus, monkeypatch):
        # the first entry's read fails; the pool's map cancels the entries no
        # worker has started, so the sweep raises without running every cell
        # on the other entries first
        entries, _ = corpus
        real_read_wav = pipeline.read_wav
        chains = []

        def read_wav(path):
            if path == entries[0].path:
                raise MemoryError("Unable to allocate 29.8 GiB")
            return real_read_wav(path)

        def chain(x, cfg, enhancer, noise_seed):
            chains.append(noise_seed)
            time.sleep(0.05)
            return amplify_module.process_utterance_details(x, cfg, enhancer, noise_seed)

        monkeypatch.setattr(pipeline, "read_wav", read_wav)
        monkeypatch.setattr(pipeline, "process_utterance_details", chain)
        with pytest.raises(StageError, match="stage 'io' failed"):
            sweep(_config(), entries * 4, entries, "alpha", [1.0, 2.0], UNIT_PARAMS)
        assert len(chains) < 2 * 4  # at most the entries a worker had started

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


def _raw_eer(train, eval_, fc):
    """EER of a detector fit and scored on the raw crops, as _config crops them."""

    def features(es):
        return [
            extract_features(
                crop_or_pad(read_wav(e.path), 0.5, derive_seed(99, e.utterance_id, "crop")), fc
            )
            for e in es
        ]

    model = fit(features(train), [e.label for e in train], fc)
    return eer([
        ScoreRecord(e.utterance_id, e.label, e.attack_id, score(model, f))
        for e, f in zip(eval_, features(eval_))
    ])


def _record_reads(monkeypatch):
    """The paths pipeline.read_wav is asked for, recorded by a stand-in that reads them."""
    reads = []

    def read_wav_spy(path):
        reads.append(path)
        return read_wav(path)

    monkeypatch.setattr(pipeline, "read_wav", read_wav_spy)
    return reads


def _record_enhancer_builds(monkeypatch):
    """The EnhancerKinds built from now on, recorded as each is checked."""
    builds = []
    real_post_init = EnhancerKind.__post_init__

    def post_init(self):
        builds.append(self)
        real_post_init(self)

    monkeypatch.setattr(EnhancerKind, "__post_init__", post_init)
    return builds


def _record_chain_calls(monkeypatch):
    """(config, enhancer) of every pipeline.process_utterance_details call."""
    calls = []
    real = pipeline.process_utterance_details

    def spy(x, config, enhancer, noise_seed):
        calls.append((config, enhancer))
        return real(x, config, enhancer, noise_seed)

    monkeypatch.setattr(pipeline, "process_utterance_details", spy)
    return calls


def _fault_noise(monkeypatch, faults):
    """Make noise generation fail for each (utterance id, noise color) pair in
    faults, telling the utterance by its noise seed under _config's global seed."""
    real_generate = noise_module.generate
    ids = {derive_seed(99, utt, "noise"): utt for utt, _ in faults}

    def generate(color, n, sample_rate, seed):
        utt = ids.get(seed)
        if (utt, color) in faults:
            raise DegenerateSignalError(f"no noise for {utt}")
        return real_generate(color, n, sample_rate, seed)

    monkeypatch.setattr(noise_module, "generate", generate)


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
        with pytest.raises(ScoreFileError, match="U2"):
            join_scores(entries, [("U1", None, None, 0.5)])

    def test_label_conflict(self):
        entries = _entries(("U1", "bonafide"))
        rows = [("U1", "A01", "spoof", 0.5)]
        with pytest.raises(ScoreFileError, match="conflict"):
            join_scores(entries, rows)

    def test_attack_id_conflict(self):
        entries = [ManifestEntry("U1", "/x", "spoof", "A01")]
        message = "attack id conflict for 'U1': manifest says 'A01', merged scores says 'A99'"
        with pytest.raises(ScoreFileError, match=re.escape(message)):
            join_scores(entries, [("U1", "A99", "spoof", 0.5)])

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

    @pytest.mark.parametrize(
        "field, value", [("c_miss", True), ("c_fa", "1")], ids=["bool_cost", "string_cost"]
    )
    def test_field_values_not_coerced(self, tmp_path, field, value):
        with open(os.path.join(_SRC, "spoofamp", "data", "tdcf_default.json")) as f:
            doc = json.load(f)
        doc[field] = value
        p = tmp_path / "params.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=f"params.json: {field} must be finite and >= 0"):
            load_tdcf_params(str(p))

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
