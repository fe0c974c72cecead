"""The three closed-loop workloads: one client, one loop, one pass at a time.

Every workload has the same shape: ``setup`` builds its inputs from the seed,
``run_pass`` does one timed pass and returns a PassResult, and ``check``
verifies, outside the timed phase, the outputs of the passes in which nothing
failed. Library functions are always
reached through their module (``audio.read_wav``), never bound by name here,
so the tracer's rebinding sees the benchmark's own calls too.
"""

import hashlib
import importlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

amplify = importlib.import_module("spoofamp.amplify")
audio = importlib.import_module("spoofamp.audio")
config_mod = importlib.import_module("spoofamp.config")
detector = importlib.import_module("spoofamp.detector")
enhance = importlib.import_module("spoofamp.enhance")
errors = importlib.import_module("spoofamp.errors")
manifest = importlib.import_module("spoofamp.manifest")
metrics = importlib.import_module("spoofamp.metrics")
pipeline = importlib.import_module("spoofamp.pipeline")
synth = importlib.import_module("spoofamp.synth")

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Stated tolerances against the committed reference. Projection weights and
# energies are sums over 64000 samples, so a change in reduction order (for
# example BLAS ddot against a fixed-order sum) moves them by ~1e-15 relative;
# EER and min t-DCF depend only on score ranks.
PROCESS_REL_TOL = 1e-9
EER_ABS_TOL = 1e-9
# Float32 output WAVs against the float64 result they were written from.
FLOAT32_REL_TOL = 2.0**-23
# |<a_hat, x_hat>| / (||a_hat|| ||x_hat||) for the projection residual.
ORTHOGONALITY_TOL = 1e-9


def nproc():
    return len(os.sched_getaffinity(0))


@dataclass
class PassResult:
    attempted: int
    failed: int
    output: object  # compared across passes and against the reference


def _synth_spec(n_per_class, duration_s, seed):
    return synth.SynthSpec(
        n_bonafide=n_per_class,
        n_spoof=n_per_class,
        duration_s=duration_s,
        sample_rate=16000,
        artifact_kind="comb_filter",
        artifact_strength=0.3,
        seed=seed,
    )


def _load_corpus(spec, out_dir, prefix):
    _, manifest_path = synth.synth_corpus(spec, out_dir, prefix=prefix)
    return manifest.load_manifest(manifest_path)


PROCESS_KEYS = ("projection_weight", "input_energy", "enhanced_energy", "residual_energy")


class Process:
    """`spoofamp process`: run_pipeline over a 4 s corpus, writing WAVs and a log."""

    n_per_class = 16

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.work_dir = work_dir
        self.parallelism = nproc()
        self.config = config_mod.PipelineConfig(parallelism=self.parallelism)
        self.out_dir = os.path.join(work_dir, "amplified")

    def setup(self):
        spec = _synth_spec(self.n_per_class, 4.0, self.seed)
        self.entries = _load_corpus(spec, os.path.join(self.work_dir, "corpus"), "SYN")
        pipeline.run_pipeline(self.config, self.entries[:2], os.path.join(self.work_dir, "warmup"))

    def run_pass(self):
        result = pipeline.run_pipeline(self.config, self.entries, self.out_dir)
        with open(result.log_path, "rb") as f:
            log_bytes = f.read()
        return PassResult(len(self.entries), result.n_failed, log_bytes)

    def check(self, outputs, reference):
        problems = []
        # run_pipeline writes a byte-identical log for identical inputs
        for i, out in enumerate(outputs[:-1]):
            if out != outputs[-1]:
                problems.append(f"pass {i} run log differs from the last pass")
        log = json.loads(outputs[-1])
        records = {r["utterance_id"]: r for r in log["entries"]}
        # recompute every utterance serially from the logged seeds
        enhancer = enhance.EnhancerKind(self.config.enhancer, dict(self.config.enhancer_params))
        digest = hashlib.sha256(outputs[-1])
        for e in self.entries:
            rec = records[e.utterance_id]
            x = audio.crop_or_pad(
                audio.read_wav(e.path), self.config.crop_seconds, rec["crop_seed"]
            )
            d = amplify.process_utterance_details(
                x, self.config, enhancer, noise_seed=rec["noise_seed"]
            )
            a_hat = d.residual.a_hat.samples
            x_hat = d.enhanced.samples
            ortho = abs(math.fsum(a_hat * x_hat)) / math.sqrt(
                math.fsum(a_hat * a_hat) * math.fsum(x_hat * x_hat)
            )
            if ortho > ORTHOGONALITY_TOL:
                problems.append(f"{e.utterance_id}: residual not orthogonal ({ortho:.3e})")
            want = {
                "projection_weight": d.residual.projection_weight,
                "input_energy": math.fsum(x.samples * x.samples),
                "enhanced_energy": math.fsum(x_hat * x_hat),
                "residual_energy": math.fsum(a_hat * a_hat),
            }
            for key, value in want.items():
                if not math.isclose(rec[key], value, rel_tol=PROCESS_REL_TOL):
                    problems.append(f"{e.utterance_id}: {key} {rec[key]!r} != {value!r}")
            out_path = os.path.join(self.out_dir, e.utterance_id + ".wav")
            with open(out_path, "rb") as f:
                digest.update(f.read())
            written = audio.read_wav(out_path).samples
            x_tilde = d.x_tilde.samples
            err = float(np.max(np.abs(written - x_tilde)))
            if err > FLOAT32_REL_TOL * float(np.max(np.abs(x_tilde))):
                problems.append(f"{e.utterance_id}: output WAV differs from x_tilde by {err:.3e}")
        if reference is not None:
            for utt, values in reference.items():
                rec = records.get(utt)
                if rec is None:
                    problems.append(f"{utt}: missing from run log")
                    continue
                got = [rec[k] for k in PROCESS_KEYS]
                if not all(
                    math.isclose(g, w, rel_tol=PROCESS_REL_TOL) for g, w in zip(got, values)
                ):
                    problems.append(f"{utt}: {got} != reference {values}")
        return problems, {"output_sha256": digest.hexdigest()}

    def reference_values(self, outputs):
        log = json.loads(outputs[-1])
        return {r["utterance_id"]: [r[k] for k in PROCESS_KEYS] for r in log["entries"]}


class _Scored:
    """Workloads whose output maps a variant or cell to [EER, min t-DCF]."""

    def check(self, outputs, reference):
        """Identical on every pass, in range, and equal to the reference."""
        problems = []
        first = outputs[0]
        for i, out in enumerate(outputs[1:], start=1):
            if out != first:
                problems.append(f"pass {i} results {out} differ from pass 0 {first}")
        for key, (e, t) in first.items():
            if not (0.0 <= e <= 1.0 and t >= 0.0):
                problems.append(f"{key}: EER {e} / min t-DCF {t} out of range")
        if reference is not None:
            for key, want in reference.items():
                got = first.get(key)
                if got is None or not all(
                    math.isclose(g, w, abs_tol=EER_ABS_TOL) for g, w in zip(got, want)
                ):
                    problems.append(f"{key}: {got} != reference {want}")
        digest = hashlib.sha256(json.dumps(first, sort_keys=True).encode()).hexdigest()
        return problems, {"output_sha256": digest, "results": first}

    def reference_values(self, outputs):
        return outputs[0]


class ReleaseEval(_Scored):
    """Acceptance criterion 6 at reduced size: synthesise, crop, extract raw /
    projection / naive features, fit, score and compute EER, single-threaded."""

    n_per_class = 8
    warmup_per_class = 2
    parallelism = 1
    variants = ("raw", "projection", "naive")

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.work_dir = work_dir
        self.config = config_mod.PipelineConfig()  # release defaults
        self.naive_config = self.config.with_overrides(extraction_mode="naive")
        self.enhancer = enhance.EnhancerKind(
            self.config.enhancer, dict(self.config.enhancer_params)
        )
        self.features = detector.FeatureConfig()

    def setup(self):
        self.tdcf = pipeline.load_tdcf_params()
        self._pass(self.warmup_per_class, os.path.join(self.work_dir, "warmup"))

    def _features(self, entries):
        cfg = self.config
        feats = {v: [] for v in self.variants}
        for e in entries:
            x = audio.crop_or_pad(
                audio.read_wav(e.path),
                cfg.crop_seconds,
                config_mod.derive_seed(cfg.global_seed, e.utterance_id, "crop"),
            )
            noise_seed = config_mod.derive_seed(cfg.global_seed, e.utterance_id, "noise")
            feats["raw"].append(detector.extract_features(x, self.features))
            for variant, c in (("projection", cfg), ("naive", self.naive_config)):
                y = amplify.process_utterance(x, c, self.enhancer, noise_seed)
                feats[variant].append(detector.extract_features(y, self.features))
        return feats

    def _pass(self, n_per_class, out_dir):
        splits = {}
        for split in ("train", "eval"):
            spec = _synth_spec(n_per_class, 4.0, config_mod.derive_seed(self.seed, split))
            entries, _ = synth.synth_corpus(
                spec, os.path.join(out_dir, split), prefix="SYN" + split[:2].upper()
            )
            splits[split] = (entries, self._features(entries))
        train_entries, train_feats = splits["train"]
        eval_entries, eval_feats = splits["eval"]
        labels = [e.label for e in train_entries]
        results = {}
        for variant in self.variants:
            model = detector.fit(train_feats[variant], labels, self.features)
            records = [
                metrics.ScoreRecord(e.utterance_id, e.label, e.attack_id, detector.score(model, f))
                for e, f in zip(eval_entries, eval_feats[variant])
            ]
            results[variant] = [metrics.eer(records), metrics.min_tdcf(records, self.tdcf)]
        return results

    def run_pass(self):
        n = 4 * self.n_per_class
        try:
            results = self._pass(self.n_per_class, os.path.join(self.work_dir, "corpus"))
        except errors.SpoofampError as e:
            return PassResult(n, n, f"{type(e).__name__}: {e}")
        return PassResult(n, 0, results)


class Sweep(_Scored):
    """pipeline.sweep over noise_color with spectral subtraction, 1 s crops,
    in memory, at parallelism nproc."""

    n_per_class = 30
    colors = ("white", "pink", "violet")

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.work_dir = work_dir
        self.parallelism = nproc()
        self.config = config_mod.PipelineConfig(
            crop_seconds=1.0, enhancer="spectral_subtraction", parallelism=self.parallelism
        )

    def setup(self):
        self.tdcf = pipeline.load_tdcf_params()
        corpora = {}
        for split in ("train", "eval"):
            spec = _synth_spec(self.n_per_class, 1.0, config_mod.derive_seed(self.seed, split))
            corpora[split] = _load_corpus(
                spec, os.path.join(self.work_dir, split), "SYN" + split[:2].upper()
            )
        self.train, self.eval = corpora["train"], corpora["eval"]
        # two items per class: the fewest the detector fits on
        pipeline.sweep(
            self.config,
            self.train[:2] + self.train[-2:],
            self.eval[:2] + self.eval[-2:],
            "noise_color",
            ["white"],
            self.tdcf,
        )

    def run_pass(self):
        cells = pipeline.sweep(
            self.config, self.train, self.eval, "noise_color", list(self.colors), self.tdcf
        )
        per_cell = len(self.train) + len(self.eval)
        failed = sum(per_cell for c in cells if c.error is not None)
        output = {c.value: [c.eer, c.min_tdcf] if c.error is None else c.error for c in cells}
        return PassResult(per_cell * len(cells), failed, output)


WORKLOADS = {"process": Process, "release-eval": ReleaseEval, "sweep": Sweep}

_PER_UTTERANCE_CHAIN = (
    "noise.generate",
    "mixing.add_noise_at_snr",
    "stft.stft",
    "stft.istft",
    "enhance.enhance",
    "amplify.extract_residual",
    "amplify.amplify",
    "amplify.process_utterance_details",
    "audio.read_wav",
    "audio.crop_or_pad",
)
_SCORING = (
    "detector.extract_features",
    "detector.fit",
    "detector.score",
    "metrics.eer",
    "metrics.min_tdcf",
)
# spans each workload's timed phase must reach; a traced run that records no
# call for one of them fails its wiring check
EXERCISED = {
    "process": _PER_UTTERANCE_CHAIN + ("audio.write_wav",),
    "release-eval": _PER_UTTERANCE_CHAIN
    + _SCORING
    + ("audio.write_wav", "synth.synth_utterance", "synth.apply_artifact"),
    "sweep": _PER_UTTERANCE_CHAIN + _SCORING,
}


def load_reference(workload, seed):
    """Committed reference values for (workload, seed), or None if none is committed."""
    with open(REFERENCE_PATH, encoding="utf-8") as f:
        doc = json.load(f)
    return doc.get(workload, {}).get(str(seed))
