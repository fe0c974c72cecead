"""Batch execution: corpus processing, sweeps, and score joining.

Per-utterance work (read, crop, mix, enhance, extract, amplify, write) runs
on a bounded thread pool. All randomness is derived per utterance id from the
global seed, and the run log is assembled in manifest order after all workers
finish, so outputs and logs are byte identical at any parallelism level.
"""

import contextlib
import json
import logging
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

from . import detector, metrics
from ._files import _make_dir, _read_json_object, _remove_file, _write_file
from .amplify import process_utterance_details
from .audio import crop_or_pad, read_wav, write_wav
from .config import config_doc, config_hash, derive_seed
from .errors import ConfigError, ScoreFileError, SpoofampError, StageError, _stage
from .manifest import _check_entries

_log = logging.getLogger(__name__)

SWEEP_AXES = (
    "alpha", "snr_db", "noise_color", "extraction_mode", "skip_noise_addition", "enhancer"
)
_RUN_LOG = "run_log.json"


@dataclass(frozen=True)
class RunResult:
    """Outcome of a batch run."""

    n_ok: int
    n_failed: int
    log_path: str
    config_hash: str


def _load(entry, config):
    """Read and crop one entry, in stage 'io'. Returns (x, crop_seed, noise_seed);
    both seeds come from the global seed and the utterance id alone."""
    crop_seed = derive_seed(config.global_seed, entry.utterance_id, "crop")
    noise_seed = derive_seed(config.global_seed, entry.utterance_id, "noise")
    with _stage("io"):
        x = crop_or_pad(read_wav(entry.path), config.crop_seconds, crop_seed)
    return x, crop_seed, noise_seed


def _process_one(entry, config, out_dir):
    """Process one entry with the config's enhancer and write its WAV. Only the
    run-log record is returned, so no waveform outlives its utterance."""
    try:
        x, crop_seed, noise_seed = _load(entry, config)
        details = process_utterance_details(x, config, config._enhancer, noise_seed)
        with _stage("io"):
            write_wav(details.x_tilde, _wav_path(out_dir, entry.utterance_id))
    except StageError as e:
        return {
            "utterance_id": entry.utterance_id,
            "status": "failed",
            "stage": e.stage,
            "error": str(e.cause),
        }
    return {
        "utterance_id": entry.utterance_id,
        "status": "ok",
        "crop_seed": crop_seed,
        "noise_seed": noise_seed,
        "projection_weight": details.residual.projection_weight,
        "input_energy": x.energy(),
        "enhanced_energy": details.enhanced.energy(),
        "residual_energy": details.residual.a_hat.energy(),
    }


def _wav_path(run_dir, utterance_id):
    return os.path.join(run_dir, utterance_id + ".wav")


def _map_entries(entries, fn, parallelism):
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        return list(pool.map(fn, entries))


def run_pipeline(config, entries, out_dir):
    """Process every manifest entry and write outputs plus a run log.

    Outputs are float32 WAVs named by utterance id. The log records the
    config hash, per-utterance seeds, projection weights, and energies.
    Failures are logged per utterance and counted, never raised. An id, label or
    attack id that write_manifest refuses raises ManifestError, and an input the
    run would write over or an <out_dir>/<id>.wav that is a symlink raises
    ConfigError, before any file.
    """
    chash = config_hash(config)  # before any WAV is written: a failure here leaves nothing
    entries = _check_entries(out_dir, entries)  # a repeated id would race on one temp file
    # a WAV is written through a symlink and a log removed: an input the run writes over
    # is lost, and so is a file a link leads to, in the run or outside it
    real_out = os.path.realpath(out_dir)
    written = [os.path.realpath(_wav_path(out_dir, e.utterance_id)) for e in entries]
    targets = set(written) | {os.path.join(real_out, _RUN_LOG)}
    for e in entries:
        with contextlib.suppress(ValueError):  # a NUL byte names no file; its read fails at io
            if os.path.realpath(e.path) in targets:
                raise ConfigError(f"refusing to overwrite input {e.path} of {e.utterance_id!r}")
    for e, path in zip(entries, written):
        if path != _wav_path(real_out, e.utterance_id):
            raise ConfigError(
                f"refusing to write {_wav_path(out_dir, e.utterance_id)} through a link to {path}"
            )
    _make_dir(out_dir, "output")
    log_path = os.path.join(out_dir, _RUN_LOG)
    _remove_file(log_path)  # a previous run's log must not outlive a run that stops midway
    records = _map_entries(entries, lambda e: _process_one(e, config, out_dir), config.parallelism)
    n_failed = sum(1 for r in records if r["status"] != "ok")
    n_ok = len(records) - n_failed
    log_doc = {
        "config_hash": chash,
        "config": config_doc(config),
        "n_ok": n_ok,
        "n_failed": n_failed,
        "entries": records,
    }
    _write_file(log_path, (json.dumps(log_doc, indent=1, sort_keys=True) + "\n").encode("utf-8"))
    return RunResult(n_ok, n_failed, log_path, chash)


def _read_run(run_dir, entries):
    """The entries remapped to <run_dir>/<id>.wav minus the ids the run log marks
    failed, and the run's config hash; with no log (a valid state), all and None."""
    log_path = os.path.join(run_dir, _RUN_LOG)
    log = _read_json_object(log_path, "run log") if os.path.isfile(log_path) else {}
    records = log.get("entries", [])
    if not (isinstance(records, list) and all(isinstance(r, dict) for r in records)):
        raise ConfigError(f"run log {log_path}: 'entries' must be a list of objects")
    if not all(isinstance(r.get("utterance_id"), str) for r in records):
        raise ConfigError(f"run log {log_path}: every utterance_id must be a string")
    chash = log.get("config_hash")
    if "config_hash" in log and not metrics._is_config_hash(chash):
        raise ConfigError(f"run log {log_path}: config_hash {chash!r} is not 16 lowercase hex")
    failed = {r["utterance_id"] for r in records if r.get("status") == "failed"}
    kept = [e for e in entries if e.utterance_id not in failed]
    return [replace(e, path=_wav_path(run_dir, e.utterance_id)) for e in kept], chash


@dataclass(frozen=True)
class SweepCell:
    """One sweep grid cell result; error is None for a clean run."""

    axis: str
    value: object
    eer: float | None
    min_tdcf: float | None
    error: str | None


def _format_cell_value(value):
    if isinstance(value, bool):
        return "on" if value else "off"
    return str(value)


def sweep_csv_text(cells):
    lines = ["axis,value,eer,min_tdcf,status"]
    for c in cells:
        if c.error is None:
            lines.append(
                f"{c.axis},{_format_cell_value(c.value)},{c.eer:.6f},{c.min_tdcf:.6f},ok"
            )
        else:
            msg = c.error.replace("\n", " ").replace(",", ";")
            lines.append(f"{c.axis},{_format_cell_value(c.value)},,,error: {msg}")
    return "\n".join(lines) + "\n"


def _sweep_configs(config, axis, values):
    """One config per value; a bad axis or value, or no value, raises ConfigError."""
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; choose from {SWEEP_AXES}")
    if not values:
        raise ConfigError("no sweep values given")
    return [config.with_overrides(**{axis: value}) for value in values]


def sweep(
    config,
    train_entries,
    eval_entries,
    axis,
    values,
    tdcf_params,
    feature_config=detector.FeatureConfig(),
    include_raw_training=False,
):
    """Run the pipeline grid over one config axis and tabulate metrics.

    The utterance is the outer loop and the cell the inner one. A worker reads
    and crops one entry, in stage 'io', and keeps only feature vectors, so no
    crop outlives its utterance: those of every cell's chain output and, for a
    train entry under include_raw_training, of the crop itself. Each cell's
    detector is fit on the train split's amplified features, then the raw
    ones, and EER / min t-DCF computed on the eval split. A fault fails only
    its cell, with the error of its first failing vector in train, raw, eval
    order, so a raw fault fails every cell. A failed read or crop raises
    StageError('io'). Before any read, a refused axis or value, or none, raises
    ConfigError, train labels the fit would refuse TrainingDataError, and an eval
    split of one class DegenerateSignalError.
    """
    values = list(values)
    cfgs = _sweep_configs(config, axis, values)
    train_entries = list(train_entries)
    n_train = len(train_entries)
    train_labels = [e.label for e in train_entries] * (2 if include_raw_training else 1)
    detector._check_labels(train_labels)
    entries = train_entries + list(eval_entries)
    metrics._check_both_classes([e.label for e in entries[n_train:]])

    def features(i):
        # the swept axes touch neither seed, so one crop serves every cell
        x, _, noise_seed = _load(entries[i], config)
        # a feature vector or an error message per cell, then per raw crop: a kept
        # exception would keep its traceback's frames, and so the crop, alive
        row = []
        for cfg in cfgs + [None] * (include_raw_training and i < n_train):
            try:
                y = x
                if cfg is not None:
                    y = process_utterance_details(x, cfg, cfg._enhancer, noise_seed).x_tilde
                row.append(detector.extract_features(y, feature_config))
            except SpoofampError as e:
                row.append(str(e))
        return row

    rows = _map_entries(range(len(entries)), features, config.parallelism)
    raw = [row.pop() for row in rows[:n_train]] if include_raw_training else []
    cells = []
    for k, value in enumerate(values):
        train_feats = [row[k] for row in rows[:n_train]] + raw
        eval_feats = [row[k] for row in rows[n_train:]]
        error = next((f for f in train_feats + eval_feats if isinstance(f, str)), None)
        eer = tdcf = None
        if error is None:
            try:
                model = detector.fit(train_feats, train_labels, feature_config)
                records = [
                    metrics.ScoreRecord(
                        e.utterance_id, e.label, e.attack_id, detector.score(model, f)
                    )
                    for e, f in zip(entries[n_train:], eval_feats)
                ]
                eer, tdcf = metrics.eer(records), metrics.min_tdcf(records, tdcf_params)
            except SpoofampError as e:
                error = str(e)
        if error is not None:
            _log.warning("sweep cell %s=%r failed: %s", axis, value, error)
        cells.append(SweepCell(axis=axis, value=value, eer=eer, min_tdcf=tdcf, error=error))
    return cells


def join_scores(entries, rows, polarity_flip=False):
    """Join manifest labels onto parsed score rows.

    The row ids must form a superset of the manifest ids; extra ids are
    ignored (their count is returned). Rows carrying their own label and
    attack id must agree with the manifest.

    Returns (records, n_extra_ids).
    """
    by_id = {}
    for utt, attack, label, score in rows:
        if utt in by_id:
            raise ScoreFileError(f"merged scores: duplicate score for id {utt!r}")
        by_id[utt] = (attack, label, score)
    records = []
    for e in entries:
        if e.utterance_id not in by_id:
            raise ScoreFileError(f"manifest id {e.utterance_id!r} missing from merged scores")
        attack, label, score = by_id[e.utterance_id]
        if label is not None and label != e.label:
            raise ScoreFileError(
                f"label conflict for {e.utterance_id!r}: manifest says {e.label!r}, "
                f"merged scores says {label!r}"
            )
        if attack is not None and attack != e.attack_id:
            raise ScoreFileError(
                f"attack id conflict for {e.utterance_id!r}: manifest says {e.attack_id!r}, "
                f"merged scores says {attack!r}"
            )
        if polarity_flip:
            score = -score
        records.append(metrics.ScoreRecord(e.utterance_id, e.label, e.attack_id, score))
    n_extra = len(by_id) - len(records)
    if n_extra:
        _log.info("%d score ids not in manifest; ignored", n_extra)
    return records, n_extra


def load_tdcf_params(path=None):
    """Load tandem cost parameters from JSON; None loads the packaged
    defaults. Keys starting with an underscore are ignored."""
    if path is None:
        path = os.path.join(os.path.dirname(__file__), "data", "tdcf_default.json")
    what = "t-DCF parameter file"
    known = metrics.TdcfParams.__dataclass_fields__
    doc = _read_json_object(path, what, known=known)
    missing = set(known) - set(doc)
    if missing:
        raise ConfigError(f"{what} {path}: missing keys {sorted(missing)}")
    try:
        return metrics.TdcfParams(**doc)
    except ConfigError as e:
        raise ConfigError(f"{what} {path}: {e}") from e
