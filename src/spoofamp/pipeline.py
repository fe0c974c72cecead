"""Batch execution: corpus processing, sweeps, and score joining.

Per-utterance work (read, crop, mix, enhance, extract, amplify, write) runs
on a bounded thread pool. All randomness is derived per utterance id from the
global seed, and the run log is assembled in manifest order after all workers
finish, so outputs and logs are byte identical at any parallelism level.
"""

import json
import logging
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

from . import detector, metrics
from .amplify import process_utterance_details
from .audio import crop_or_pad, read_wav, write_wav
from .config import _read_json_object, config_hash, derive_seed
from .enhance import EnhancerKind
from .errors import (
    ConfigError,
    MissingIdError,
    ScoreFileError,
    SpoofampError,
    StageError,
)

_log = logging.getLogger(__name__)

SWEEP_AXES = ("alpha", "snr_db", "noise_color", "extraction_mode", "skip_noise_addition")


@dataclass(frozen=True)
class RunResult:
    """Outcome of a batch run."""

    n_ok: int
    n_failed: int
    out_dir: str
    log_path: str
    config_hash: str


def _load_cropped(entry, config):
    w = read_wav(entry.path)
    return crop_or_pad(
        w, config.crop_seconds, derive_seed(config.global_seed, entry.utterance_id, "crop")
    )


def _process_one(entry, config, enhancer, out_dir):
    noise_seed = derive_seed(config.global_seed, entry.utterance_id, "noise")
    crop_seed = derive_seed(config.global_seed, entry.utterance_id, "crop")
    try:
        x = _load_cropped(entry, config)
        details = process_utterance_details(x, config, enhancer, noise_seed=noise_seed)
        if out_dir is not None:
            write_wav(
                details.x_tilde, os.path.join(out_dir, entry.utterance_id + ".wav"), "float32"
            )
        record = {
            "utterance_id": entry.utterance_id,
            "status": "ok",
            "crop_seed": crop_seed,
            "noise_seed": noise_seed,
            "projection_weight": details.residual.projection_weight,
            "input_energy": x.energy(),
            "enhanced_energy": details.enhanced.energy(),
            "residual_energy": details.residual.a_hat.energy(),
        }
        return record, details
    except StageError as e:
        return (
            {
                "utterance_id": entry.utterance_id,
                "status": "failed",
                "stage": e.stage,
                "error": str(e.cause),
            },
            None,
        )
    except (SpoofampError, OSError) as e:
        return (
            {
                "utterance_id": entry.utterance_id,
                "status": "failed",
                "stage": "io",
                "error": str(e),
            },
            None,
        )


def _map_entries(entries, fn, parallelism):
    if parallelism <= 1:
        return [fn(e) for e in entries]
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        return list(pool.map(fn, entries))


def run_pipeline(config, entries, out_dir):
    """Process every manifest entry and write outputs plus a run log.

    Outputs are float32 WAVs named by utterance id. The log records the
    config hash, per-utterance seeds, projection weights, and energies.
    Failures are logged per utterance and counted, never raised.
    """
    os.makedirs(out_dir, exist_ok=True)
    enhancer = EnhancerKind(config.enhancer, config.enhancer_params)
    results = _map_entries(
        entries, lambda e: _process_one(e, config, enhancer, out_dir), config.parallelism
    )
    records = [r for r, _ in results]
    n_failed = sum(1 for r in records if r["status"] != "ok")
    chash = config_hash(config)
    cfg_doc = asdict(config)
    cfg_doc.pop("parallelism")  # scheduling detail; logs must match at any width
    log_doc = {
        "config_hash": chash,
        "config": cfg_doc,
        "n_ok": len(records) - n_failed,
        "n_failed": n_failed,
        "entries": records,
    }
    log_path = os.path.join(out_dir, "run_log.json")
    with open(log_path, "w", encoding="utf-8") as f:
        json.dump(log_doc, f, indent=1, sort_keys=True)
        f.write("\n")
    return RunResult(
        n_ok=len(records) - n_failed,
        n_failed=n_failed,
        out_dir=out_dir,
        log_path=log_path,
        config_hash=chash,
    )


def _amplified_features(config, crops, feature_config):
    """Features of the pipeline output for each (entry, cropped x) pair."""
    enhancer = EnhancerKind(config.enhancer, config.enhancer_params)

    def one(item):
        entry, x = item
        noise_seed = derive_seed(config.global_seed, entry.utterance_id, "noise")
        details = process_utterance_details(x, config, enhancer, noise_seed=noise_seed)
        return detector.extract_features(details.x_tilde, feature_config)

    return _map_entries(list(crops), one, config.parallelism)


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


def sweep(
    config,
    train_entries,
    eval_entries,
    axis,
    values,
    tdcf_params,
    feature_config=None,
    include_raw_training=False,
):
    """Run the pipeline grid over one config axis and tabulate metrics.

    For each value the full corpus is processed in memory, the detector fit
    on the train split's amplified output (plus the raw crops when
    include_raw_training is set), and EER / min t-DCF computed on the eval
    split. A failing cell is recorded with its error and the sweep continues.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; choose from {SWEEP_AXES}")
    if feature_config is None:
        feature_config = detector.FeatureConfig()
    # crop once; crop seeds do not depend on the swept axis
    train_crops = [(e, _load_cropped(e, config)) for e in train_entries]
    eval_crops = [(e, _load_cropped(e, config)) for e in eval_entries]
    raw_train_features = None
    if include_raw_training:
        raw_train_features = [
            detector.extract_features(x, feature_config) for _, x in train_crops
        ]
    cells = []
    for value in values:
        try:
            cfg = config.with_overrides(**{axis: value})
            train_feats = _amplified_features(cfg, train_crops, feature_config)
            train_labels = [e.label for e, _ in train_crops]
            if include_raw_training:
                train_feats = train_feats + raw_train_features
                train_labels = train_labels + [e.label for e, _ in train_crops]
            model = detector.fit(train_feats, train_labels, feature_config)
            eval_feats = _amplified_features(cfg, eval_crops, feature_config)
            records = [
                metrics.ScoreRecord(e.utterance_id, e.label, e.attack_id, detector.score(model, f))
                for (e, _), f in zip(eval_crops, eval_feats)
            ]
            cells.append(
                SweepCell(
                    axis=axis,
                    value=value,
                    eer=metrics.eer(records),
                    min_tdcf=metrics.min_tdcf(records, tdcf_params),
                    error=None,
                )
            )
        except SpoofampError as e:
            _log.warning("sweep cell %s=%r failed: %s", axis, value, e)
            cells.append(SweepCell(axis=axis, value=value, eer=None, min_tdcf=None, error=str(e)))
    return cells


def join_scores(entries, rows, polarity_flip=False, source="score file"):
    """Join manifest labels onto parsed score rows.

    The row ids must form a superset of the manifest ids; extra ids are
    ignored (their count is returned). Rows carrying their own label must
    agree with the manifest.

    Returns (records, n_extra_ids).
    """
    by_id = {}
    for utt, attack, label, score in rows:
        if utt in by_id:
            raise ScoreFileError(f"{source}: duplicate score for id {utt!r}")
        by_id[utt] = (attack, label, score)
    records = []
    for e in entries:
        if e.utterance_id not in by_id:
            raise MissingIdError(f"manifest id {e.utterance_id!r} missing from {source}")
        _attack, label, score = by_id[e.utterance_id]
        if label is not None and label != e.label:
            raise ScoreFileError(
                f"label conflict for {e.utterance_id!r}: manifest says {e.label!r}, "
                f"{source} says {label!r}"
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
        return metrics.TdcfParams(**{key: float(value) for key, value in doc.items()})
    except (TypeError, ValueError, SpoofampError) as e:
        raise ConfigError(f"{what} {path}: {e}") from e
