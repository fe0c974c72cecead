"""Command-line interface.

Subcommands: gen-noise, mix, extract, amplify, process, fit, score, sweep,
synth, report. Exit codes: 0 success, 1 partial or runtime failure, 2
invalid configuration or usage.
"""

import argparse
import os
import sys

from . import detector, metrics, pipeline, synth
from .amplify import EXTRACTION_MODES, extract_residual
from .amplify import amplify as _amplify_op
from ._files import _write_file
from .audio import read_wav, write_wav
from .config import PipelineConfig, derive_seed, load_config
from .errors import ConfigError, SpoofampError
from .manifest import MANIFEST_FORMATS, load_manifest
from .mixing import add_noise_at_snr
from .noise import NOISE_COLORS, _output_length, generate
from .synth import ARTIFACT_KINDS, SynthSpec


def _add_manifest_args(p, prefix=""):
    p.add_argument(f"--{prefix}manifest", required=True, help="manifest file")
    p.add_argument(
        f"--{prefix}manifest-format",
        default="simple_tsv",
        choices=MANIFEST_FORMATS,
        help="manifest layout (default simple_tsv)",
    )
    p.add_argument(
        f"--{prefix}audio-root",
        default=None,
        help="audio directory for asvspoof_protocol manifests",
    )


def _load_entries(args, prefix=""):
    key = prefix.replace("-", "_")
    return load_manifest(
        getattr(args, f"{key}manifest"),
        fmt=getattr(args, f"{key}manifest_format"),
        audio_root=getattr(args, f"{key}audio_root"),
    )


def _audio_entries(args):
    """The manifest's entries and run hash, through pipeline._read_run with --audio-dir."""
    entries = _load_entries(args)
    if args.audio_dir is None:
        return entries, None
    kept, run_hash = pipeline._read_run(args.audio_dir, entries)
    if len(kept) < len(entries):
        n_skipped = len(entries) - len(kept)
        print(f"skipped {n_skipped} of {len(entries)} utterances that the run log marks failed")
    return kept, run_hash


def _cmd_gen_noise(args):
    n = _output_length(args.seconds, args.sample_rate, "seconds", 1)
    write_wav(generate(args.color, n, args.sample_rate, args.seed), args.out)
    print(f"wrote {args.out}: {args.color} noise, {n} samples at {args.sample_rate} Hz")
    return 0


def _cmd_mix(args):
    x = read_wav(args.infile)
    n = generate(args.noise_color, len(x), x.sample_rate, args.seed)
    y = add_noise_at_snr(x, n, args.snr_db)
    write_wav(y, args.out)
    print(f"wrote {args.out}: {args.noise_color} noise mixed at {args.snr_db} dB")
    return 0


def _cmd_extract(args):
    x = read_wav(args.infile)
    x_hat = read_wav(args.enhanced)
    r = extract_residual(x, x_hat, args.mode)
    write_wav(r.a_hat, args.out)
    print(f"projection_weight={r.projection_weight!r}")
    return 0


def _cmd_amplify(args):
    x = read_wav(args.infile)
    out = _amplify_op(x, read_wav(args.residual), args.alpha)
    write_wav(out, args.out)
    print(f"wrote {args.out}: alpha={args.alpha}")
    return 0


def _cmd_process(args):
    config = load_config(args.config) if args.config else PipelineConfig()
    if args.parallelism is not None:
        config = config.with_overrides(parallelism=args.parallelism)
    entries = _load_entries(args)
    result = pipeline.run_pipeline(config, entries, args.out_dir)
    print(
        f"processed {result.n_ok} ok, {result.n_failed} failed; "
        f"config_hash={result.config_hash}; log: {result.log_path}"
    )
    return 1 if result.n_failed else 0


def _cmd_fit(args):
    entries, _run_hash = _audio_entries(args)
    fc = detector.FeatureConfig(n_bands=args.n_bands)
    labels = [e.label for e in entries]
    detector._check_labels(labels)  # before any WAV is read
    feats = [detector.extract_features(read_wav(e.path), fc) for e in entries]
    model = detector.fit(feats, labels, fc)
    detector.save_model(model, args.out_model)
    print(f"fitted on {len(entries)} utterances; model: {args.out_model}")
    return 0


def _cmd_score(args):
    entries, run_hash = _audio_entries(args)
    model = detector.load_model(args.model)
    fc = model.feature_config
    records = []
    for e in entries:
        f = detector.extract_features(read_wav(e.path), fc)
        records.append(
            metrics.ScoreRecord(e.utterance_id, e.label, e.attack_id, detector.score(model, f))
        )
    metrics.write_score_file(args.out_scores, records, config_hash=run_hash)
    print(f"scored {len(records)} utterances; scores: {args.out_scores}")
    return 0


_ON_OFF = {"on": True, "true": True, "1": True, "yes": True,
           "off": False, "false": False, "0": False, "no": False}


def _parse_axis_values(axis, text):
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    if axis in ("alpha", "snr_db"):
        try:
            return [float(t) for t in tokens]
        except ValueError as e:
            raise ConfigError(f"bad numeric value for axis {axis}: {e}") from e
    if axis == "skip_noise_addition":
        bad = [t for t in tokens if t.lower() not in _ON_OFF]
        if bad:
            raise ConfigError(f"bad on/off value {bad[0]!r} for skip_noise_addition")
        return [_ON_OFF[t.lower()] for t in tokens]
    return tokens


def _cmd_sweep(args):
    config = load_config(args.config) if args.config else PipelineConfig()
    values = _parse_axis_values(args.axis, args.values)
    pipeline._sweep_configs(config, args.axis, values)  # a bad value is usage before any read
    train_entries = _load_entries(args, prefix="train-")
    eval_entries = _load_entries(args, prefix="eval-")
    params = pipeline.load_tdcf_params(args.tdcf_params)
    cells = pipeline.sweep(
        config, train_entries, eval_entries, args.axis, values, params,
        feature_config=detector.FeatureConfig(n_bands=args.n_bands),
        include_raw_training=args.include_raw_training,
    )
    csv_text = pipeline.sweep_csv_text(cells)
    _write_file(args.out, csv_text.encode("utf-8"))
    sys.stdout.write(csv_text)
    return 1 if any(c.error is not None for c in cells) else 0


def _cmd_synth(args):
    def build(seed, prefix, out_dir):
        spec = SynthSpec(
            n_bonafide=args.n_bonafide, n_spoof=args.n_spoof, duration_s=args.duration,
            sample_rate=args.sample_rate, artifact_kind=args.artifact,
            artifact_strength=args.strength, seed=seed,
        )
        entries, manifest_path = synth.synth_corpus(spec, out_dir, prefix=prefix)
        print(f"wrote {len(entries)} files under {out_dir}; manifest: {manifest_path}")

    if args.split:
        build(derive_seed(args.seed, "train"), "SYNTR", os.path.join(args.out_dir, "train"))
        build(derive_seed(args.seed, "eval"), "SYNEV", os.path.join(args.out_dir, "eval"))
    else:
        build(args.seed, "SYN", args.out_dir)
    return 0


def _cmd_report(args):
    entries = _load_entries(args)
    params = pipeline.load_tdcf_params(args.tdcf_params)
    rows = []
    hashes = []
    for score_path in args.scores:
        file_rows, config_hash = metrics.parse_score_file(score_path)
        rows.extend(file_rows)
        if config_hash is not None:
            hashes.append((score_path, config_hash))
    if len({h for _, h in hashes}) > 1 and not args.force:
        detail = ", ".join(f"{os.path.basename(p)}={h}" for p, h in hashes)
        raise ConfigError(
            f"refusing to merge score files with differing config hashes ({detail}); "
            "pass --force to override"
        )
    records, n_extra = pipeline.join_scores(entries, rows, polarity_flip=args.flip_polarity)
    rep = metrics.report(records, params, group_by_attack=args.per_attack)
    sys.stdout.write(rep.text())
    if n_extra:
        print(f"(ignored {n_extra} score ids not in manifest)")
    if args.csv_out:
        _write_file(args.csv_out, rep.csv_text().encode("utf-8"))
        print(f"csv: {args.csv_out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spoofamp",
        description="Artifact amplification pipeline and evaluation tools for "
        "audio anti-spoofing experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-noise", help="synthesize colored noise to a WAV file")
    p.add_argument("--color", required=True, choices=NOISE_COLORS)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--sample-rate", type=int, default=16000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_gen_noise)

    p = sub.add_parser("mix", help="add colored noise to a WAV at a target SNR")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--noise-color", default=PipelineConfig.noise_color, choices=NOISE_COLORS)
    p.add_argument("--snr-db", type=float, default=PipelineConfig.snr_db)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_mix)

    p = sub.add_parser("extract", help="extract the residual of raw vs enhanced audio")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--enhanced", required=True)
    p.add_argument("--mode", default=PipelineConfig.extraction_mode, choices=EXTRACTION_MODES)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_extract)

    p = sub.add_parser("amplify", help="add a scaled residual back onto audio")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--residual", required=True)
    p.add_argument("--alpha", type=float, default=PipelineConfig.alpha)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_amplify)

    p = sub.add_parser("process", help="run the full pipeline over a manifest")
    p.add_argument("--config", default=None, help="JSON pipeline config (defaults if omitted)")
    _add_manifest_args(p)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--parallelism", type=int, default=None, help="override config parallelism")
    p.set_defaults(fn=_cmd_process)

    p = sub.add_parser("fit", help="fit the Gaussian detector on a manifest")
    _add_manifest_args(p)
    p.add_argument("--audio-dir", default=None, help="read <utterance_id>.wav from this dir")
    p.add_argument("--n-bands", type=int, default=detector.FeatureConfig.n_bands)
    p.add_argument("--out-model", required=True)
    p.set_defaults(fn=_cmd_fit)

    p = sub.add_parser("score", help="score a manifest with a fitted detector")
    p.add_argument("--model", required=True)
    _add_manifest_args(p)
    p.add_argument("--audio-dir", default=None, help="read <utterance_id>.wav from this dir")
    p.add_argument("--out-scores", required=True)
    p.set_defaults(fn=_cmd_score)

    p = sub.add_parser("sweep", help="grid over one config axis with detector evaluation")
    p.add_argument("--config", default=None)
    _add_manifest_args(p, prefix="train-")
    _add_manifest_args(p, prefix="eval-")
    p.add_argument("--axis", required=True, choices=pipeline.SWEEP_AXES)
    p.add_argument("--values", required=True, help="comma-separated axis values")
    p.add_argument("--tdcf-params", default=None)
    p.add_argument("--n-bands", type=int, default=detector.FeatureConfig.n_bands)
    p.add_argument("--include-raw-training", action="store_true")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("synth", help="generate a synthetic bona fide / spoof corpus")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--n-bonafide", type=int, required=True)
    p.add_argument("--n-spoof", type=int, required=True)
    p.add_argument("--duration", type=float, default=SynthSpec.duration_s)
    p.add_argument("--sample-rate", type=int, default=SynthSpec.sample_rate)
    p.add_argument("--artifact", default=SynthSpec.artifact_kind, choices=ARTIFACT_KINDS)
    p.add_argument("--strength", type=float, default=SynthSpec.artifact_strength)
    p.add_argument("--seed", type=int, default=SynthSpec.seed)
    p.add_argument("--split", action="store_true", help="emit train/ and eval/ subcorpora")
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("report", help="evaluate score files against a manifest")
    _add_manifest_args(p)
    p.add_argument("--scores", nargs="+", required=True)
    p.add_argument("--tdcf-params", default=None)
    p.add_argument("--per-attack", action="store_true")
    p.add_argument("--flip-polarity", action="store_true")
    p.add_argument("--csv-out", default=None)
    p.add_argument("--force", action="store_true", help="merge despite config hash mismatch")
    p.set_defaults(fn=_cmd_report)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (SpoofampError, OSError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2 if isinstance(e, ConfigError) else 1


if __name__ == "__main__":
    sys.exit(main())
