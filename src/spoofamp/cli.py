"""Command-line interface.

Subcommands: gen-noise, mix, extract, amplify, process, fit, score, sweep,
synth, report. Exit codes: 0 success, 1 partial or runtime failure, 2
invalid configuration or usage.
"""

import argparse
import json
import os
import sys

from . import detector, metrics, pipeline, synth
from .amplify import EXTRACTION_MODES, AmplifySpec, Residual, extract_residual
from .amplify import amplify as _amplify_op
from .audio import read_wav, write_wav
from .config import PipelineConfig, config_hash, derive_seed, load_config
from .errors import ConfigError, SpoofampError
from .manifest import MANIFEST_FORMATS, load_manifest
from .mixing import MixSpec, add_noise_at_snr
from .noise import NOISE_COLORS, NoiseSpec, generate
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


def _remap_audio_dir(entries, audio_dir):
    if audio_dir is None:
        return entries
    from .manifest import ManifestEntry

    return [
        ManifestEntry(
            utterance_id=e.utterance_id,
            path=os.path.join(audio_dir, e.utterance_id + ".wav"),
            label=e.label,
            attack_id=e.attack_id,
        )
        for e in entries
    ]


def _cmd_gen_noise(args):
    n = int(round(args.seconds * args.sample_rate))
    spec = NoiseSpec(color=args.color, length=n, sample_rate=args.sample_rate, seed=args.seed)
    write_wav(generate(spec), args.out, "float32")
    print(f"wrote {args.out}: {args.color} noise, {n} samples at {args.sample_rate} Hz")
    return 0


def _cmd_mix(args):
    x = read_wav(args.infile)
    spec = NoiseSpec(
        color=args.noise_color, length=len(x), sample_rate=x.sample_rate, seed=args.seed
    )
    y = add_noise_at_snr(x, generate(spec), MixSpec(args.snr_db))
    write_wav(y, args.out, "float32")
    print(f"wrote {args.out}: {args.noise_color} noise mixed at {args.snr_db} dB")
    return 0


def _cmd_extract(args):
    x = read_wav(args.infile)
    x_hat = read_wav(args.enhanced)
    r = extract_residual(x, x_hat, args.mode)
    write_wav(r.a_hat, args.out, "float32")
    print(f"projection_weight={r.projection_weight!r}")
    return 0


def _cmd_amplify(args):
    x = read_wav(args.infile)
    a_hat = read_wav(args.residual)
    out = _amplify_op(x, Residual(a_hat=a_hat, projection_weight=1.0), AmplifySpec(args.alpha))
    write_wav(out, args.out, "float32")
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


def _feature_config(args):
    return detector.FeatureConfig(n_bands=args.n_bands)


def _cmd_fit(args):
    entries = _remap_audio_dir(_load_entries(args), args.audio_dir)
    fc = _feature_config(args)
    feats = [detector.extract_features(read_wav(e.path), fc) for e in entries]
    labels = [e.label for e in entries]
    model = detector.fit(feats, labels, fc)
    detector.save_model(model, args.out_model)
    print(f"fitted on {len(entries)} utterances; model: {args.out_model}")
    return 0


def _read_run_hash(audio_dir):
    if audio_dir is None:
        return None
    log_path = os.path.join(audio_dir, "run_log.json")
    if not os.path.isfile(log_path):
        return None
    try:
        with open(log_path, "r", encoding="utf-8") as f:
            return json.load(f).get("config_hash")
    except (OSError, json.JSONDecodeError):
        return None


def _cmd_score(args):
    entries = _remap_audio_dir(_load_entries(args), args.audio_dir)
    model = detector.load_model(args.model)
    fc = model.feature_config
    records = []
    for e in entries:
        f = detector.extract_features(read_wav(e.path), fc)
        records.append(
            metrics.ScoreRecord(e.utterance_id, e.label, e.attack_id, detector.score(model, f))
        )
    metrics.write_score_file(args.out_scores, records, config_hash=_read_run_hash(args.audio_dir))
    print(f"scored {len(records)} utterances; scores: {args.out_scores}")
    return 0


def _parse_axis_values(axis, text):
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    if not tokens:
        raise ConfigError("no sweep values given")
    if axis in ("alpha", "snr_db"):
        try:
            return [float(t) for t in tokens]
        except ValueError as e:
            raise ConfigError(f"bad numeric value for axis {axis}: {e}") from e
    if axis == "skip_noise_addition":
        values = []
        for t in tokens:
            if t.lower() in ("on", "true", "1", "yes"):
                values.append(True)
            elif t.lower() in ("off", "false", "0", "no"):
                values.append(False)
            else:
                raise ConfigError(f"bad on/off value {t!r} for skip_noise_addition")
        return values
    return tokens


def _cmd_sweep(args):
    config = load_config(args.config) if args.config else PipelineConfig()
    values = _parse_axis_values(args.axis, args.values)
    train_entries = _load_entries(args, prefix="train-")
    eval_entries = _load_entries(args, prefix="eval-")
    params = pipeline.load_tdcf_params(args.tdcf_params)
    cells = pipeline.sweep(
        config,
        train_entries,
        eval_entries,
        args.axis,
        values,
        params,
        feature_config=_feature_config(args),
        include_raw_training=args.include_raw_training,
    )
    csv_text = pipeline.sweep_csv_text(cells)
    with open(args.out, "w", encoding="utf-8") as f:
        f.write(csv_text)
    sys.stdout.write(csv_text)
    return 1 if any(c.error is not None for c in cells) else 0


def _cmd_synth(args):
    def build(seed, prefix, out_dir):
        spec = SynthSpec(
            n_bonafide=args.n_bonafide,
            n_spoof=args.n_spoof,
            duration_s=args.duration,
            sample_rate=args.sample_rate,
            artifact_kind=args.artifact,
            artifact_strength=args.strength,
            seed=seed,
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
        parsed = metrics.parse_score_file(score_path)
        rows.extend(parsed.rows)
        if parsed.config_hash is not None:
            hashes.append((score_path, parsed.config_hash))
    distinct = {h for _, h in hashes}
    if len(distinct) > 1 and not args.force:
        detail = ", ".join(f"{os.path.basename(p)}={h}" for p, h in hashes)
        raise ConfigError(
            f"refusing to merge score files with differing config hashes ({detail}); "
            "pass --force to override"
        )
    records, n_extra = pipeline.join_scores(
        entries, rows, polarity_flip=args.flip_polarity, source="merged scores"
    )
    rep = metrics.report(records, params, group_by_attack=args.per_attack)
    sys.stdout.write(rep.text())
    if n_extra:
        print(f"(ignored {n_extra} score ids not in manifest)")
    if args.csv_out:
        with open(args.csv_out, "w", encoding="utf-8") as f:
            f.write(rep.csv_text())
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
    p.add_argument("--noise-color", default="white", choices=NOISE_COLORS)
    p.add_argument("--snr-db", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_mix)

    p = sub.add_parser("extract", help="extract the residual of raw vs enhanced audio")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--enhanced", required=True)
    p.add_argument("--mode", default="projection", choices=EXTRACTION_MODES)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_extract)

    p = sub.add_parser("amplify", help="add a scaled residual back onto audio")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--residual", required=True)
    p.add_argument("--alpha", type=float, default=1.4)
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
    p.add_argument("--n-bands", type=int, default=24)
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
    p.add_argument("--n-bands", type=int, default=24)
    p.add_argument("--include-raw-training", action="store_true")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("synth", help="generate a synthetic bona fide / spoof corpus")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--n-bonafide", type=int, required=True)
    p.add_argument("--n-spoof", type=int, required=True)
    p.add_argument("--duration", type=float, default=4.0)
    p.add_argument("--sample-rate", type=int, default=16000)
    p.add_argument("--artifact", default="comb_filter", choices=ARTIFACT_KINDS)
    p.add_argument("--strength", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
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
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (SpoofampError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
