"""Release acceptance suite.

Each test checks one release criterion end to end at its stated tolerance and
prints a single PASS/FAIL line (visible with pytest -s). Criteria 1, 2, and 6
also carry runtime budgets, asserted with wall-clock timings.
"""

import json
import os
import time

import numpy as np
import pytest

from test_metrics import UNIT_PARAMS, _eer_oracle, _min_tdcf_oracle, _records

from spoofamp.amplify import (
    amplify,
    extract_residual,
    process_utterance,
    process_utterance_details,
)
from spoofamp.audio import Waveform, crop_or_pad, read_wav
from spoofamp.config import RELEASE_SEED, PipelineConfig, derive_seed
from spoofamp.detector import FeatureConfig, extract_features, fit, score
from spoofamp.enhance import EnhancerKind
from spoofamp.metrics import ScoreRecord, eer, min_tdcf
from spoofamp.mixing import add_noise_at_snr
from spoofamp.noise import generate
from spoofamp.pipeline import load_tdcf_params, run_pipeline, sweep, sweep_csv_text
from spoofamp.synth import SynthSpec, synth_corpus

from conftest import measure_snr, psd_slope


def _report(n, ok, detail):
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_snr_roundtrip():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(500, 4000))
        x = Waveform(rng.standard_normal(n), 16000)
        noise = Waveform(rng.standard_normal(n), 16000)
        s = float(rng.uniform(-20.0, 40.0))
        y = add_noise_at_snr(x, noise, s)
        worst = max(worst, abs(measure_snr(x, y) - s))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 5.0
    _report(1, ok, f"1000 triples, max SNR error {worst:.3e} dB, {elapsed:.2f}s")


def test_criterion_2_projection_orthogonality():
    rng = np.random.default_rng(1002)
    start = time.perf_counter()
    worst_dot = 0.0
    worst_energy = 0.0
    for _ in range(1000):
        n = int(rng.integers(500, 8000))
        x = Waveform(rng.standard_normal(n), 16000)
        x_hat = Waveform(
            0.7 * x.samples + 0.5 * rng.standard_normal(n), 16000
        )
        r = extract_residual(x, x_hat, "projection")
        a = r.a_hat.samples
        dot = abs(float(np.dot(a, x_hat.samples)))
        bound = 1e-9 * np.linalg.norm(x.samples) * np.linalg.norm(x_hat.samples)
        worst_dot = max(worst_dot, dot / bound)
        lhs = x.energy()
        rhs = r.projection_weight**2 * x_hat.energy() + r.a_hat.energy()
        worst_energy = max(worst_energy, abs(lhs - rhs) / lhs)
    elapsed = time.perf_counter() - start
    ok = worst_dot <= 1.0 and worst_energy <= 1e-9 and elapsed < 5.0
    _report(
        2,
        ok,
        f"1000 pairs, worst residual dot {worst_dot:.3f} of bound, "
        f"worst energy split error {worst_energy:.3e} rel, {elapsed:.2f}s",
    )


def test_criterion_3_oracle_enhancer_fixpoint():
    rng = np.random.default_rng(1003)
    x = Waveform(rng.standard_normal(16000) * 0.1, 16000)
    enhancer = EnhancerKind("oracle_clean", {})
    worst = 0.0
    for alpha in (0.0, 0.6, 1.4, 2.0):
        config = PipelineConfig(enhancer="oracle_clean", alpha=alpha, global_seed=7)
        out = process_utterance(x, config, enhancer, noise_seed=7)
        worst = max(worst, float(np.max(np.abs(out.samples - x.samples))))
    ok = worst <= 1e-12
    _report(3, ok, f"alpha in {{0, 0.6, 1.4, 2.0}}, max sample diff {worst:.3e}")


def test_criterion_4_noise_color_slopes():
    targets = {"white": 0.0, "pink": -3.0, "violet": 6.0}
    details = []
    ok = True
    for color, target in targets.items():
        w = generate(color, 2**20, 16000, seed=1004)
        slope = psd_slope(w, 100.0, 6000.0)
        details.append(f"{color} {slope:+.3f}")
        ok = ok and abs(slope - target) <= 0.5
    _report(4, ok, "PSD slopes dB/octave: " + ", ".join(details))


def test_criterion_5_metric_oracles():
    rng = np.random.default_rng(1005)
    default_params = load_tdcf_params()
    worst_eer = 0.0
    worst_tdcf = 0.0
    for i in range(200):
        hi = 1001 if i % 10 == 0 else 101  # a tenth of the sets at full size
        nb = int(rng.integers(2, hi))
        ns = int(rng.integers(2, hi))
        if rng.random() < 0.3:
            bona = rng.integers(0, 12, nb) / 6.0 + 0.4
            spoof = rng.integers(0, 12, ns) / 6.0
        else:
            sep = float(rng.uniform(0.0, 2.0))
            bona = rng.standard_normal(nb) + sep
            spoof = rng.standard_normal(ns)
        recs = _records(bona, spoof)
        worst_eer = max(worst_eer, abs(eer(recs) - _eer_oracle(bona, spoof)))
        params = default_params if i % 2 else UNIT_PARAMS
        worst_tdcf = max(
            worst_tdcf, abs(min_tdcf(recs, params) - _min_tdcf_oracle(bona, spoof, params))
        )
    separated = eer(_records([0.9, 0.8, 0.7], [0.3, 0.2, 0.1]))
    hand = eer(_records([0.8, 0.4], [0.6, 0.2]))
    ok = (
        worst_eer <= 1e-12
        and worst_tdcf <= 1e-12
        and separated == 0.0
        and abs(hand - 0.25) <= 1e-12
    )
    _report(
        5,
        ok,
        f"200 sets: max |eer - oracle| {worst_eer:.2e}, "
        f"max |tdcf - oracle| {worst_tdcf:.2e}, separated {separated}, "
        f"4-record {hand}",
    )


def test_criterion_6_end_to_end_margin(tmp_path):
    start = time.perf_counter()
    config = PipelineConfig()  # release defaults: white, 0 dB, wiener, 1.4
    assert config.global_seed == RELEASE_SEED
    enhancer = EnhancerKind(config.enhancer, dict(config.enhancer_params))
    fc = FeatureConfig()

    splits = {}
    for split in ("train", "eval"):
        spec = SynthSpec(
            n_bonafide=200,
            n_spoof=200,
            duration_s=4.0,
            sample_rate=16000,
            artifact_kind="comb_filter",
            artifact_strength=0.3,
            seed=derive_seed(RELEASE_SEED, split),
        )
        entries, _ = synth_corpus(
            spec, str(tmp_path / split), prefix="SYN" + split[:2].upper()
        )
        feats = {"raw": [], "projection": [], "naive": []}
        labels = []
        for e in entries:
            x = crop_or_pad(
                read_wav(e.path),
                config.crop_seconds,
                derive_seed(config.global_seed, e.utterance_id, "crop"),
            )
            noise_seed = derive_seed(config.global_seed, e.utterance_id, "noise")
            details = process_utterance_details(x, config, enhancer, noise_seed)
            # naive extraction of the same enhanced signal: one enhancement per utterance
            naive = amplify(x, extract_residual(x, details.enhanced, "naive").a_hat, config.alpha)
            feats["raw"].append(extract_features(x, fc))
            feats["projection"].append(extract_features(details.x_tilde, fc))
            feats["naive"].append(extract_features(naive, fc))
            labels.append(e.label)
        splits[split] = (entries, feats, labels)

    eers = {}
    for variant in ("raw", "projection", "naive"):
        model = fit(splits["train"][1][variant], splits["train"][2], fc)
        entries, feats, _ = splits["eval"]
        recs = [
            ScoreRecord(e.utterance_id, e.label, e.attack_id, score(model, f))
            for e, f in zip(entries, feats[variant])
        ]
        eers[variant] = eer(recs)
    elapsed = time.perf_counter() - start
    margin_raw = eers["raw"] - eers["projection"]
    margin_naive = eers["naive"] - eers["projection"]
    ok = margin_raw >= 0.01 and margin_naive >= 0.01 and elapsed < 120.0
    _report(
        6,
        ok,
        f"eval EER raw {eers['raw']:.4f}, naive {eers['naive']:.4f}, "
        f"pipeline {eers['projection']:.4f}; margins {margin_raw:+.4f} / "
        f"{margin_naive:+.4f} (need >= 0.01), {elapsed:.1f}s",
    )


def test_criterion_7_sweep_grid(tmp_path):
    spec = SynthSpec(n_bonafide=8, n_spoof=8, duration_s=0.5, seed=77)
    entries, _ = synth_corpus(spec, str(tmp_path / "corpus"))
    config = PipelineConfig(crop_seconds=0.5, global_seed=77)
    fc = FeatureConfig(n_bands=6)
    grid = [
        ("snr_db", [-5.0, 0.0, 5.0, 10.0]),
        ("noise_color", ["white", "pink", "violet"]),
        ("skip_noise_addition", [True, False]),
    ]
    cells = []
    for axis, values in grid:
        cells.extend(
            sweep(config, entries, entries, axis, values, UNIT_PARAMS, feature_config=fc)
        )
    text = sweep_csv_text(cells)
    lines = text.strip().split("\n")
    n_cells = sum(len(v) for _, v in grid)
    ok = lines[0] == "axis,value,eer,min_tdcf,status" and len(lines) == 1 + n_cells
    for line in lines[1:]:
        fields = line.split(",")
        ok = ok and len(fields) == 5 and fields[4] == "ok"
        ok = ok and 0.0 <= float(fields[2]) <= 0.5 and 0.0 <= float(fields[3]) <= 1.0
    _report(7, ok, f"{n_cells} grid cells over 3 axes, one well-formed CSV row each")


def test_criterion_8_parallel_determinism(tmp_path):
    spec = SynthSpec(n_bonafide=10, n_spoof=10, duration_s=0.5, seed=88)
    entries, _ = synth_corpus(spec, str(tmp_path / "corpus"))
    base = PipelineConfig(crop_seconds=0.5, global_seed=88)
    dirs = {}
    for par in (1, 8):
        out = str(tmp_path / f"par{par}")
        result = run_pipeline(base.with_overrides(parallelism=par), entries, out)
        assert result.n_failed == 0
        dirs[par] = out
    names = sorted(os.listdir(dirs[1]))
    ok = names == sorted(os.listdir(dirs[8]))
    n_compared = 0
    for name in names:
        with open(os.path.join(dirs[1], name), "rb") as a:
            with open(os.path.join(dirs[8], name), "rb") as b:
                ok = ok and a.read() == b.read()
        n_compared += 1
    _report(
        8, ok, f"parallelism 1 vs 8: {n_compared} files (incl. run log) byte-identical"
    )
