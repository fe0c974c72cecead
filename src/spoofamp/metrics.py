"""Equal error rate and normalized minimum tandem detection cost.

Score polarity is fixed: higher scores mean more bona fide. Both metrics read
the DET staircase of (p_miss, p_fa) over all distinct score thresholds, where
p_miss is the fraction of bona fide scores below the threshold and p_fa the
fraction of spoof scores at or above it, ending at (1, 0) for +inf. The EER
is where miss and false-alarm rates meet, computed on the lower convex
envelope of the DET operating points with linear interpolation between the
two achievable points bracketing the miss = false-alarm diagonal.
"""

import numbers
from dataclasses import dataclass, field

import numpy as np

from ._files import _read_text, _utf8, _write_file
from .errors import (
    ConfigError,
    DegenerateSignalError,
    ScoreFileError,
    _is_finite_number,
)

LABELS = ("bonafide", "spoof")


@dataclass(frozen=True)
class ScoreRecord:
    """One scored trial: id, class label, attack id, detector score."""

    utterance_id: str
    label: str
    attack_id: str
    score: float

    def __post_init__(self):
        if self.label not in LABELS:
            raise DegenerateSignalError(f"label must be one of {LABELS}, got {self.label!r}")
        if not isinstance(self.score, numbers.Real) or isinstance(self.score, bool):
            raise DegenerateSignalError(
                f"score for {self.utterance_id!r} is not a number: {self.score!r}"
            )
        if not _is_finite_number(self.score):
            raise DegenerateSignalError(
                f"score for {self.utterance_id!r} is not finite: {self.score}"
            )


@dataclass(frozen=True)
class TdcfParams:
    """Priors, costs, and ASV operating point for the tandem cost.

    asv_pmiss / asv_pfa are the ASV miss and false-alarm rates on target and
    nontarget trials; asv_pmiss_spoof is the ASV miss rate on spoof trials
    (the fraction of spoofs the ASV already rejects on its own).
    """

    p_target: float
    p_nontarget: float
    p_spoof: float
    c_miss: float
    c_fa: float
    c_fa_spoof: float
    asv_pmiss: float
    asv_pfa: float
    asv_pmiss_spoof: float

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            v = getattr(self, name)
            if name.startswith("c_"):  # a cost; every other field is a probability
                if not (_is_finite_number(v) and v >= 0.0):
                    raise ConfigError(f"{name} must be finite and >= 0, got {v}")
            elif not (_is_finite_number(v) and 0.0 <= v <= 1.0):
                raise ConfigError(f"{name} must lie in [0, 1], got {v}")
        total = self.p_target + self.p_nontarget + self.p_spoof
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"priors must sum to 1, got {total}")
        _c0, c1, c2 = tdcf_coefficients(self)
        if c1 <= 0.0 or c2 <= 0.0:  # the normalized min t-DCF needs both positive
            raise ConfigError(f"tandem cost coefficients degenerate: C1={c1}, C2={c2}")


def _check_both_classes(labels):  # no EER or t-DCF is defined on one class
    n_bona, n_spoof = labels.count("bonafide"), labels.count("spoof")
    if n_bona == 0 or n_spoof == 0:
        raise DegenerateSignalError(f"need both classes, got {n_bona} bonafide and {n_spoof} spoof")


def _det(records):
    """p_miss and p_fa at every distinct score and at +inf."""
    _check_both_classes([r.label for r in records])
    bona = np.sort(np.array([r.score for r in records if r.label == "bonafide"], dtype=np.float64))
    spoof = np.sort(np.array([r.score for r in records if r.label == "spoof"], dtype=np.float64))
    thresholds = np.concatenate([np.unique(np.concatenate([bona, spoof])), [np.inf]])
    p_miss = np.searchsorted(bona, thresholds, side="left") / bona.size
    p_fa = (spoof.size - np.searchsorted(spoof, thresholds, side="left")) / spoof.size
    return p_miss, p_fa


def _lower_hull(points):
    """Lower convex hull of (x, y) points sorted by ascending x."""
    hull = []
    for p in points:
        while len(hull) >= 2:
            ox, oy = hull[-2]
            ax, ay = hull[-1]
            cross = (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox)
            if cross <= 0.0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def eer(records):
    """Equal error rate on the lower convex envelope of the DET points."""
    p_miss, p_fa = _det(records)
    # keep the best (lowest) miss rate at each distinct false-alarm rate: p_fa
    # falls and p_miss rises with the threshold, so that is the rate's first index
    fa, first = np.unique(p_fa, return_index=True)
    hull = _lower_hull(list(zip(fa, p_miss[first])))
    # d = p_miss - p_fa falls along the hull from p_miss >= 0 at p_fa = 0 to -1 at
    # (1, 0): the crossing ends at the first point with d <= 0, and d > 0 before it
    i = next(i for i, (f, m) in enumerate(hull) if m - f <= 0.0)
    (f0, m0), (f, m) = hull[i - 1], hull[i]
    d0, d = m0 - f0, m - f
    if d == 0.0:
        return float(f)
    return float(f0 + d0 / (d0 - d) * (f - f0))


def tdcf_coefficients(params):
    """Constant, miss, and false-alarm coefficients of the tandem cost.

    C0 is the cost floor set by the ASV system's own errors; C1 scales the
    countermeasure's miss rate on bona fide trials and C2 its false-alarm
    rate on spoof trials.
    """
    c0 = (
        params.p_target * params.c_miss * params.asv_pmiss
        + params.p_nontarget * params.c_fa * params.asv_pfa
    )
    c1 = params.p_target * params.c_miss - c0
    c2 = params.p_spoof * params.c_fa_spoof * (1.0 - params.asv_pmiss_spoof)
    return c0, c1, c2


def min_tdcf(records, params):
    """Normalized minimum tandem detection cost over all thresholds.

    min over thresholds of C0 + C1*p_miss + C2*p_fa, divided by the default
    decision cost C0 + min(C1, C2).

    Raises
    ------
    DegenerateSignalError
        Records hold only one class.
    """
    p_miss, p_fa = _det(records)
    c0, c1, c2 = tdcf_coefficients(params)
    costs = c0 + c1 * p_miss + c2 * p_fa
    return float(np.min(costs) / (c0 + min(c1, c2)))


@dataclass(frozen=True)
class Report:
    """Pooled and per-attack evaluation results."""

    eer: float
    min_tdcf: float
    n_bonafide: int
    n_spoof: int
    per_attack_eer: dict = field(default_factory=dict)

    def csv_text(self):
        """Machine-readable rows: scope, metric, value."""
        lines = [
            "scope,metric,value",
            f"pooled,eer_percent,{100.0 * self.eer:.6f}",
            f"pooled,min_tdcf,{self.min_tdcf:.6f}",
        ]
        for attack in sorted(self.per_attack_eer):
            lines.append(f"attack:{attack},eer_percent,{100.0 * self.per_attack_eer[attack]:.6f}")
        return "\n".join(lines) + "\n"

    def text(self):
        lines = [
            f"trials: {self.n_bonafide} bonafide, {self.n_spoof} spoof",
            f"pooled EER: {100.0 * self.eer:.4f} %",
            f"pooled min t-DCF: {self.min_tdcf:.6f}",
        ]
        for attack in sorted(self.per_attack_eer):
            lines.append(f"attack {attack} EER: {100.0 * self.per_attack_eer[attack]:.4f} %")
        return "\n".join(lines) + "\n"


def report(records, params, group_by_attack=False):
    """Pooled EER and min t-DCF, optionally with per-attack EER.

    Each attack's EER pools that attack's spoof scores against all bona fide
    scores.
    """
    records = list(records)
    pooled_eer = eer(records)
    pooled_tdcf = min_tdcf(records, params)
    n_bona = sum(1 for r in records if r.label == "bonafide")
    n_spoof = len(records) - n_bona
    per_attack = {}
    if group_by_attack:
        bona_records = [r for r in records if r.label == "bonafide"]
        attacks = sorted({r.attack_id for r in records if r.label == "spoof"})
        for attack in attacks:
            subset = bona_records + [
                r for r in records if r.label == "spoof" and r.attack_id == attack
            ]
            per_attack[attack] = eer(subset)
    return Report(
        eer=pooled_eer,
        min_tdcf=pooled_tdcf,
        n_bonafide=n_bona,
        n_spoof=n_spoof,
        per_attack_eer=per_attack,
    )


def parse_score_file(path):
    """Read a score file with 4-column (id attack label score) or 2-column
    (id score) whitespace-separated lines. Lines starting with '#' are
    comments; '# config_hash=<hex>' is captured for merge checking. A hash
    that is not 16 lowercase hex digits, or a second one that differs from
    the first, raises ScoreFileError.

    Returns (rows, config_hash): rows of (utterance_id, attack_id or None,
    label or None, score), and the hash or None.
    """
    rows = []
    config_hash = None
    lines = _read_text(path, "score file", ScoreFileError).split("\n")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("config_hash="):
                value = body.split("=", 1)[1].strip()
                if not _is_config_hash(value):
                    raise ScoreFileError(
                        f"{path}:{lineno}: config hash {value!r} is not 16 lowercase hex"
                    )
                if config_hash not in (None, value):
                    raise ScoreFileError(
                        f"{path}:{lineno}: config hash {value!r} differs from {config_hash!r} above"
                    )
                config_hash = value
            continue
        tokens = line.split()
        if len(tokens) == 4:
            utt, attack, label, score_s = tokens
            if label not in LABELS:
                raise ScoreFileError(
                    f"{path}:{lineno}: unknown label {label!r} (expected one of {LABELS})"
                )
        elif len(tokens) == 2:
            utt, score_s = tokens
            attack, label = None, None
        else:
            raise ScoreFileError(
                f"{path}:{lineno}: expected 2 or 4 whitespace-separated fields, "
                f"got {len(tokens)}"
            )
        try:
            score = float(score_s)
        except ValueError as e:
            raise ScoreFileError(f"{path}:{lineno}: bad score {score_s!r}") from e
        if not np.isfinite(score):
            raise ScoreFileError(f"{path}:{lineno}: non-finite score {score_s!r}")
        rows.append((utt, attack, label, score))
    return rows, config_hash


def _is_config_hash(value):
    """Whether value has the form config.config_hash writes: 16 lowercase hex digits."""
    return isinstance(value, str) and len(value) == 16 and set(value) <= set("0123456789abcdef")


def _is_token(value):
    """Whether value is a string that str.split() reads back as itself alone."""
    return isinstance(value, str) and value.split() == [value]


def write_score_file(path, records, config_hash=None):
    """Write records as 4-column score lines, with an optional config hash
    comment header; parse_score_file reads them back as the same rows.

    Raises
    ------
    ConfigError
        A hash not of config.config_hash's form.
    ScoreFileError
        Before anything is written, for a record whose utterance id or
        attack id is not one token of UTF-8 text without whitespace, or
        whose id starts with '#', which would read back as a comment.
    """
    if config_hash is not None and not _is_config_hash(config_hash):
        raise ConfigError(f"config_hash {config_hash!r} is not 16 lowercase hex")
    lines = [f"# config_hash={config_hash}\n".encode()] if config_hash else []
    for i, r in enumerate(records, start=1):
        if not _is_token(r.utterance_id) or r.utterance_id.startswith("#"):
            raise ScoreFileError(
                f"{path}: record {i}: utterance id {r.utterance_id!r} must be one token "
                "without whitespace, not starting with '#'"
            )
        if not _is_token(r.attack_id):
            raise ScoreFileError(
                f"{path}: record {i} ({r.utterance_id}): attack id {r.attack_id!r} must be "
                "one token without whitespace; use '-' for none"
            )
        line = f"{r.utterance_id} {r.attack_id} {r.label} {float(r.score)!r}\n"
        lines.append(_utf8(line, f"{path}: record {i}", ScoreFileError))
    _write_file(path, b"".join(lines))
