"""EER and min t-DCF against brute-force oracles, plus score file parsing."""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spoofamp.errors import (
    ConfigError,
    DegenerateSignalError,
    ScoreFileError,
    UnwritablePathError,
)
from spoofamp.metrics import (
    LABELS,
    Report,
    ScoreRecord,
    TdcfParams,
    eer,
    min_tdcf,
    parse_score_file,
    report,
    tdcf_coefficients,
    write_score_file,
)

UNIT_PARAMS = TdcfParams(
    p_target=0.25, p_nontarget=0.25, p_spoof=0.5,
    c_miss=2.0, c_fa=1.0, c_fa_spoof=1.0,
    asv_pmiss=0.0, asv_pfa=0.0, asv_pmiss_spoof=0.0,
)  # C0 = 0, C1 = C2 = 0.5


def _records(bona, spoof):
    recs = [ScoreRecord(f"B{i}", "bonafide", "-", float(s)) for i, s in enumerate(bona)]
    recs += [ScoreRecord(f"S{i}", "spoof", "A01", float(s)) for i, s in enumerate(spoof)]
    return recs


def _operating_points(bona, spoof):
    """(p_fa, p_miss) at every distinct score plus +inf, by direct counting."""
    bona = np.asarray(bona, dtype=float)
    spoof = np.asarray(spoof, dtype=float)
    thresholds = sorted(set(bona.tolist()) | set(spoof.tolist())) + [np.inf]
    ops = []
    for tau in thresholds:
        p_miss = float(np.sum(bona < tau)) / bona.size
        p_fa = float(np.sum(spoof >= tau)) / spoof.size
        ops.append((p_fa, p_miss))
    return np.array(ops)


def _eer_oracle(bona, spoof):
    """Minimum diagonal value over every pair of operating points.

    Any convex combination of two achievable operating points is achievable
    (threshold randomization), so the smallest miss = false-alarm value over
    all segment-diagonal crossings is the EER.
    """
    ops = _operating_points(bona, spoof)
    f, m = ops[:, 0], ops[:, 1]
    d = m - f
    best = np.inf
    on_diag = f[d == 0.0]
    if on_diag.size:
        best = float(np.min(on_diag))
    dd = d[:, None] - d[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(dd != 0.0, d[:, None] / dd, np.nan)
        v = f[:, None] + t * (f[None, :] - f[:, None])
    valid = (t >= 0.0) & (t <= 1.0) & np.isfinite(v)
    if np.any(valid):
        best = min(best, float(np.min(v[valid])))
    return best


def _min_tdcf_oracle(bona, spoof, params):
    """Direct threshold enumeration of the normalized tandem cost."""
    c0 = (params.p_target * params.c_miss * params.asv_pmiss
          + params.p_nontarget * params.c_fa * params.asv_pfa)
    c1 = params.p_target * params.c_miss - c0
    c2 = params.p_spoof * params.c_fa_spoof * (1.0 - params.asv_pmiss_spoof)
    ops = _operating_points(bona, spoof)
    costs = c0 + c1 * ops[:, 1] + c2 * ops[:, 0]
    return float(np.min(costs) / (c0 + min(c1, c2)))


def _random_score_sets(n_sets, seed):
    rng = np.random.default_rng(seed)
    for _ in range(n_sets):
        nb = int(rng.integers(2, 60))
        ns = int(rng.integers(2, 60))
        if rng.random() < 0.3:
            # heavy ties from a coarse score grid
            bona = rng.integers(0, 8, nb) / 4.0 + 0.5
            spoof = rng.integers(0, 8, ns) / 4.0
        else:
            sep = float(rng.uniform(0.0, 2.0))
            bona = rng.standard_normal(nb) + sep
            spoof = rng.standard_normal(ns)
        yield np.asarray(bona, dtype=float), np.asarray(spoof, dtype=float)


class TestEer:
    def test_hand_four_records(self):
        assert eer(_records([0.8, 0.4], [0.6, 0.2])) == pytest.approx(0.25, abs=1e-12)

    def test_perfect_separation_exact_zero(self):
        assert eer(_records([0.9, 0.8, 0.7], [0.3, 0.2, 0.1])) == 0.0

    def test_total_overlap_is_half(self):
        assert eer(_records([0.5, 0.5], [0.5, 0.5])) == pytest.approx(0.5, abs=1e-12)

    def test_chance_level_on_random_labels(self):
        rng = np.random.default_rng(80)
        scores = rng.standard_normal(2000)
        assert eer(_records(scores[:1000], scores[1000:])) == pytest.approx(0.5, abs=0.05)

    def test_matches_pairwise_oracle_on_random_sets(self):
        for i, (bona, spoof) in enumerate(_random_score_sets(200, seed=81)):
            got = eer(_records(bona, spoof))
            want = _eer_oracle(bona, spoof)
            assert got == pytest.approx(want, abs=1e-12), f"set {i}"

    def test_large_set_against_oracle(self):
        rng = np.random.default_rng(82)
        bona = rng.standard_normal(500) + 1.0
        spoof = rng.standard_normal(500)
        got = eer(_records(bona, spoof))
        assert got == pytest.approx(_eer_oracle(bona, spoof), abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(83)
        bona = rng.standard_normal(50) + 0.5
        spoof = rng.standard_normal(60)
        base = eer(_records(bona, spoof))
        for fn in (np.exp, lambda s: 3.0 * s - 7.0, np.arctan):
            assert eer(_records(fn(bona), fn(spoof))) == pytest.approx(base, abs=1e-12)

    def test_label_swap_negate_invariance(self):
        rng = np.random.default_rng(84)
        bona = rng.standard_normal(40) + 0.3
        spoof = rng.standard_normal(55)
        base = eer(_records(bona, spoof))
        swapped = eer(_records(-spoof, -bona))
        assert swapped == pytest.approx(base, abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateSignalError, match="need both classes, got 1 bonafide and 0 spoof"):
            eer([ScoreRecord("B0", "bonafide", "-", 0.5)])


class TestMinTdcf:
    def test_matches_oracle_on_random_sets(self):
        rng = np.random.default_rng(86)
        for i, (bona, spoof) in enumerate(_random_score_sets(200, seed=87)):
            if rng.random() < 0.5:
                params = UNIT_PARAMS
            else:
                while True:
                    pri = rng.uniform(0.05, 1.0, 3)
                    pri /= pri.sum()
                    try:
                        params = TdcfParams(
                            p_target=float(pri[0]), p_nontarget=float(pri[1]),
                            p_spoof=float(pri[2]),
                            c_miss=float(rng.uniform(0.5, 10)), c_fa=float(rng.uniform(0.5, 10)),
                            c_fa_spoof=float(rng.uniform(0.5, 10)),
                            asv_pmiss=float(rng.uniform(0.0, 0.2)),
                            asv_pfa=float(rng.uniform(0.0, 0.2)),
                            asv_pmiss_spoof=float(rng.uniform(0.0, 0.5)),
                        )
                        break
                    except ConfigError:  # degenerate costs: draw again
                        pass
            got = min_tdcf(_records(bona, spoof), params)
            want = _min_tdcf_oracle(bona, spoof, params)
            assert got == pytest.approx(want, abs=1e-12), f"set {i}"

    def test_perfect_separation_zero_when_no_floor(self):
        recs = _records([0.9, 0.8], [0.2, 0.1])
        assert min_tdcf(recs, UNIT_PARAMS) == 0.0

    def test_hand_case_equal_costs(self):
        # C0 = 0 and C1 = C2: normalized cost is min(p_miss + p_fa) = 0.5
        recs = _records([0.8, 0.4], [0.6, 0.2])
        assert min_tdcf(recs, UNIT_PARAMS) == pytest.approx(0.5, abs=1e-12)

    def test_normalized_upper_bound(self):
        for bona, spoof in _random_score_sets(50, seed=88):
            v = min_tdcf(_records(bona, spoof), UNIT_PARAMS)
            assert 0.0 <= v <= 1.0 + 1e-12

    def test_coefficient_degeneracy_rejected(self):
        # asv_pmiss = 1 makes C1 = p_target*c_miss - C0 <= 0
        with pytest.raises(ConfigError, match="tandem cost coefficients degenerate: C1="):
            TdcfParams(
                p_target=0.5, p_nontarget=0.25, p_spoof=0.25,
                c_miss=1.0, c_fa=1.0, c_fa_spoof=1.0,
                asv_pmiss=1.0, asv_pfa=0.0, asv_pmiss_spoof=0.0,
            )

    def test_coefficients_formula(self):
        c0, c1, c2 = tdcf_coefficients(UNIT_PARAMS)
        assert c0 == 0.0
        assert c1 == pytest.approx(0.5)
        assert c2 == pytest.approx(0.5)


class TestValidation:
    def test_score_record_bad_label(self):
        with pytest.raises(DegenerateSignalError):
            ScoreRecord("U1", "genuine", "-", 0.5)

    def test_score_record_non_finite(self):
        for score, text in ((float("nan"), "nan"), (float("-inf"), "-inf")):
            with pytest.raises(DegenerateSignalError) as e:
                ScoreRecord("U1", "bonafide", "-", score)
            assert str(e.value) == f"score for 'U1' is not finite: {text}"

    def test_score_record_not_a_number(self):
        # a string, None or a bool is no number; the message shows it as it came
        for score, text in (("0.5", "'0.5'"), (None, "None"), (True, "True")):
            with pytest.raises(DegenerateSignalError) as e:
                ScoreRecord("U1", "bonafide", "-", score)
            assert str(e.value) == f"score for 'U1' is not a number: {text}"

    def test_tdcf_priors_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            TdcfParams(0.5, 0.5, 0.5, 1, 1, 1, 0, 0, 0)

    def test_tdcf_rates_in_range(self):
        with pytest.raises(ConfigError):
            TdcfParams(0.5, 0.25, 0.25, 1, 1, 1, 1.5, 0, 0)

    def test_tdcf_costs_nonnegative(self):
        with pytest.raises(ConfigError):
            TdcfParams(0.5, 0.25, 0.25, -1, 1, 1, 0, 0, 0)

    @pytest.mark.parametrize(
        "args, match",
        [
            (("a", 0.25, 0.25, 1, 1, 1, 0, 0, 0), r"p_target must lie in \[0, 1\], got a"),
            ((0.5, 0.25, 0.25, 1, "1", 1, 0, 0, 0), "c_fa must be finite and >= 0, got 1"),
            ((0.5, 0.25, 0.25, 1, 1, None, 0, 0, 0), "c_fa_spoof must be finite"),
        ],
        ids=["string_prior", "string_cost", "none_cost"],
    )
    def test_tdcf_non_number_field(self, args, match):
        with pytest.raises(ConfigError, match=match):
            TdcfParams(*args)


class TestReport:
    def test_single_attack_equals_pooled(self):
        rng = np.random.default_rng(89)
        recs = _records(rng.standard_normal(20) + 1, rng.standard_normal(20))
        rep = report(recs, UNIT_PARAMS, group_by_attack=True)
        assert rep.per_attack_eer == {"A01": rep.eer}

    def test_separated_attack_has_zero_eer(self):
        bona = [ScoreRecord(f"B{i}", "bonafide", "-", s) for i, s in
                enumerate([0.8, 0.7, 0.6, 0.55])]
        easy = [ScoreRecord(f"E{i}", "spoof", "A01", s) for i, s in enumerate([0.1, 0.2])]
        hard = [ScoreRecord(f"H{i}", "spoof", "A02", s) for i, s in enumerate([0.65, 0.75])]
        rep = report(bona + easy + hard, UNIT_PARAMS, group_by_attack=True)
        assert rep.per_attack_eer["A01"] == 0.0
        assert rep.per_attack_eer["A02"] > 0.0
        assert rep.eer > 0.0

    def test_grouping_off_gives_pooled_only(self):
        recs = _records([0.9, 0.8], [0.1, 0.2])
        rep = report(recs, UNIT_PARAMS, group_by_attack=False)
        assert rep.per_attack_eer == {}

    def test_counts(self):
        rep = report(_records([0.9, 0.8, 0.7], [0.1, 0.2]), UNIT_PARAMS)
        assert rep.n_bonafide == 3
        assert rep.n_spoof == 2

    def test_csv_shape(self):
        rep = Report(eer=0.125, min_tdcf=0.25, n_bonafide=4, n_spoof=4,
                     per_attack_eer={"A01": 0.5})
        text = rep.csv_text()
        lines = text.strip().split("\n")
        assert lines[0] == "scope,metric,value"
        assert "pooled,eer_percent,12.500000" in lines[1]
        assert "pooled,min_tdcf,0.250000" in lines[2]
        assert "attack:A01,eer_percent,50.000000" in lines[3]

    def test_text_contains_metrics(self):
        rep = report(_records([0.9, 0.8], [0.1, 0.2]), UNIT_PARAMS)
        text = rep.text()
        assert "pooled EER" in text
        assert "min t-DCF" in text


class TestScoreFiles:
    def test_missing_score_file(self, tmp_path):
        with pytest.raises(ScoreFileError, match="no such score file"):
            parse_score_file(str(tmp_path / "nope.txt"))

    def test_four_column_roundtrip(self, tmp_path):
        recs = _records([0.75, -0.001953125], [0.5])
        p = tmp_path / "scores.txt"
        write_score_file(str(p), recs, config_hash="0123456789abcdef")
        rows, chash = parse_score_file(str(p))
        assert chash == "0123456789abcdef"
        assert len(rows) == 3
        utt, attack, label, score = rows[0]
        assert (utt, attack, label) == ("B0", "-", "bonafide")
        assert score == recs[0].score  # repr round-trips floats exactly

    @pytest.mark.parametrize("config_hash", [None, "0123456789abcdef"], ids=["rows", "hash"])
    def test_byte_order_mark_is_not_part_of_the_first_line(self, tmp_path, config_hash):
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        write_score_file(str(plain), _records([0.75], [0.5]), config_hash=config_hash)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        rows, chash = parse_score_file(str(marked))
        assert (rows, chash) == parse_score_file(str(plain))
        assert (rows[0][0], chash) == ("B0", config_hash)

    def test_write_rejects_a_hash_not_of_config_hash_form(self, tmp_path):
        p = tmp_path / "scores.txt"
        with pytest.raises(ConfigError, match="is not 16 lowercase hex"):
            write_score_file(str(p), _records([0.5], [0.25]), config_hash="ab cd\n# x")
        assert not p.exists()

    @pytest.mark.parametrize(
        "record, match",
        [
            (ScoreRecord("SYN_B_0000", "bonafide", "", 1.5), "attack id ''"),
            (ScoreRecord("SYN_S_0000", "spoof", "A 01", 1.5), "attack id 'A 01'"),
            (ScoreRecord("SYN_S_0000", "spoof", "A\n01", 1.5), "attack id 'A\\n01'"),
            (ScoreRecord("a b", "spoof", "A01", 1.5), "utterance id 'a b'"),
            (ScoreRecord("", "spoof", "A01", 1.5), "utterance id ''"),
            (ScoreRecord("#U1", "spoof", "A01", 1.5), "utterance id '#U1'"),
        ],
    )
    def test_write_refuses_a_record_the_reader_would_split(self, tmp_path, record, match):
        p = tmp_path / "scores.txt"
        pattern = re.escape(f"{p}: record 2") + ".*" + re.escape(match)
        with pytest.raises(ScoreFileError, match=pattern):
            write_score_file(str(p), [_records([0.5], [])[0], record])
        assert not p.exists()

    # any text, lone surrogates too, which UTF-8 cannot encode
    _TEXT = st.text(st.characters(exclude_categories=()), max_size=6)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.lists(
            st.tuples(
                st.one_of(_TEXT, st.text("U#a1_-é\ud800", min_size=1, max_size=3)),  # often valid
                st.one_of(_TEXT, st.text("A#01-", min_size=1, max_size=3)),
                st.sampled_from(LABELS),
                # a numpy score once came out as "np.float64(...)"
                st.floats(allow_nan=False, allow_infinity=False).flatmap(
                    lambda x: st.sampled_from([x, np.float64(x)])
                ),
            ),
            max_size=4,
        ),
        st.one_of(st.none(), st.just("0123456789abcdef")),
    )
    def test_written_scores_read_back_equal(self, tmp_path, rows, config_hash):
        p = tmp_path / "scores.txt"
        if p.exists():
            p.unlink()
        records = [ScoreRecord(utt, label, attack, score) for utt, attack, label, score in rows]
        try:
            write_score_file(str(p), records, config_hash=config_hash)
        except ScoreFileError:
            assert not p.exists()
            return
        assert parse_score_file(str(p)) == (list(rows), config_hash)

    def test_two_column_format(self, tmp_path):
        p = tmp_path / "scores.txt"
        p.write_text("U1 0.5\nU2 -1.25\n")
        rows, chash = parse_score_file(str(p))
        assert rows == [("U1", None, None, 0.5), ("U2", None, None, -1.25)]
        assert chash is None

    def test_crlf_and_cr_line_ends(self, tmp_path):
        p = tmp_path / "scores.txt"
        p.write_bytes(b"# config_hash=00000000000abc00\r\nU1 0.5\r\nU2 -1.25\rU3 x y\r\n")
        with pytest.raises(ScoreFileError, match=r":4: expected 2 or 4"):
            parse_score_file(str(p))
        p.write_bytes(b"# config_hash=00000000000abc00\r\nU1 0.5\r\nU2 -1.25\r")
        rows, chash = parse_score_file(str(p))
        assert chash == "00000000000abc00"
        assert rows == [("U1", None, None, 0.5), ("U2", None, None, -1.25)]

    def test_write_to_directory_unwritable(self, tmp_path):
        with pytest.raises(UnwritablePathError, match=f"cannot write {tmp_path}"):
            write_score_file(str(tmp_path), _records([0.5], [0.25]))

    def test_comments_and_blanks_skipped(self, tmp_path):
        p = tmp_path / "scores.txt"
        p.write_text("# a comment\n\nU1 0.5\n")
        rows, _ = parse_score_file(str(p))
        assert len(rows) == 1

    def test_differing_config_hashes_refused(self, tmp_path):
        # two files from two configs, concatenated, must not pass as one
        p = tmp_path / "scores.txt"
        p.write_text("# config_hash=0123456789abcdef\nU1 0.5\n# config_hash=fedcba9876543210\nU2 0.25\n")
        message = f"{p}:3: config hash 'fedcba9876543210' differs from '0123456789abcdef' above"
        with pytest.raises(ScoreFileError, match=re.escape(message)):
            parse_score_file(str(p))

    @pytest.mark.parametrize("value", ["zz", "", "abc", "0123456789ABCDEF", "0123456789abcdef0"])
    def test_malformed_config_hash_refused(self, tmp_path, value):
        p = tmp_path / "scores.txt"
        p.write_text(f"U1 0.5\n# config_hash={value}\nU2 0.25\n")
        message = f"{p}:2: config hash {value!r} is not 16 lowercase hex"
        with pytest.raises(ScoreFileError, match=re.escape(message)):
            parse_score_file(str(p))

    def test_repeated_equal_config_hash_loads(self, tmp_path):
        p = tmp_path / "scores.txt"
        p.write_text("# config_hash=0123456789abcdef\nU1 0.5\n# config_hash=0123456789abcdef\n")
        assert parse_score_file(str(p)) == ([("U1", None, None, 0.5)], "0123456789abcdef")

    def test_bad_column_count(self, tmp_path):
        p = tmp_path / "scores.txt"
        p.write_text("U1 A01 0.5\n")
        with pytest.raises(ScoreFileError):
            parse_score_file(str(p))

    def test_bad_label(self, tmp_path):
        p = tmp_path / "scores.txt"
        p.write_text("U1 A01 genuine 0.5\n")
        with pytest.raises(ScoreFileError):
            parse_score_file(str(p))

    def test_bad_score(self, tmp_path):
        p = tmp_path / "scores.txt"
        p.write_text("U1 abc\n")
        with pytest.raises(ScoreFileError):
            parse_score_file(str(p))

    def test_non_finite_score(self, tmp_path):
        p = tmp_path / "scores.txt"
        p.write_text("U1 nan\n")
        with pytest.raises(ScoreFileError):
            parse_score_file(str(p))
