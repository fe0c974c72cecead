"""Manifest parsing for both supported formats."""

import logging
import os
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spoofamp.errors import ConfigError, ManifestError, UnwritablePathError
from spoofamp.manifest import ManifestEntry, load_manifest, write_manifest
from spoofamp.metrics import LABELS


class TestProtocolFormat:
    def test_basic_line(self, tmp_path):
        p = tmp_path / "protocol.txt"
        p.write_text(
            "LA_0079 LA_T_1138215 - - bonafide\n"
            "LA_0079 LA_T_1271820 - A01 spoof\n"
        )
        entries = load_manifest(str(p), fmt="asvspoof_protocol", audio_root=str(tmp_path))
        assert entries[0] == ManifestEntry(
            utterance_id="LA_T_1138215",
            path=str(tmp_path / "LA_T_1138215.wav"),
            label="bonafide",
            attack_id="-",
        )
        assert entries[1].label == "spoof"
        assert entries[1].attack_id == "A01"

    def test_wav_preferred_over_flac(self, tmp_path):
        # a .wav beside a .flac is read; an id with only a .flac fails at load,
        # as FLAC is not read, not once per utterance in the run
        (tmp_path / "U1.wav").write_bytes(b"")
        (tmp_path / "U1.flac").write_bytes(b"")
        (tmp_path / "U2.flac").write_bytes(b"")
        p = tmp_path / "protocol.txt"
        p.write_text("S U1 - - bonafide\n")
        entries = load_manifest(str(p), fmt="asvspoof_protocol", audio_root=str(tmp_path))
        assert entries[0].path == str(tmp_path / "U1.wav")
        p.write_text("S U1 - - bonafide\nS U2 - A01 spoof\n")
        with pytest.raises(ManifestError) as e:
            load_manifest(str(p), fmt="asvspoof_protocol", audio_root=str(tmp_path))
        assert str(e.value) == (
            f"{p}:2: {tmp_path / 'U2.flac'}: FLAC is not read; "
            "convert the corpus to PCM16 or float32 WAV"
        )

    def test_missing_audio_defaults_to_wav_name(self, tmp_path):
        p = tmp_path / "protocol.txt"
        p.write_text("S U9 - - bonafide\n")
        entries = load_manifest(str(p), fmt="asvspoof_protocol", audio_root=str(tmp_path))
        assert entries[0].path.endswith("U9.wav")

    def test_audio_root_required(self, tmp_path):
        p = tmp_path / "protocol.txt"
        p.write_text("S U1 - - bonafide\n")
        with pytest.raises(ConfigError):
            load_manifest(str(p), fmt="asvspoof_protocol")

    def test_wrong_field_count_cites_line(self, tmp_path):
        p = tmp_path / "protocol.txt"
        p.write_text("S U1 - - bonafide\nS U2 spoof\n")
        with pytest.raises(ManifestError, match=":2:"):
            load_manifest(str(p), fmt="asvspoof_protocol", audio_root=str(tmp_path))

    def test_unknown_key_token(self, tmp_path):
        p = tmp_path / "protocol.txt"
        p.write_text("S U1 - - genuine\n")
        with pytest.raises(ManifestError, match="genuine"):
            load_manifest(str(p), fmt="asvspoof_protocol", audio_root=str(tmp_path))


class TestTsvFormat:
    def test_basic_line(self, tmp_path):
        p = tmp_path / "manifest.tsv"
        p.write_text("U1\t/abs/u1.wav\tbonafide\t-\n")
        entries = load_manifest(str(p))
        assert entries == [ManifestEntry("U1", "/abs/u1.wav", "bonafide", "-")]

    def test_relative_path_resolves_against_manifest_dir(self, tmp_path):
        sub = tmp_path / "corpus"
        sub.mkdir()
        p = sub / "manifest.tsv"
        p.write_text("U1\taudio/u1.wav\tspoof\tA02\n")
        entries = load_manifest(str(p))
        assert entries[0].path == str(sub / "audio" / "u1.wav")

    def test_wrong_field_count(self, tmp_path):
        p = tmp_path / "manifest.tsv"
        p.write_text("U1\tu1.wav\tbonafide\n")
        with pytest.raises(ManifestError, match=":1:"):
            load_manifest(str(p))

    def test_space_separated_rejected(self, tmp_path):
        p = tmp_path / "manifest.tsv"
        p.write_text("U1 u1.wav bonafide -\n")
        with pytest.raises(ManifestError):
            load_manifest(str(p))

    def test_unknown_label(self, tmp_path):
        p = tmp_path / "manifest.tsv"
        p.write_text("U1\tu1.wav\tgenuine\t-\n")
        with pytest.raises(ManifestError, match="genuine"):
            load_manifest(str(p))

    @pytest.mark.parametrize("attack", ["A 01", "", " A01", "A01\x0b"])
    def test_attack_id_that_is_not_one_token_cites_line(self, tmp_path, attack):
        # score files separate fields by whitespace, so such an id would split a score line
        p = tmp_path / "m.tsv"
        p.write_text(f"U1\ta.wav\tbonafide\t-\nU2\tb.wav\tspoof\t{attack}\n")
        want = f"{p}:2: attack id {attack!r} must be one token without whitespace; use '-'"
        with pytest.raises(ManifestError, match=re.escape(want)):
            load_manifest(str(p))


class TestSharedBehavior:
    def test_unknown_format(self, tmp_path):
        with pytest.raises(ConfigError):
            load_manifest(str(tmp_path / "x"), fmt="csv")

    def test_missing_manifest_file(self, tmp_path):
        with pytest.raises(ManifestError, match="no such manifest file"):
            load_manifest(str(tmp_path / "nope.tsv"))

    def test_duplicate_id_cites_both_lines(self, tmp_path):
        p = tmp_path / "manifest.tsv"
        p.write_text(
            "U1\ta.wav\tbonafide\t-\n"
            "U2\tb.wav\tspoof\tA01\n"
            "U1\tc.wav\tspoof\tA01\n"
        )
        with pytest.raises(ManifestError, match=r"duplicate utterance id 'U1' on lines 1 and 3"):
            load_manifest(str(p))

    @pytest.mark.parametrize("utt", ["../x", "a/b", "U 1", "", "#U1"])
    def test_id_that_cannot_name_a_file_cites_line(self, tmp_path, utt):
        p = tmp_path / "m.tsv"
        p.write_text(f"OK\ta.wav\tbonafide\t-\n{utt}\tb.wav\tspoof\tA01\n")
        with pytest.raises(ManifestError, match=re.escape(f"{p}:2: utterance id {utt!r}")):
            load_manifest(str(p))

    @pytest.mark.parametrize("utt", ["../x", "a/b", "#U1"])
    def test_protocol_id_that_cannot_name_a_file(self, tmp_path, utt):
        p = tmp_path / "protocol.txt"
        p.write_text(f"S {utt} - A01 spoof\n")
        with pytest.raises(ManifestError, match=re.escape(f"{p}:1: utterance id {utt!r}")):
            load_manifest(str(p), fmt="asvspoof_protocol", audio_root=str(tmp_path))

    def test_crlf_and_cr_line_ends(self, tmp_path):
        p = tmp_path / "manifest.tsv"
        p.write_bytes(b"U1\ta.wav\tbonafide\t-\r\nU2\tb.wav\tspoof\tA01\rU1\tc.wav\tspoof\t-\r\n")
        with pytest.raises(ManifestError, match=r"duplicate utterance id 'U1' on lines 1 and 3"):
            load_manifest(str(p))
        p.write_bytes(b"U1\ta.wav\tbonafide\t-\r\nU2\tb.wav\tspoof\tA01\r")
        assert [e.attack_id for e in load_manifest(str(p))] == ["-", "A01"]

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "manifest.tsv"
        p.write_text("\nU1\ta.wav\tbonafide\t-\n\n")
        assert len(load_manifest(str(p))) == 1

    def test_byte_order_mark_is_not_part_of_the_first_id(self, tmp_path):
        # Excel and Notepad save UTF-8 with a leading byte-order mark
        text = "U1\tU1.wav\tbonafide\t-\nU2\tU2.wav\tspoof\tA01\n"
        plain, marked = tmp_path / "plain.tsv", tmp_path / "marked.tsv"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(text.encode("utf-8-sig"))
        entries = load_manifest(str(marked))
        assert entries == load_manifest(str(plain))
        assert entries[0].utterance_id == "U1"

    def test_empty_manifest_warns_but_succeeds(self, tmp_path, caplog):
        p = tmp_path / "manifest.tsv"
        p.write_text("")
        with caplog.at_level(logging.WARNING, logger="spoofamp.manifest"):
            entries = load_manifest(str(p))
        assert entries == []
        assert any("empty" in r.message for r in caplog.records)


class TestWriteManifest:
    def test_roundtrip_with_relative_storage(self, tmp_path):
        audio = tmp_path / "audio"
        audio.mkdir()
        entries = [
            ManifestEntry("U1", str(audio / "u1.wav"), "bonafide", "-"),
            ManifestEntry("U2", "/elsewhere/u2.wav", "spoof", "A01"),
        ]
        p = tmp_path / "manifest.tsv"
        write_manifest(str(p), entries)
        text = p.read_text()
        assert os.path.join("audio", "u1.wav") + "\t" in text  # stored relative
        assert "/elsewhere/u2.wav" in text  # outside paths stay absolute
        assert load_manifest(str(p)) == entries

    def test_missing_directory_unwritable(self, tmp_path):
        path = str(tmp_path / "no" / "manifest.tsv")
        with pytest.raises(UnwritablePathError, match=f"cannot write {path}"):
            write_manifest(path, [ManifestEntry("U1", "u1.wav", "bonafide", "-")])

    @pytest.mark.parametrize(
        "entry, match",
        [
            (ManifestEntry("a\tb", "/x.wav", "bonafide", "-"), "utterance id 'a\\tb'"),
            (ManifestEntry("a b", "/x.wav", "bonafide", "-"), "utterance id 'a b'"),
            (ManifestEntry("a/b", "/x.wav", "bonafide", "-"), "utterance id 'a/b'"),
            (ManifestEntry("U2", "/x\ny.wav", "bonafide", "-"), "path '/x\\ny.wav'"),
            (ManifestEntry("U2", "/x.wav", "maybe", "-"), "unknown label 'maybe'"),
            (ManifestEntry("U2", "/x\ty.wav", "spoof", "A01"), "path"),
            (ManifestEntry("U2", "/x.wav", "spoof", "A\r01"), "attack id"),
            (ManifestEntry("U2", "/x.wav", "spoof", "A\t01"), "attack id"),
            (ManifestEntry("U2", "/x.wav", "spoof", "A 01"), "attack id 'A 01'"),
            (ManifestEntry("U2", "/x.wav", "bonafide", ""), "attack id ''"),
            (ManifestEntry("#U1", "/x.wav", "bonafide", "-"), "utterance id '#U1'"),
        ],
    )
    def test_entry_the_reader_would_refuse_is_not_written(self, tmp_path, entry, match):
        p = tmp_path / "m.tsv"
        ok = ManifestEntry("U1", "/u1.wav", "bonafide", "-")
        pattern = re.escape(f"{p}: entry 2: ") + ".*" + re.escape(match)
        with pytest.raises(ManifestError, match=pattern):
            write_manifest(str(p), [ok, entry])
        assert not p.exists()

    def test_duplicate_id_is_not_written(self, tmp_path):
        p = tmp_path / "m.tsv"
        entries = [ManifestEntry(u, "/x.wav", "spoof", "-") for u in ("U1", "U2", "U1")]
        with pytest.raises(ManifestError, match="duplicate utterance id 'U1' in entries 1 and 3"):
            write_manifest(str(p), entries)
        assert not p.exists()

    def test_path_of_the_manifest_directory_reads_back(self, tmp_path):
        p = tmp_path / "m.tsv"
        entries = [ManifestEntry("U1", str(tmp_path), "bonafide", "-")]
        write_manifest(str(p), entries)
        assert load_manifest(str(p)) == entries

    # any text, lone surrogates too, which UTF-8 cannot encode
    _TEXT = st.text(st.characters(exclude_categories=()), max_size=6)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.lists(
            st.tuples(
                st.one_of(_TEXT, st.text("Ua1_.-é\ud800", min_size=1, max_size=3)),  # often valid
                st.booleans(),
                _TEXT,
                st.sampled_from(LABELS * 4 + ("maybe",)),
                _TEXT,
            ),
            max_size=4,
        )
    )
    def test_written_manifest_reads_back_equal(self, tmp_path, rows):
        p = tmp_path / "m.tsv"
        if p.exists():
            p.unlink()
        entries = [
            ManifestEntry(utt, os.path.join(str(tmp_path) if inside else "/elsewhere", name),
                          label, attack)
            for utt, inside, name, label, attack in rows
        ]
        try:
            write_manifest(str(p), entries)
        except ManifestError:
            assert not p.exists()
            return
        want = [ManifestEntry(e.utterance_id, os.path.abspath(e.path), e.label, e.attack_id)
                for e in entries]
        assert load_manifest(str(p)) == want
