"""Corpus manifest ingestion in two formats.

asvspoof_protocol: whitespace-separated `speaker_id utterance_id - attack_id
key` lines with key in {bonafide, spoof}; audio paths resolve to
<audio_root>/<utterance_id>.wav, and an id with only a .flac file is refused.

simple_tsv: tab-separated `utterance_id path label attack_id`; relative paths
resolve against the manifest's directory.
"""

import logging
import os
from dataclasses import dataclass

from ._files import _read_text, _utf8, _write_file
from .errors import ConfigError, ManifestError
from .metrics import LABELS, _is_token

MANIFEST_FORMATS = ("asvspoof_protocol", "simple_tsv")

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ManifestEntry:
    """One corpus item: id, resolved audio path, class label, attack id."""

    utterance_id: str
    path: str
    label: str
    attack_id: str


def _resolve_protocol_path(where, audio_root, utterance_id):
    wav = os.path.join(audio_root, utterance_id + ".wav")
    flac = os.path.join(audio_root, utterance_id + ".flac")
    if not os.path.isfile(wav) and os.path.isfile(flac):  # fail at load, not per utterance
        raise ManifestError(
            f"{where}: {flac}: FLAC is not read; convert the corpus to PCM16 or float32 WAV"
        )
    # with no file on disk yet, the wav name: the reader reports it missing
    return wav


def _check_entry(where, utterance_id, label, attack_id):
    """The id names the entry's output files and a score line, the label is
    one of LABELS, and the attack id is one field of a score line."""
    if not _is_token(utterance_id) or any(c in utterance_id for c in ("/", os.sep, "\0")):
        raise ManifestError(f"{where}: utterance id {utterance_id!r} cannot name a file")
    if utterance_id.startswith("#"):  # a score file reads the line as a comment
        raise ManifestError(f"{where}: utterance id {utterance_id!r} must not start with '#'")
    if label not in LABELS:
        raise ManifestError(f"{where}: unknown label {label!r} (expected one of {LABELS})")
    if not _is_token(attack_id):
        raise ManifestError(
            f"{where}: attack id {attack_id!r} must be one token without whitespace; "
            "use '-' for none"
        )


def _check_entries(path, entries):
    """The entries as a list; write_manifest's id, label and attack id rules raise
    ManifestError naming path and the entry. Run before a file is named by id."""
    entries = list(entries)
    seen = {}
    for i, e in enumerate(entries, start=1):
        _check_entry(f"{path}: entry {i}", e.utterance_id, e.label, e.attack_id)
        if e.utterance_id in seen:
            raise ManifestError(
                f"{path}: duplicate utterance id {e.utterance_id!r} "
                f"in entries {seen[e.utterance_id]} and {i}"
            )
        seen[e.utterance_id] = i
    return entries


def load_manifest(path, fmt="simple_tsv", audio_root=None):
    """Parse a manifest file into a list of ManifestEntry.

    Raises
    ------
    ConfigError
        Unknown format, or asvspoof_protocol without an audio_root.
    ManifestError
        Missing or unreadable file, malformed line (message cites the line
        number), unknown label, an id that cannot name a file, starts with
        '#' or has only a FLAC audio file, an attack id that is not one
        token, or a repeated utterance id (message cites both line numbers).
    """
    if fmt not in MANIFEST_FORMATS:
        raise ConfigError(f"unknown manifest format {fmt!r}; choose from {MANIFEST_FORMATS}")
    if fmt == "asvspoof_protocol" and not audio_root:
        raise ConfigError("asvspoof_protocol manifests need an audio root directory")
    entries = []
    seen = {}
    base_dir = os.path.dirname(os.path.abspath(path))
    lines = _read_text(path, "manifest file", ManifestError).split("\n")
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        if fmt == "asvspoof_protocol":
            tokens = line.split()
            if len(tokens) != 5:
                raise ManifestError(
                    f"{path}:{lineno}: expected 5 whitespace-separated fields "
                    f"(speaker utterance - attack key), got {len(tokens)}"
                )
            _speaker, utt, _unused, attack, label = tokens
            audio_path = _resolve_protocol_path(f"{path}:{lineno}", audio_root, utt)
        else:
            tokens = line.split("\t")
            if len(tokens) != 4:
                raise ManifestError(
                    f"{path}:{lineno}: expected 4 tab-separated fields "
                    f"(utterance_id path label attack_id), got {len(tokens)}"
                )
            utt, audio_path, label, attack = tokens
            if not os.path.isabs(audio_path):
                audio_path = os.path.join(base_dir, audio_path)
        _check_entry(f"{path}:{lineno}", utt, label, attack)
        if utt in seen:
            raise ManifestError(
                f"{path}: duplicate utterance id {utt!r} on lines {seen[utt]} and {lineno}"
            )
        seen[utt] = lineno
        entries.append(ManifestEntry(utt, audio_path, label, attack))
    if not entries:
        _log.warning("manifest %s is empty", path)
    return entries


def write_manifest(path, entries):
    """Write entries in simple_tsv format; paths inside the manifest's own
    directory are stored relative to it, all others absolute.

    load_manifest reads the file back as the same entries, with each path
    made absolute.

    Raises
    ------
    ManifestError
        Before anything is written, for an entry that load_manifest would
        refuse or split differently: a bad id, label or attack id, a tab or
        line break in its path, text UTF-8 cannot encode, or a repeated
        utterance id (message cites both entries). The message names the
        entry.
    """
    base_dir = os.path.dirname(os.path.abspath(path))
    lines = []
    for i, e in enumerate(_check_entries(path, entries), start=1):
        where = f"{path}: entry {i}"
        if any(c in e.path for c in "\t\n\r"):  # the reader reads "\r" as a line break
            raise ManifestError(f"{where}: path {e.path!r} holds a tab or line break")
        p = os.path.abspath(e.path)
        try:
            rel = os.path.relpath(p, base_dir)
        except ValueError:  # another drive on Windows
            rel = p
        if rel != "." and not rel.startswith(".."):
            p = rel
        line = f"{e.utterance_id}\t{p}\t{e.label}\t{e.attack_id}\n"
        lines.append(_utf8(line, where, ManifestError))
    _write_file(path, b"".join(lines))
