"""The file boundary: every file the package reads, writes, creates or removes.

An OSError raises a SpoofampError naming the file. A write goes to a temp file
beside its target and is renamed onto it, so no half-written file has its name."""

import contextlib
import json
import os

from .errors import ConfigError, UnwritablePathError


def _read_file(path, what, error):
    """The bytes of the file at path; a missing file or any other OSError
    raises error naming the file."""
    try:
        with open(path, "rb") as f:
            return f.read()
    except FileNotFoundError as e:
        raise error(f"no such {what}: {path}") from e
    except OSError as e:
        raise error(f"cannot read {what} {path}: {e}") from e


def _read_text(path, what, error):
    """The file at path as UTF-8 text less a leading BOM, newlines translated as text mode does."""
    try:
        text = _read_file(path, what, error).decode("utf-8-sig")
    except UnicodeDecodeError as e:
        raise error(f"{path}: {what} is not UTF-8 text: {e}") from e
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _utf8(line, where, error):
    """line as UTF-8 bytes; text UTF-8 cannot encode, such as a lone
    surrogate, raises error naming where the line comes from."""
    try:
        return line.encode("utf-8")
    except UnicodeEncodeError as e:
        raise error(f"{where}: {line.rstrip()!r} is not UTF-8 text: {e.reason}") from e


def _read_json_object(path, what, error=ConfigError, known=None):
    """Parse a JSON file holding one object and drop its comment keys.

    Keys starting with an underscore are comments and are dropped. When known
    is given, any other key outside it is rejected so typos fail loudly. Every
    failure raises error with a message naming what the file is and its path.
    """
    try:
        doc = json.loads(_read_text(path, what, error))
    except (ValueError, RecursionError) as e:  # RecursionError: arrays nested too deep
        raise error(f"{what} {path} is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise error(f"{what} {path} must hold a JSON object")
    clean = {key: value for key, value in doc.items() if not key.startswith("_")}
    if known is not None:
        for key in clean:
            if key not in known:
                raise error(f"{what} {path}: unknown key {key!r}")
    return clean


def _write_file(path, data):
    """Write bytes to a temp file beside path, through any symlink, and rename
    it into place; a path that is no regular file (/dev/null, a FIFO) is written
    in place, as a rename would replace it. An OSError removes the temp file and
    raises UnwritablePathError with the OS's reason, not the temp file's name."""
    target = os.path.realpath(path)
    in_place = os.path.exists(target) and not os.path.isfile(target)
    tmp = target if in_place else f"{target}.{os.getpid()}.tmp"
    try:
        # open, not mkstemp: the file keeps the umask's permissions
        with open(tmp, "wb") as f:
            f.write(data)
        if not in_place:
            os.replace(tmp, target)
    except OSError as e:
        if not in_place:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        raise UnwritablePathError(f"cannot write {path}: {e.strerror or e}") from e


def _remove_file(path):
    """Remove the file at path if there is one; an OSError raises UnwritablePathError."""
    try:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    except OSError as e:
        raise UnwritablePathError(f"cannot remove {path}: {e}") from e


def _make_dir(path, what):
    """Create directory path and its parents; an OSError names what it is for."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as e:
        raise UnwritablePathError(f"cannot create {what} directory {path}: {e}") from e
