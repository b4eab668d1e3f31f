"""Canonical JSON reading and writing.

Documents are read and written as UTF-8, whatever the locale.  Their
canonical text is ``json.dumps`` with sorted keys and a two-space indent,
plus a trailing newline, so that a load/save round trip is byte-identical
and diffs stay readable.  All parse-level failures surface as
SpecFileError, and so do the field checks the document loaders share.  The
CLI writes scenario reports and box documents through ``writer``, which
makes the same text from the texts of their distinct fragments, and every
other document through ``canonical_dumps``.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import SpecFileError


def json_positive_int(value, what: str) -> int:
    """``value`` if it is a JSON integer >= 1; booleans and floats are refused."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise SpecFileError(f"{what} must be a positive integer, got {value!r}")
    return value


def json_bit(value, what: str) -> int | None:
    """``value`` if it is null or the JSON integer 0 or 1; booleans and
    floats are refused."""
    if value is not None and (type(value) is not int or value not in (0, 1)):
        raise SpecFileError(f"{what} must be 0, 1, or null, got {value!r}")
    return value


def json_str(value, what: str) -> str:
    """``value`` if it is a JSON string; nothing else is turned into one."""
    if not isinstance(value, str):
        raise SpecFileError(f"{what} must be a string, got {value!r}")
    return value


def canonical_dumps(obj) -> str:
    """``obj``'s canonical text: ``json.dumps`` with sorted keys and a
    two-space indent, and a trailing newline.  What ``json`` refuses raises
    TypeError."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def load_json(path) -> object:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: bytes that are not UTF-8
        raise SpecFileError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFileError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SpecFileError(f"{path} nests JSON too deeply to load") from exc
    except ValueError as exc:  # an integer literal longer than int() may parse
        raise SpecFileError(f"{path} cannot be loaded: {exc}") from exc


def save_text(path, pieces) -> None:
    """Write the strings ``pieces``, in turn, as UTF-8 to the file ``path``;
    a path that cannot be written (a directory, a missing folder) or a
    write that fails is a SpecFileError."""
    try:
        with open(path, "w", encoding="utf-8") as stream:
            stream.writelines(pieces)
    except OSError as exc:
        raise SpecFileError(f"cannot write {path}: {exc}") from exc


def save_json(path, obj) -> None:
    save_text(path, (canonical_dumps(obj),))
