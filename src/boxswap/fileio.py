"""Canonical JSON reading and writing.

Documents are emitted with sorted keys, two-space indent, and a trailing
newline, so that a load/save round trip is byte-identical and diffs stay
readable.  All parse-level failures surface as SpecFileError, and so do the
field checks the document loaders share.
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


def json_str(value, what: str) -> str:
    """``value`` if it is a JSON string; nothing else is turned into one."""
    if not isinstance(value, str):
        raise SpecFileError(f"{what} must be a string, got {value!r}")
    return value


def canonical_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def load_json(path) -> object:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise SpecFileError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFileError(f"{path} is not valid JSON: {exc}") from exc


def save_json(path, obj) -> None:
    Path(path).write_text(canonical_dumps(obj))
