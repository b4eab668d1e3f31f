"""Canonical JSON I/O round trips byte-for-byte."""

import json
import re

import pytest

from boxswap import INV_SQRT2, ONE, BoxTable, canonical_dumps, isotropic, load_json, save_json
from boxswap.errors import SpecFileError
from boxswap.scenarios import swap_two


def test_save_load_round_trip_is_byte_identical(tmp_path):
    doc = swap_two(2, 2).to_json()
    path = tmp_path / "report.json"
    save_json(path, doc)
    first = path.read_bytes()
    save_json(path, load_json(path))
    assert path.read_bytes() == first
    assert first.endswith(b"\n")


def test_canonical_dumps_sorts_keys():
    assert canonical_dumps({"b": 1, "a": 2}) == '{\n  "a": 2,\n  "b": 1\n}\n'


def test_load_json_errors_are_spec_file_errors(tmp_path):
    with pytest.raises(SpecFileError):
        load_json(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SpecFileError):
        load_json(bad)


def test_save_json_errors_are_spec_file_errors(tmp_path):
    for path in (tmp_path, tmp_path / "missing" / "out.json"):
        with pytest.raises(SpecFileError, match=re.escape(f"cannot write {path}: ")):
            save_json(path, {})


def test_load_json_maps_an_overlong_integer_to_a_spec_file_error(tmp_path):
    # json.loads raises a plain ValueError past int()'s 4,300-digit limit
    path = tmp_path / "box.json"
    path.write_text('{"n": 1, "order": "party1-lsb", "probs": [["0", "0", {"r": ['
                    + "9" * 5000 + ', 1], "s": [0, 1]}]]}')
    with pytest.raises(SpecFileError, match="cannot be loaded"):
        load_json(path)


def test_a_box_document_with_shared_values_round_trips():
    box = isotropic(3, INV_SQRT2)
    doc = box.to_json()
    values = [cell[2] for cell in doc["probs"]]
    assert len({id(v) for v in values}) == 2 < len(values)  # two distinct cell values
    text = canonical_dumps(doc)
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert BoxTable.from_json(json.loads(text)) == box


@pytest.mark.parametrize("bad", [{1, 2}, ONE, [{"a": {3}}], {"k": ONE}, {(1,): 2}])
def test_canonical_dumps_refuses_what_json_refuses(bad):
    with pytest.raises(TypeError):
        json.dumps(bad, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        canonical_dumps(bad)

