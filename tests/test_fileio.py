"""Canonical JSON I/O round trips byte-for-byte."""

import json
import re
from collections import OrderedDict
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


_strings = st.text(st.characters(codec="utf-8"), max_size=8) | st.sampled_from(
    ["", "\x00\x1f\x7f", "é\u2603\U0001f600", '"\\/\b\f\n\r\t', "\ud800"])
_leaves = (st.none() | st.booleans() | st.integers() | st.integers(-2**200, 2**200)
           | st.floats() | _strings)
_json_values = st.recursive(
    _leaves,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_strings, inner, max_size=4)),
    max_leaves=20,
)


@st.composite
def _shared_trees(draw):
    """A tree that holds one dict object, itself holding another shared
    dict, at several positions and indents, and holds itself twice."""
    inner = draw(st.dictionaries(_strings, _json_values, min_size=1, max_size=3))
    shared = draw(st.dictionaries(_strings, _json_values | st.just(inner), min_size=1,
                                  max_size=3))
    tree = draw(st.recursive(
        _leaves | st.just(shared) | st.just(inner),
        lambda more: (st.lists(more, max_size=4) | st.lists(more, max_size=4).map(tuple)
                      | st.dictionaries(_strings, more, max_size=4)),
        max_leaves=20))
    return [tree, shared, {"again": [shared, inner, tree]}, [[inner]]]


@settings(max_examples=100, deadline=None)
@given(_json_values | _shared_trees())
def test_canonical_dumps_matches_json_dumps(value):
    assert canonical_dumps(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


class _Word(str):
    pass


class _Bit(IntEnum):
    ONE = 1


# near-rows: one change each to a row [x, a, value], so that the writer must
# take its generic path on them
_NEAR_ROWS = (
    lambda x, a, v: [x, a],
    lambda x, a, v: [x, a, v, x],
    lambda x, a, v: (x, a, v),
    lambda x, a, v: [_Word(x), a, v],
    lambda x, a, v: [x, _Word(a), v],
    lambda x, a, v: [x, a, OrderedDict(v)],
    lambda x, a, v: [_Bit.ONE, a, v],
    lambda x, a, v: [x, None, v],
    lambda x, a, v: [x, 1, v],
    lambda x, a, v: [],
)


@st.composite
def _row_documents(draw):
    """A list of [str, str, dict] rows (a box document's cells) mixed with
    near-rows, whose value dicts, one of them holding a shared inner dict,
    also appear outside the rows, before and after them, at the rows' value
    indent and at other indents; the rows also appear at a second indent."""
    inner = draw(st.dictionaries(_strings, _json_values, min_size=1, max_size=2))
    values = draw(st.lists(st.dictionaries(_strings, _json_values | st.just(inner), max_size=3),
                           min_size=1, max_size=3))
    words = st.sampled_from(["0", "01", "10", "é"]) | _strings
    picks = st.tuples(words, words, st.sampled_from(values))
    rows = [[x, a, v] for x, a, v in draw(st.lists(picks, max_size=8))]
    near = [draw(st.sampled_from(_NEAR_ROWS))(*pick) for pick in draw(st.lists(picks, max_size=3))]
    mixed = draw(st.permutations(rows + near))
    # a list in the top list holds its items at the rows' value indent
    parts = [[[list(values)]], mixed, list(values), {"x": values, "box": {"probs": mixed}},
             [[inner]], []]
    return draw(st.permutations(parts))


@settings(max_examples=100, deadline=None)
@given(_row_documents())
def test_rows_are_written_as_json_writes_them(value):
    assert canonical_dumps(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


def test_subclassed_leaves_and_dicts_print_as_json_prints_them():
    # only exact str, int, bool and None leaves and exact dicts are written
    # in place; these take the longer path and must still match json
    shared = OrderedDict(b=[_Word("x"), _Bit.ONE], a={"k": _Word("é")})
    plain = {"v": 1}
    value = [shared, [shared, plain, plain], {"s": shared, "p": plain, "w": _Word("w")}, _Bit.ONE]
    assert canonical_dumps(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


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


def test_canonical_dumps_refuses_keys_that_are_not_strings():
    # json.dumps would write the key 1 as "1"; no document has such keys
    with pytest.raises(TypeError):
        canonical_dumps({1: 2})
