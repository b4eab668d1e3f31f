"""Command-line behavior: formats, outputs, exit codes."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import boxswap
from boxswap import Scalar, anti_pr, deterministic_local, gsb, pr, tensor
from boxswap.cli import _build_parser, main
from boxswap.fileio import canonical_dumps, load_json, save_json
from boxswap.scenarios import ScenarioBox, ScenarioCoupler, ScenarioSpec


@pytest.fixture
def swap_doc(tmp_path):
    spec = ScenarioSpec(
        name="pair",
        boxes=(
            ScenarioBox("left", "pr", 2, ("a", "b1")),
            ScenarioBox("right", "pr", 2, ("b2", "c")),
        ),
        couplers=(ScenarioCoupler(2, ("b1", "b2")),),
    )
    path = tmp_path / "pair.json"
    save_json(path, spec.to_json())
    return path


def test_run_table_output(swap_doc, capsys):
    assert main(["run", str(swap_doc)]) == 0
    out = capsys.readouterr().out
    assert "scenario: pair" in out
    assert "parties:  a, c" in out
    assert "1/3 (0.333333333333)" in out
    assert "total probability: 1 (1.00000000000)" in out
    assert "cross-checks: 2/2 passed" in out


def test_run_json_output_round_trips(swap_doc, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    assert main(["run", str(swap_doc), "--format", "json", "--output", str(report_path)]) == 0
    assert capsys.readouterr().out == ""
    text = report_path.read_text()
    doc = load_json(report_path)
    assert canonical_dumps(doc) == text
    success = doc["branches"][0]
    assert success["outcome"] == [0]
    assert Scalar.from_json(success["probability"]) == Scalar(Fraction(1, 3))
    assert success["functionals"]["gsi"]["value"] == {"r": ["4", "1"], "s": ["0", "1"]}
    assert doc["total_probability"] == {"r": ["1", "1"], "s": ["0", "1"]}


def test_run_accepts_integer_scalars_on_input(tmp_path, capsys):
    # hand-written documents may use bare ints where the tool emits strings
    doc = {
        "name": "hand",
        "boxes": [
            {
                "name": "g",
                "kind": "isotropic",
                "parties": ["a", "b"],
                "xi": {"r": [1, 2], "s": [0, 1]},
            }
        ],
    }
    path = tmp_path / "hand.json"
    save_json(path, doc)
    assert main(["run", str(path)]) == 0
    assert "within local" in capsys.readouterr().out


def test_run_rejects_missing_and_garbage_files(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == 2
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{oops")
    assert main(["run", str(garbage)]) == 2
    unknown = tmp_path / "unknown.json"
    save_json(unknown, {"name": "x", "boxes": [], "surprise": 1})
    assert main(["run", str(unknown)]) == 2
    capsys.readouterr()


def test_run_reports_invalid_coupler_region_as_exit_3(tmp_path, capsys):
    trio = tensor(anti_pr(), deterministic_local([(0, 0)]))
    spec = ScenarioSpec(
        name="invalid",
        boxes=(ScenarioBox("trio", "inline", 3, ("b1", "b2", "k"), table=trio),),
        couplers=(ScenarioCoupler(2, ("b1", "b2")),),
        reports=(),
    )
    path = tmp_path / "invalid.json"
    save_json(path, spec.to_json())
    assert main(["run", str(path)]) == 3
    err = capsys.readouterr().err
    assert "branch path" in err


def test_reproduce_filter(capsys):
    assert main(["reproduce", "--filter", "bound-table"]) == 0
    out = capsys.readouterr().out
    assert "1/1 checks passed" in out
    assert "pass" in out


def test_reproduce_json(capsys):
    assert main(["reproduce", "--filter", "boundary-point", "--format", "json"]) == 0
    import json

    doc = json.loads(capsys.readouterr().out)
    assert doc["all_passed"] is True
    assert doc["checks"][0]["name"] == "boundary-point"


def test_reproduce_unknown_filter(capsys):
    assert main(["reproduce", "--filter", "no-such-check"]) == 2
    assert "no check matches" in capsys.readouterr().err


def test_eval_gsi_table(tmp_path, capsys):
    path = tmp_path / "gsb3.json"
    save_json(path, gsb(3).to_json())
    assert main(["eval", str(path), "gsi"]) == 0
    out = capsys.readouterr().out
    assert "value: 8 (8.00000000000)" in out
    assert "local bound 4: exceeded" in out
    assert "quantum bound 4√2: exceeded" in out
    assert "algebraic maximum: 8" in out


def test_eval_ch(tmp_path, capsys):
    path = tmp_path / "pr.json"
    save_json(path, pr().to_json())
    assert main(["eval", str(path), "ch"]) == 0
    assert "value: 3/2 (1.50000000000)" in capsys.readouterr().out


def test_eval_json_format(tmp_path, capsys):
    path = tmp_path / "pr.json"
    save_json(path, pr().to_json())
    assert main(["eval", str(path), "gsi", "--format", "json"]) == 0
    import json

    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == {"r": ["4", "1"], "s": ["0", "1"]}
    assert doc["classification"]["exceeds_quantum"] is True
    assert doc["bounds"]["quantum"] == {"r": ["0", "1"], "s": ["2", "1"]}


def test_eval_n_mismatch(tmp_path, capsys):
    path = tmp_path / "pr.json"
    save_json(path, pr().to_json())
    assert main(["eval", str(path), "gsi", "--n", "3"]) == 2
    capsys.readouterr()


def test_show_valid_box(tmp_path, capsys):
    path = tmp_path / "pr.json"
    save_json(path, pr().to_json())
    assert main(["show", str(path)]) == 0
    out = capsys.readouterr().out
    assert "2-party box" in out
    assert out.count("1/2") == 8
    assert "·" in out
    assert "normalized: yes" in out
    assert "party 1 ok" in out
    assert "party 2 ok" in out


def test_show_invalid_box_exits_2(tmp_path, capsys):
    doc = pr().to_json()
    doc["probs"] = doc["probs"][:-1]
    path = tmp_path / "broken.json"
    save_json(path, doc)
    assert main(["show", str(path)]) == 2
    assert "normalized: NO" in capsys.readouterr().out


def test_show_rejects_float_probabilities(tmp_path, capsys):
    doc = pr().to_json()
    doc["probs"][0][2] = {"r": [0.5, 1], "s": [0, 1]}
    path = tmp_path / "floaty.json"
    save_json(path, doc)
    assert main(["show", str(path)]) == 2
    assert "non-integer" in capsys.readouterr().err


def _one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize(
    "doc, needle",
    [
        # over the party cap: refused before 4**11 cells are allocated
        ({"n": 11, "order": "party1-lsb", "probs": []}, "cap"),
        ({"n": True, "order": "party1-lsb", "probs": []}, "positive integer"),
        ({"n": 2, "order": "party1-lsb", "probs": 5}, "must be a list"),
    ],
)
@pytest.mark.parametrize("verb", [["show"], ["eval", "gsi"]])
def test_box_loader_rejects_malformed_fields(tmp_path, capsys, doc, needle, verb):
    path = tmp_path / "box.json"
    save_json(path, doc)
    assert main([verb[0], str(path), *verb[1:]]) == 2
    assert needle in _one_line_error(capsys)


@pytest.mark.parametrize("key", ["boxes", "couplers", "wirings"])
def test_scenario_loader_rejects_non_list_sections(tmp_path, capsys, key):
    doc = {"name": "s", "boxes": [{"name": "g", "kind": "pr", "parties": ["a", "b"]}]}
    doc[key] = 5
    path = tmp_path / "scenario.json"
    save_json(path, doc)
    assert main(["run", str(path)]) == 2
    assert f"{key!r} must be a list" in _one_line_error(capsys)


def _wired_swap() -> dict:
    return {
        "name": "s",
        "boxes": [
            {"name": "g", "kind": "pr", "parties": ["a", "b1"]},
            {"name": "h", "kind": "sb", "parties": ["b2", "c", "d"]},
        ],
        "couplers": [{"consumed": ["b1", "b2"]}],
        "wirings": [{"pair": ["c", "d"], "merged": "m"}],
    }


def _set(doc: dict, field: tuple, value) -> None:
    for key in field[:-1]:
        doc = doc[key]
    doc[field[-1]] = value


def test_wired_swap_document_runs(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    save_json(path, _wired_swap())
    assert main(["run", str(path)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "field, value, message",
    [
        (("boxes", 1, "name"), "g", "box names must be unique"),
        (("boxes", 0, "parties"), ["d", "b1"], "party labels must be unique across boxes"),
        (("wirings", 0, "pair"), ["c", "zz"], "wiring references unknown label 'zz'"),
        (("wirings", 0, "pair"), ["c", "b2"], "wiring references consumed label 'b2'"),
        (("condition",), [0, 1], "'condition' must list one entry per coupler"),
        (("boxes", 0, "colour"), "red", "box entry has unknown keys ['colour']"),
        (("couplers", 0, "colour"), "red", "coupler entry has unknown keys ['colour']"),
        (("wirings", 0, "colour"), "red", "wiring entry has unknown keys ['colour']"),
    ],
    ids=["box-name", "party-label", "unknown-wiring-label", "consumed-wiring-label",
         "condition-length", "box-key", "coupler-key", "wiring-key"],
)
def test_scenario_loader_names_each_invalid_document(tmp_path, capsys, field, value, message):
    # one fault per document, in the otherwise valid _wired_swap: each row
    # fails if its check is dropped, whether the document then runs or
    # trips over a later check
    doc = _wired_swap()
    _set(doc, field, value)
    path = tmp_path / "scenario.json"
    save_json(path, doc)
    assert main(["run", str(path)]) == 2
    assert _one_line_error(capsys) == f"error: {message}\n"


@pytest.mark.parametrize(
    "field, value, needle",
    [
        # a float n used to end in a TypeError traceback inside gsb
        (("boxes", 0), {"name": "g", "kind": "gsb", "n": 3.0, "parties": ["a", "x", "b1"]},
         "box 'n'"),
        (("boxes", 0, "n"), 2.0, "box 'n'"),
        (("boxes", 0, "n"), True, "box 'n'"),
        (("couplers", 0, "arity"), "2", "coupler 'arity'"),
    ],
)
def test_scenario_loader_rejects_non_integer_counts(tmp_path, capsys, field, value, needle):
    doc = _wired_swap()
    _set(doc, field, value)
    path = tmp_path / "scenario.json"
    save_json(path, doc)
    assert main(["run", str(path)]) == 2
    err = _one_line_error(capsys)
    assert needle in err and "must be a positive integer" in err


@pytest.mark.parametrize(
    "field, value, needle",
    [
        (("boxes", 0, "parties", 0), {"x": 1}, "party label"),
        (("couplers", 0, "consumed", 1), 2, "consumed label"),
        (("wirings", 0, "pair", 0), 7, "wiring 'pair' label"),
        (("wirings", 0, "merged"), 5, "wiring 'merged'"),
        (("boxes", 1, "name"), 1, "box 'name'"),
        (("boxes", 1, "kind"), ["pr"], "box 'kind'"),
        (("name",), {"a": 1}, "scenario 'name'"),
        (("reports",), ["gsi", 1], "'reports' entry"),
    ],
)
def test_scenario_loader_rejects_non_string_names(tmp_path, capsys, field, value, needle):
    doc = _wired_swap()
    _set(doc, field, value)
    path = tmp_path / "scenario.json"
    save_json(path, doc)
    assert main(["run", str(path)]) == 2
    err = _one_line_error(capsys)
    assert needle in err and "must be a string" in err


@pytest.mark.parametrize(
    "field, value, needle",
    [
        # a float bit used to end in a TypeError traceback in run_scenario
        (("condition",), [1.0], "'condition' entry"),
        # bools used to be taken as 1 and 0 and ran with exit 0
        (("couplers", 0, "outcome"), True, "coupler 'outcome'"),
        (("condition",), [False], "'condition' entry"),
    ],
)
def test_scenario_loader_rejects_non_bit_outcomes(tmp_path, capsys, field, value, needle):
    doc = _wired_swap()
    _set(doc, field, value)
    path = tmp_path / "scenario.json"
    save_json(path, doc)
    assert main(["run", str(path)]) == 2
    err = _one_line_error(capsys)
    assert needle in err and "must be 0, 1, or null" in err


@pytest.mark.parametrize("verb", ["show", "run"])
def test_deeply_nested_json_is_a_spec_error(tmp_path, capsys, verb):
    # json.loads raises RecursionError here; it used to end in a traceback
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    assert main([verb, str(path)]) == 2
    assert "too deeply" in _one_line_error(capsys)


def _isotropic_doc(xi: dict) -> dict:
    return {"name": "hand", "boxes": [
        {"name": "g", "kind": "isotropic", "parties": ["a", "b"], "xi": xi}]}


@pytest.mark.parametrize("numerator", ["1_0", " 1 ", "+1", "１"])
def test_scalar_parts_must_be_plain_integers(tmp_path, capsys, numerator):
    # int() accepts all of these; "1_0" over "20" used to run as 1/2
    path = tmp_path / "scenario.json"
    save_json(path, _isotropic_doc({"r": [numerator, "20"], "s": [0, 1]}))
    assert main(["run", str(path)]) == 2
    assert "non-integer parts" in _one_line_error(capsys)


def test_scalar_error_message_is_truncated(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    save_json(path, _isotropic_doc({"r": ["9" * 5000, "x"], "s": [0, 1]}))
    assert main(["run", str(path)]) == 2
    assert len(_one_line_error(capsys)) < 200


@pytest.mark.parametrize("doc", [{}, {"boxes": []}])
def test_empty_scenario_is_a_spec_error(tmp_path, capsys, doc):
    # both used to end in an AttributeError traceback with exit 1
    path = tmp_path / "scenario.json"
    save_json(path, doc)
    assert main(["run", str(path)]) == 2
    assert "at least one box" in _one_line_error(capsys)


def test_show_refuses_an_overlong_integer_literal(tmp_path, capsys):
    path = tmp_path / "box.json"
    path.write_text('{"n": 1, "order": "party1-lsb", "probs": [["0", "0", {"r": ['
                    + "9" * 5000 + ', 1], "s": [0, 1]}]]}')
    assert main(["show", str(path)]) == 2
    assert "cannot be loaded" in _one_line_error(capsys)


@pytest.mark.parametrize("verb, rest", [("run", []), ("show", []), ("eval", ["gsi"])])
def test_a_file_that_is_not_utf8_is_a_spec_error(tmp_path, capsys, verb, rest):
    path = tmp_path / "doc.json"
    path.write_bytes(b'{"n": 2, "order": "\xff"}')
    assert main([verb, str(path), *rest]) == 2
    assert "cannot read" in _one_line_error(capsys)


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_a_value_too_long_to_write_is_an_input_error(tmp_path, capsys, fmt):
    # two cells over coprime 4,299-digit denominators: the gsi value's
    # denominator has about 8,600 digits, more than str() writes out
    b = 10**4298 + 1
    cells = [["00", "00", {"r": ["1", str(b)], "s": ["0", "1"]}],
             ["00", "11", {"r": ["1", str(b + 2)], "s": ["0", "1"]}]]
    path = tmp_path / "box.json"
    save_json(path, {"n": 2, "order": "party1-lsb", "probs": cells})
    assert main(["eval", str(path), "gsi", "--format", fmt]) == 2
    assert "too long to write" in _one_line_error(capsys)


def test_coupler_over_the_party_cap_is_a_spec_error(tmp_path, capsys):
    # 14 PR boxes, one end of each consumed by one coupler: refused before
    # anything of size 4**14 is built
    doc = {
        "boxes": [{"name": f"g{i}", "kind": "pr", "parties": [f"a{i}", f"b{i}"]}
                  for i in range(14)],
        "couplers": [{"consumed": [f"b{i}" for i in range(14)]}],
    }
    path = tmp_path / "scenario.json"
    save_json(path, doc)
    assert main(["run", str(path)]) == 2
    assert "party cap" in _one_line_error(capsys)


def test_box_over_the_party_cap_is_a_spec_error(tmp_path, capsys):
    # one gsb box of 8,000 labels: refused by the loader, without 4**8000 in the message
    doc = {"boxes": [{"kind": "gsb", "parties": [f"p{i}" for i in range(8000)]}]}
    path = tmp_path / "scenario.json"
    save_json(path, doc)
    assert main(["run", str(path)]) == 2
    assert "the cap is 10" in _one_line_error(capsys)


@pytest.mark.parametrize("verb", [["run", "SCENARIO"], ["reproduce", "--filter", "bound-table"]])
@pytest.mark.parametrize("target", ["a directory", "a missing folder"])
def test_an_output_that_cannot_be_written_is_an_input_error(swap_doc, tmp_path, verb, target):
    # in a new process, so that a traceback would show on its standard error
    output = tmp_path if target == "a directory" else tmp_path / "missing" / "out.json"
    argv = [str(swap_doc) if arg == "SCENARIO" else arg for arg in verb]
    src = Path(boxswap.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-m", "boxswap", *argv, "--output", str(output)],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), check=False)
    assert proc.returncode == 2 and "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: cannot write {output}: ")
    assert proc.stderr.count("\n") == 1, proc.stderr


def _fresh(argv) -> tuple:
    """Exit code and standard output of ``python -m boxswap`` in a new process."""
    src = Path(boxswap.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-m", "boxswap", *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(src)), check=False)
    return proc.returncode, proc.stdout


def test_main_carries_no_option_into_the_next_call(swap_doc, capsys):
    first = ["reproduce", "--filter", "bound-table", "--format", "json"]
    second = ["run", str(swap_doc)]
    assert main(first) == 0
    out_first = capsys.readouterr().out
    assert main(second) == 0
    out_second = capsys.readouterr().out
    assert _build_parser() is _build_parser()
    assert (0, out_first) == _fresh(first)
    assert (0, out_second) == _fresh(second)
    assert not out_second.startswith("{")  # the default table format, not the first call's json


# -- a locale whose encoding is not UTF-8 ------------------------------------

ASCII_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}


def _in_ascii_locale(argv) -> tuple:
    """Exit code, stdout bytes and stderr text of ``python -m boxswap`` run in
    the C locale, with neither UTF-8 mode nor locale coercion."""
    src = Path(boxswap.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src), **ASCII_LOCALE)
    env.pop("PYTHONIOENCODING", None)
    proc = subprocess.run([sys.executable, "-m", "boxswap", *argv], capture_output=True,
                          env=env, check=False)
    return proc.returncode, proc.stdout, proc.stderr.decode("utf-8", "replace")


@pytest.fixture
def sqrt2_box(tmp_path):
    path = tmp_path / "box.json"
    save_json(path, boxswap.isotropic(2, boxswap.INV_SQRT2).to_json())
    return path


def test_eval_writes_utf8_to_a_file_in_an_ascii_locale(sqrt2_box, tmp_path):
    out = tmp_path / "out.txt"
    code, _, err = _in_ascii_locale(["eval", str(sqrt2_box), "gsi", "--output", str(out)])
    assert (code, err) == (0, "")
    assert "√2".encode("utf-8") in out.read_bytes()


def test_show_writes_utf8_to_stdout_in_an_ascii_locale(sqrt2_box):
    code, out, err = _in_ascii_locale(["show", str(sqrt2_box)])
    assert (code, err) == (0, "")
    assert "√2".encode("utf-8") in out


def test_run_reads_a_utf8_label_in_an_ascii_locale(tmp_path):
    doc = {"boxes": [{"name": "g", "kind": "pr", "parties": ["Aliceé", "Bob"]}]}
    path = tmp_path / "scenario.json"
    path.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
    code, out, err = _in_ascii_locale(["run", str(path)])
    assert (code, err) == (0, "")
    assert "Aliceé".encode("utf-8") in out


def test_a_file_that_is_not_utf8_is_a_spec_error_in_an_ascii_locale(tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(b'{"n": 2, "order": "\xff"}')
    code, _, err = _in_ascii_locale(["show", str(path)])
    assert code == 2 and err.startswith("error: cannot read")
