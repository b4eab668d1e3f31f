"""Command-line behavior: formats, outputs, exit codes."""

from fractions import Fraction

import pytest

from boxswap import Scalar, anti_pr, deterministic_local, gsb, pr, tensor
from boxswap.cli import main
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
