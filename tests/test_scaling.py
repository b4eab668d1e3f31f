"""Smoke tests for ``scripts/scaling.py``: a repeater chain and a ring at
small sizes, each run in its own child process, and a ring's JSON report
written through the CLI."""

import importlib.util
from pathlib import Path

from boxswap import ScenarioSpec, canonical_dumps, load_json, run_scenario

ROOT = Path(__file__).resolve().parent.parent


def _script():
    spec = importlib.util.spec_from_file_location("scaling", ROOT / "scripts" / "scaling.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_scaling_counts_applications_and_joins(capsys):
    script = _script()
    # the script's ring of three is the bundled hybrid_three document
    doc = ScenarioSpec.from_json(load_json(ROOT / "scenarios" / "hybrid_three.json"))
    ring = script.ring(3)
    assert (ring.boxes, ring.couplers, ring.wirings) == (doc.boxes, doc.couplers, doc.wirings)
    assert script.main(["--chain", "3", "--ring", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["run", "branches", "wall", "s", "peak", "MB",
                                "apply_coupler", "wired"]
    rows = [line.split() for line in lines[1:]]
    # (run, branches, apply_coupler, wired): a chain of k couplers makes
    # k(k + 1)/2 applications, a ring of n users n applications and
    # n(n + 1) - 2 joins
    assert [(r[0], r[1], r[4], r[5]) for r in rows] == [("chain(3)", "8", "6", "0"),
                                                      ("ring(3)", "8", "3", "10")]
    assert all(float(r[2]) > 0 and float(r[3]) > 0 for r in rows)


def test_a_report_run_writes_the_document_of_its_report(capsys, tmp_path):
    # the child runs boxswap run DOC --format json --output DIR/ring-3.json,
    # and prints the report's size beside the other columns
    script = _script()
    assert script.main(["--ring", "3", "--report", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[-2:] == ["report", "MB"]
    row = lines[1].split()
    assert (row[0], row[1], row[4], row[5]) == ("ring(3)", "8", "3", "10")
    report = (tmp_path / "ring-3.json").read_bytes()
    assert report == canonical_dumps(run_scenario(script.ring(3)).to_json()).encode()
    assert float(row[6]) == round(len(report) / 1e6, 1)
    assert ScenarioSpec.from_json(load_json(tmp_path / "ring-3.scenario.json")) == script.ring(3)
