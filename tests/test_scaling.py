"""Smoke test for ``scripts/scaling.py``: a repeater chain and a ring at
small sizes, each run in its own child process."""

import importlib.util
from pathlib import Path

from boxswap import ScenarioSpec, load_json

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
