"""The record classes of ``boxswap.scenarios`` and ``boxswap.checks``: their
value semantics (repr, equality, hashing, construction), and the import graph
of the package, which loads neither ``dataclasses`` nor ``inspect``, nor
``checks`` before it is asked for."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import boxswap
from boxswap import (SQRT2, ONE, BoxTable, Scalar, bounds, classify, efficiency_compare, pr,
                     validate)
from boxswap.checks import CheckResult
from boxswap.scenarios import (
    BranchRecord,
    CrossCheck,
    EfficiencyComparison,
    ScenarioBox,
    ScenarioCoupler,
    ScenarioReport,
    ScenarioSpec,
    ScenarioWiring,
)

HALF = Scalar.rational(1, 2)
# classifications and validation reports compare by identity, so the branch
# records of two calls of _instances share them
RESULTS = (classify(pr()), bounds(2), validate(pr()))
BOX = "ScenarioBox(name='A', kind='isotropic', n=2, parties=('a1', 'a2'), " \
      "xi=Scalar(Fraction(1, 2), Fraction(0, 1)), table=None)"
COUPLER = "ScenarioCoupler(arity=2, consumed=('a2', 'b1'), outcome=0)"
WIRING = "ScenarioWiring(pair=('a1', 'b2'), merged='ab')"
CROSSCHECK = "CrossCheck(name='total-probability', passed=True, detail='')"
BRANCH = (
    "BranchRecord(outcome=(0,), probability=Scalar(Fraction(1, 2), Fraction(0, 1)), "
    "box=BoxTable(n=2), functionals={'gsi': Scalar(Fraction(0, 1), Fraction(1, 1))}, "
    "classification=Classification(value=4, exceeds_local=True, exceeds_quantum=True), "
    "bound_triple=BoundTriple(2, 2√2, 4), validation=ValidationReport(normalized=True, "
    "nonnegative=True, nonsignaling={1: True, 2: True}))")


def _instances() -> dict:
    box = ScenarioBox("A", "isotropic", 2, ("a1", "a2"), xi=HALF)
    coupler = ScenarioCoupler(2, ("a2", "b1"), outcome=0)
    wiring = ScenarioWiring(("a1", "b2"), "ab")
    check = CrossCheck("total-probability", True)
    branch = BranchRecord((0,), HALF, pr(), {"gsi": SQRT2}, *RESULTS)
    return {
        BOX: box,
        "ScenarioBox(name='P', kind='inline', n=2, parties=('p1', 'p2'), xi=None, "
        "table=BoxTable(n=2))": ScenarioBox("P", "inline", 2, ("p1", "p2"), table=pr()),
        COUPLER: coupler,
        WIRING: wiring,
        f"ScenarioSpec(name='demo', boxes=({BOX},), couplers=({COUPLER},), "
        f"wirings=({WIRING},), reports=('gsi', 'ch'))":
            ScenarioSpec("demo", (box,), (coupler,), (wiring,), ("gsi", "ch")),
        CROSSCHECK: check,
        BRANCH: branch,
        f"ScenarioReport(scenario='demo', parties=('a1', 'b2'), branches=[{BRANCH}], "
        "total_probability=Scalar(Fraction(1, 1), Fraction(0, 1)), "
        f"crosschecks=[{CROSSCHECK}], groups=None)":
            ScenarioReport("demo", ("a1", "b2"), [branch], ONE, [check]),
        "EfficiencyComparison(n=3, pairwise_boxes=6, pairwise_probability="
        "Scalar(Fraction(1, 27), Fraction(0, 1)), coupler_boxes=3, "
        "coupler_probability=Scalar(Fraction(1, 3), Fraction(0, 1)))": efficiency_compare(3),
        "CheckResult(criterion=1, name='bound-table', passed=True, detail='ok')":
            CheckResult(1, "bound-table", True, "ok"),
    }


def test_each_record_repr_names_every_field_in_order():
    for text, record in _instances().items():
        assert repr(record) == text


def test_records_compare_field_by_field_within_one_class():
    for record, twin in zip(_instances().values(), _instances().values()):
        assert record is not twin and record == twin and not record != twin
    box = ScenarioBox("A", "isotropic", 2, ("a1", "a2"), xi=HALF)
    assert box != ScenarioBox("A", "isotropic", 2, ("a1", "a2"))
    assert box != ScenarioBox("A", "isotropic", 2, ("a1", "a3"), xi=HALF)
    assert ScenarioCoupler(2, ("a", "b")) != ScenarioCoupler(2, ("a", "b"), outcome=1)
    assert CrossCheck("x", True) != CrossCheck("x", False)
    assert CheckResult(1, "x", True, "") != CheckResult(2, "x", True, "")
    # equal fields in another class are not an equal record
    assert (CrossCheck("x", True, "") == ScenarioCoupler("x", True, "")) is False
    assert CrossCheck("x", True, "") != ScenarioCoupler("x", True, "")
    assert (ScenarioWiring(("a", "b"), "ab") == (("a", "b"), "ab")) is False
    assert ScenarioCoupler("x", True, "").__eq__(CrossCheck("x", True, "")) is NotImplemented


def test_equal_specs_hash_equal_and_mutable_records_do_not_hash():
    def spec():
        return ScenarioSpec("s", (ScenarioBox("g", "pr", 2, ("a", "b")),),
                            (ScenarioCoupler(2, ("a", "b"), 1),),
                            (ScenarioWiring(("a", "b"), "c"),))
    first, second = spec(), spec()
    assert first is not second and hash(first) == hash(second)
    assert len({first, second, first.boxes[0], second.boxes[0]}) == 2
    assert hash(first.couplers[0]) == hash(ScenarioCoupler(2, ("a", "b"), outcome=1))
    assert hash(first.wirings[0]) == hash(ScenarioWiring(pair=("a", "b"), merged="c"))
    # a box with an inline table hashes by the table's value, whether the
    # table is held as cells or as columns
    columns = pr()
    cells = BoxTable.from_json(columns.to_json())
    assert cells.spectrum is None and columns.spectrum is not None

    def inline(table):
        return ScenarioSpec("s", (ScenarioBox("g", "inline", 2, ("a", "b"), None, table),))
    assert hash(inline(cells)) == hash(inline(columns)) and inline(cells) == inline(columns)
    assert hash(inline(cells).boxes[0]) == hash(inline(columns).boxes[0])
    mutable = (CrossCheck, BranchRecord, ScenarioReport, EfficiencyComparison, CheckResult)
    for record in (r for r in _instances().values() if isinstance(r, mutable)):
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)


def test_records_build_by_position_or_keyword_with_their_defaults():
    box = ScenarioBox(name="g", kind="pr", n=2, parties=("a", "b"))
    assert (box.xi, box.table) == (None, None)
    assert box == ScenarioBox("g", "pr", 2, ("a", "b"), None, None)
    assert ScenarioCoupler(arity=2, consumed=("a", "b")).outcome is None
    spec = ScenarioSpec("s", (box,))
    assert (spec.couplers, spec.wirings, spec.reports) == ((), (), ("gsi",))
    assert spec == ScenarioSpec(name="s", boxes=(box,), couplers=(), wirings=(),
                                reports=("gsi",))
    assert CrossCheck("x", True).detail == ""
    assert CrossCheck(name="x", passed=False, detail="d") == CrossCheck("x", False, "d")
    assert CheckResult(criterion=3, name="x", passed=True, detail="d").criterion == 3
    report = ScenarioReport(scenario="s", parties=("a",), branches=[], total_probability=ONE)
    assert (report.crosschecks, report.groups) == ([], None)
    assert EfficiencyComparison(2, 2, ONE, 2, ONE) == EfficiencyComparison(
        n=2, pairwise_boxes=2, pairwise_probability=ONE, coupler_boxes=2,
        coupler_probability=ONE)
    with pytest.raises(TypeError):
        ScenarioWiring(("a", "b"))
    with pytest.raises(TypeError):
        CrossCheck("x", True, "", "extra")


def test_reports_built_without_crosschecks_do_not_share_a_list():
    first = ScenarioReport("a", (), [], ONE)
    second = ScenarioReport("b", (), [], ONE)
    first.crosschecks.append(CrossCheck("x", True))
    assert second.crosschecks == [] and first.crosschecks is not second.crosschecks
    given = [CrossCheck("y", True)]
    assert ScenarioReport("c", (), [], ONE, given).crosschecks is given


def test_importing_the_package_and_its_cli_loads_no_dataclasses_or_inspect():
    src = Path(boxswap.__file__).resolve().parent.parent
    code = ("import sys, boxswap, boxswap.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), check=True)
    assert proc.stdout == "[]\n", proc.stderr


def test_the_package_and_its_cli_import_checks_only_when_asked():
    src = Path(boxswap.__file__).resolve().parent.parent
    code = ("import sys, boxswap, boxswap.cli; "
            "print('boxswap.checks' in sys.modules); "
            "from boxswap import CheckResult, run_checks; "
            "print(boxswap.checks.REGISTRY[0][0], run_checks.__module__, "
            "CheckResult is boxswap.checks.CheckResult)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), check=True)
    assert proc.stdout == "False\nbound-table boxswap.checks True\n", proc.stderr
    with pytest.raises(AttributeError, match="no attribute 'absent'"):
        boxswap.absent
