"""Scenario engine: declarative wiring, branch bookkeeping, built-ins."""

from fractions import Fraction

import pytest

from boxswap import (
    BoxTable,
    Scalar,
    INV_SQRT2,
    ONE,
    ZERO,
    anti_pr,
    deterministic_local,
    failure,
    gsb,
    isotropic,
    mix,
    mixed,
    pr,
    sb,
    tensor,
)
from boxswap.errors import ArityError, CouplerInvalidError, SpecFileError, ValidationError
from boxswap.scenarios import (
    ScenarioBox,
    ScenarioCoupler,
    ScenarioSpec,
    ScenarioWiring,
    efficiency_compare,
    hybrid_three,
    run_scenario,
    swap_many,
    swap_two,
)

THIRD = Scalar.rational(1, 3)


def test_swap_two_bipartite():
    report = swap_two(2, 2)
    assert report.all_checks_passed
    assert report.parties == ("a1", "c1")
    assert report.total_probability == ONE
    assert report.branch((0,)).box == pr()
    assert report.branch((1,)).box == failure(2)
    assert report.branch((0,)).functionals["gsi"] == Scalar(4)
    assert report.branch((0,)).classification.exceeds_quantum


def test_swap_two_weights_multiply():
    report = swap_two(2, 3, Scalar.rational(1, 2), Scalar.rational(1, 3))
    assert report.all_checks_passed
    assert report.parties == ("a1", "c1", "c2")
    assert report.branch((0,)).box == isotropic(3, Scalar.rational(1, 6))
    assert report.branch((1,)).box == isotropic(3, Scalar.rational(-1, 12))


def test_swap_two_rejects_bad_arguments():
    with pytest.raises(ArityError):
        swap_two(1, 2)
    with pytest.raises(ValidationError):
        swap_two(2, 2, Scalar(2), ONE)
    with pytest.raises(ArityError):
        swap_many([2])
    with pytest.raises(ArityError):
        swap_many([2, 2], [ONE])


def test_swap_many_is_single_shot():
    report = swap_many([2, 2, 2])
    assert report.all_checks_passed
    assert report.branch((0,)).probability == THIRD
    assert report.branch((0,)).box == sb()
    report = swap_many([3, 2, 2])
    assert report.branch((0,)).box == gsb(4)


def test_swap_many_noise_product():
    report = swap_many([2, 2, 2], (Scalar.rational(1, 2), THIRD, ONE))
    assert report.all_checks_passed
    assert report.branch((0,)).box == isotropic(3, Scalar.rational(1, 6))


def test_hybrid_three_structure():
    report = hybrid_three()
    assert report.all_checks_passed
    assert report.parties == ("a", "c", "d")
    assert len(report.branches) == 8
    assert report.total_probability == ONE
    assert report.branch((0, 0, 0)).box == sb()
    assert report.branch((0, 0, 0)).probability == Scalar(Fraction(1, 27))
    one_fail = report.branch((0, 1, 0))
    assert one_fail.probability == Scalar(Fraction(2, 27))
    base, svet = mixed(3), sb()
    assert one_fail.box == mix([(Scalar(Fraction(3, 2)), base), (Scalar(Fraction(-1, 2)), svet)])
    worst = report.branch((1, 1, 1))
    assert worst.probability == Scalar(Fraction(8, 27))
    assert worst.box == mix([(Scalar(Fraction(9, 8)), base), (Scalar(Fraction(-1, 8)), svet)])
    assert [g["failures"] for g in report.groups] == [0, 1, 2, 3]
    assert [g["probability"] for g in report.groups] == [
        Scalar(Fraction(1, 27)),
        Scalar(Fraction(6, 27)),
        Scalar(Fraction(12, 27)),
        Scalar(Fraction(8, 27)),
    ]


def test_efficiency_compare():
    eff = efficiency_compare(3)
    assert eff.pairwise_boxes == 6
    assert eff.coupler_boxes == 3
    assert eff.pairwise_probability == Scalar(Fraction(1, 27))
    assert eff.coupler_probability == THIRD
    eff = efficiency_compare(4)
    assert eff.pairwise_boxes == 12
    assert eff.pairwise_probability == Scalar(Fraction(1, 3**6))


def test_conditioning_keeps_only_matching_branches():
    spec = ScenarioSpec(
        name="conditioned",
        boxes=(
            ScenarioBox("left", "pr", 2, ("a", "b1")),
            ScenarioBox("right", "pr", 2, ("b2", "c")),
        ),
        couplers=(ScenarioCoupler(2, ("b1", "b2"), outcome=0),),
    )
    report = run_scenario(spec)
    assert len(report.branches) == 1
    assert report.branches[0].outcome == (0,)
    assert report.total_probability == THIRD
    assert report.branches[0].box == pr()


def test_zero_probability_branches_terminate_with_padding():
    # consuming both ends of a failure box leaves zero mass on the success
    # branch, so that branch dies and later couplers pad its outcome
    doomed = tensor(pr(), failure(2))
    spec = ScenarioSpec(
        name="dead-branch",
        boxes=(
            ScenarioBox("doomed", "inline", 4, ("k1", "k2", "b1", "b2"), table=doomed),
            ScenarioBox("left", "pr", 2, ("a", "c1")),
            ScenarioBox("right", "pr", 2, ("c2", "d")),
        ),
        couplers=(
            ScenarioCoupler(2, ("b1", "b2")),
            ScenarioCoupler(2, ("c1", "c2")),
        ),
    )
    report = run_scenario(spec)
    dead = [r for r in report.branches if r.outcome[0] == 0]
    assert len(dead) == 1
    assert dead[0].outcome == (0, None)
    assert dead[0].probability == ZERO
    assert dead[0].box is None
    live = report.branch((1, 0))
    assert live.probability == THIRD
    assert live.box == tensor(pr(), pr())
    assert report.parties == ("k1", "k2", "a", "d")
    assert report.total_probability == ONE


def test_wirings_merge_labels():
    # two PR boxes wired at both users reduce to one two-party box
    spec = ScenarioSpec(
        name="wired",
        boxes=(
            ScenarioBox("g1", "pr", 2, ("a1", "b1")),
            ScenarioBox("g2", "pr", 2, ("a2", "b2")),
        ),
        wirings=(
            ScenarioWiring(("a1", "a2"), "a"),
            ScenarioWiring(("b1", "b2"), "b"),
        ),
    )
    report = run_scenario(spec)
    assert report.parties == ("a", "b")
    box = report.branches[0].box
    # XOR of two independent PR pairs at a common input: outputs satisfy
    # a XOR b = (x AND y) XOR (x AND y) = 0
    for x in range(4):
        for a in range(4):
            want = Scalar.rational(1, 2) if (a & 1) ^ ((a >> 1) & 1) == 0 else ZERO
            assert box.prob(x, a) == want


def test_inline_table_boxes_run():
    spec = ScenarioSpec.from_json(
        {
            "name": "inline",
            "boxes": [
                {"name": "left", "parties": ["a", "b1"], "table": pr().to_json()},
                {"name": "right", "kind": "pr", "parties": ["b2", "c"]},
            ],
            "couplers": [{"consumed": ["b1", "b2"]}],
        }
    )
    report = run_scenario(spec)
    assert report.branch((0,)).box == pr()


def test_inline_table_must_be_valid():
    quasi = BoxTable(2, [2 * p - q for p, q in zip(pr().probs, anti_pr().probs)])
    spec = ScenarioSpec(
        name="bad-inline",
        boxes=(ScenarioBox("q", "inline", 2, ("a", "b"), table=quasi),),
    )
    with pytest.raises(ValidationError):
        run_scenario(spec)


def test_invalid_coupler_region_names_the_branch_path():
    trio = tensor(anti_pr(), deterministic_local([(0, 0)]))
    spec = ScenarioSpec(
        name="invalid",
        boxes=(ScenarioBox("trio", "inline", 3, ("b1", "b2", "k"), table=trio),),
        couplers=(ScenarioCoupler(2, ("b1", "b2")),),
        reports=(),
    )
    with pytest.raises(CouplerInvalidError) as err:
        run_scenario(spec)
    assert err.value.branch == 0
    assert "branch path" in str(err.value)


def test_spec_validation_errors():
    box = ScenarioBox("g", "pr", 2, ("a", "b"))
    with pytest.raises(SpecFileError):
        run_scenario(ScenarioSpec("dup", (box, box)))
    with pytest.raises(SpecFileError):
        run_scenario(
            ScenarioSpec("bad-label", (box,), couplers=(ScenarioCoupler(2, ("a", "zz")),))
        )
    with pytest.raises(SpecFileError):
        run_scenario(
            ScenarioSpec(
                "consumed-twice",
                (box, ScenarioBox("h", "pr", 2, ("c", "d"))),
                couplers=(ScenarioCoupler(2, ("a", "b")), ScenarioCoupler(2, ("b", "c"))),
            )
        )
    with pytest.raises(SpecFileError):
        run_scenario(
            ScenarioSpec("wire-self", (box,), wirings=(ScenarioWiring(("a", "a"), "z"),))
        )
    with pytest.raises(SpecFileError):
        run_scenario(ScenarioSpec("bad-arity", (box,), couplers=(ScenarioCoupler(3, ("a", "b")),)))
    with pytest.raises(SpecFileError):
        run_scenario(ScenarioSpec("bad-n", (ScenarioBox("g", "pr", 3, ("a", "b")),)))
    with pytest.raises(SpecFileError):
        run_scenario(ScenarioSpec("bad-report", (box,), reports=("chsh",)))


def test_ch_report_needs_two_surviving_parties():
    spec = ScenarioSpec(
        name="ch-arity",
        boxes=(ScenarioBox("g", "sb", 3, ("a", "b", "c")),),
        reports=("ch",),
    )
    with pytest.raises(SpecFileError):
        run_scenario(spec)


def test_scenario_spec_json_round_trip():
    spec = ScenarioSpec(
        name="round",
        boxes=(
            ScenarioBox("g1", "isotropic", 2, ("a", "b1"), xi=INV_SQRT2),
            ScenarioBox("g2", "pr", 2, ("b2", "c")),
        ),
        couplers=(ScenarioCoupler(2, ("b1", "b2"), outcome=1),),
        wirings=(),
        reports=("gsi", "ch"),
    )
    doc = spec.to_json()
    assert doc["condition"] == [1]
    again = ScenarioSpec.from_json(doc)
    assert again == spec


def test_scenario_json_rejects_conflicting_condition():
    doc = {
        "name": "x",
        "boxes": [{"name": "g", "kind": "pr", "parties": ["a", "b"]}],
        "couplers": [{"consumed": ["a", "b"], "outcome": 0}],
        "condition": [1],
    }
    with pytest.raises(SpecFileError):
        ScenarioSpec.from_json(doc)


def test_report_json_shape():
    doc = swap_two(2, 2).to_json()
    assert doc["scenario"] == "swap-two-2x2"
    assert doc["order"] == "party1-lsb"
    assert doc["total_probability"] == {"r": ["1", "1"], "s": ["0", "1"]}
    success = doc["branches"][0]
    assert success["outcome"] == [0]
    assert success["probability"] == {"r": ["1", "3"], "s": ["0", "1"]}
    assert success["validation"]["all_ok"] is True
    assert all(c["passed"] for c in doc["crosschecks"])
