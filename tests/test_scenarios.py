"""Scenario engine: declarative wiring, branch bookkeeping, built-ins."""

from fractions import Fraction
from math import isqrt
from pathlib import Path
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
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
from boxswap import boxes, scenarios
from boxswap.errors import (
    ArityError,
    BoxSwapError,
    CouplerInvalidError,
    SpecFileError,
    ValidationError,
)
from boxswap.fileio import canonical_dumps, load_json
from boxswap.scenarios import (
    ScenarioBox,
    ScenarioCoupler,
    ScenarioReport,
    ScenarioSpec,
    ScenarioWiring,
    efficiency_compare,
    hybrid_three,
    run_scenario,
    swap_many,
    swap_two,
)

THIRD = Scalar.rational(1, 3)
ROOT = Path(__file__).resolve().parent.parent


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


def test_swap_law_fails_on_swapped_branch_boxes():
    report = swap_two(2, 3, Scalar.rational(1, 2), Scalar.rational(1, 3))
    success, fail = report.branch((0,)), report.branch((1,))
    success.box, fail.box = fail.box, success.box
    checks = scenarios._swap_law(report, 3, Scalar.rational(1, 6))
    assert len(checks) == 4
    assert [c.name for c in checks if not c.passed] == ["branch-0-box", "branch-1-box"]


def test_builder_crosscheck_counts():
    assert len(swap_two(2, 2).crosschecks) == 6
    assert len(swap_many([2, 2, 2]).crosschecks) == 6
    assert len(hybrid_three().crosschecks) == 22


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
    quasi = oracle.from_probs(2, [2 * p - q for p, q in zip(pr().probs, anti_pr().probs)])
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


def _pr_swap(outcome) -> ScenarioSpec:
    return ScenarioSpec("pr-swap", (ScenarioBox("left", "pr", 2, ("a", "b1")),
                                    ScenarioBox("right", "pr", 2, ("b2", "c"))),
                        couplers=(ScenarioCoupler(2, ("b1", "b2"), outcome),))


@pytest.mark.parametrize("outcome", [2, -1, True, 1.0, "0"])
def test_a_coupler_outcome_is_0_1_or_none(outcome):
    # refused by the JSON loader's rule for a bit, even once a plan for the
    # equal 1 is kept (True == 1.0 == 1); 0, 1 and None run as they did
    both = run_scenario(_pr_swap(None))
    assert [b.outcome for b in both.branches] == [(0,), (1,)]
    for bit in (0, 1):
        kept = run_scenario(_pr_swap(bit))
        assert [b.to_json() for b in kept.branches] == [both.branches[bit].to_json()]
        assert ScenarioSpec.from_json(_pr_swap(bit).to_json()) == _pr_swap(bit)
    with pytest.raises(SpecFileError) as err:
        run_scenario(_pr_swap(outcome))
    assert str(err.value) == f"coupler 'outcome' must be 0, 1, or null, got {outcome!r}"


@st.composite
def _near_ends(draw):
    """(r + s*sqrt(2)) / d on or within a few 1/d of -1, 0 or 1, with r the
    integer next to -s*sqrt(2) (plus the end), so a sqrt(2)-bearing value
    lies as near an end as its denominator lets it."""
    end, d = draw(st.sampled_from((-1, 0, 1))), draw(st.integers(1, 10**6))
    s = draw(st.one_of(st.just(0), st.integers(-10**6, 10**6)))
    floor = isqrt(2 * s * s)  # floor(|s| * sqrt(2))
    r = (-floor if s > 0 else floor) + end * d + draw(st.integers(-3, 3))
    return Scalar.over(r, s, d)


@settings(max_examples=300, deadline=None)
@given(_near_ends())
def test_range_tests_by_sign_agree_with_comparisons(xi):
    try:
        assert scenarios._coerce_xi(xi) is xi
    except ValidationError as exc:
        assert str(exc) == f"swap scenarios need xi in [0, 1], got {xi}"
        assert not ZERO <= xi <= ONE
    else:
        assert ZERO <= xi <= ONE
    try:
        isotropic(2, xi)
    except ValidationError as exc:
        assert str(exc) == f"isotropic weight must lie in [-1, 1], got {xi}"
        assert not Scalar(-1) <= xi <= ONE
    else:
        assert Scalar(-1) <= xi <= ONE


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


def test_empty_scenario_is_a_spec_error():
    with pytest.raises(SpecFileError, match="at least one box"):
        run_scenario(ScenarioSpec("empty", ()))


# -- the engine against the reference branch loop ---------------------------

XIS = (ZERO, Scalar.rational(1, 2), ONE, INV_SQRT2)


@st.composite
def _inline_tables(draw, n):
    pick = [deterministic_local(draw(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                                              min_size=n, max_size=n)))]
    if n >= 2:
        pick += [failure(n), mixed(n), isotropic(n, draw(st.sampled_from(XIS)))]
    if n == 2:
        pick += [anti_pr()]
    if n == 3:
        pick += [tensor(anti_pr(), deterministic_local([(0, 0)])),
                 tensor(failure(2), deterministic_local([(1, 0)]))]
    return draw(st.sampled_from(pick))


@st.composite
def _scenario_specs(draw):
    """Up to seven parties in 1-4 boxes, 0-3 couplers over unconsumed labels
    (free to take two ends of one box), some conditioned, and up to two
    wirings of survivors, inside one pool or across pools."""
    boxes, labels = [], []
    for k in range(draw(st.sampled_from((1, 2, 3, 3, 4, 4)))):
        if len(labels) == 7:
            break
        n = draw(st.sampled_from([n for n in (1, 2, 2, 3, 3) if len(labels) + n <= 7]))
        kind = draw(st.sampled_from(("pr", "isotropic", "gsb", "inline") if n >= 2 else ("inline",)))
        parties = tuple(f"p{len(labels) + i}" for i in range(n))
        labels += parties
        if kind == "inline":
            boxes.append(ScenarioBox(f"g{k}", kind, n, parties, table=draw(_inline_tables(n))))
        elif kind == "pr" and n == 2:
            boxes.append(ScenarioBox(f"g{k}", kind, n, parties))
        else:
            xi = draw(st.sampled_from(XIS)) if kind == "isotropic" else None
            boxes.append(ScenarioBox(f"g{k}", "gsb" if xi is None else kind, n, parties, xi))
    free = list(labels)
    pools = [set(b.parties) for b in boxes]
    couplers = []
    for _ in range(draw(st.sampled_from((0, 1, 2, 2, 3, 3)))):
        if len(free) < 3:
            break
        arity = draw(st.integers(2, min(3, len(free) - 1)))
        consumed = draw(st.permutations(free))[:arity]
        involved = [pool for pool in pools if pool & set(consumed)]
        survivors = set().union(*involved) - set(consumed)
        if not survivors:  # apply_coupler refuses to consume a whole joint
            continue
        pools = [pool for pool in pools if pool not in involved] + [survivors]
        free = [p for p in free if p not in consumed]
        couplers.append(ScenarioCoupler(arity, tuple(consumed),
                                        draw(st.sampled_from((None, None, 0, 1)))))
    wirings = []
    for k in range(draw(st.integers(0, 2))):
        if len(free) < 3:
            break
        pair = draw(st.permutations(free))[:2]
        free = [p for p in free if p not in pair]
        wirings.append(ScenarioWiring(tuple(pair), f"w{k}"))
    reports = draw(st.sampled_from(((), ("gsi",), ("gsi", "ch"))))
    return ScenarioSpec("drawn", tuple(boxes), tuple(couplers), tuple(wirings), reports)


def _written(report) -> tuple:
    """The report's document and its canonical text, after checking that
    each part built once per object reads as the ``to_json`` and
    ``decimal`` of its own values."""
    doc = report.to_json()
    text = canonical_dumps(doc)
    for record, branch in zip(report.branches, doc["branches"]):
        assert branch["probability"] == record.probability.to_json()
        assert branch["probability_decimal"] == record.probability.decimal()
        if record.classification is not None:
            assert branch["classification"] == record.classification.to_json()
        assert branch["functionals"] == {
            name: {"value": value.to_json(), "decimal": value.decimal()}
            for name, value in record.functionals.items()}
    return doc, text


def _outcome(run, spec):
    try:
        return _written(run(spec))
    except BoxSwapError as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=100, deadline=None)
@given(_scenario_specs())
def test_engine_agrees_with_the_reference_branch_loop(spec):
    assert _outcome(run_scenario, spec) == _outcome(oracle.run_scenario, spec)


# -- work counts and the ring law -------------------------------------------


def ring(n: int) -> ScenarioSpec:
    """n users on a cycle, shaped like ``hybrid_three.json``: each edge is two
    PR boxes whose inner ends meet in a two-end coupler, and each user wires
    the outer ends it holds."""
    users = "acdefghijk"[:n]
    boxes, couplers = [], []
    for k, (left, right) in enumerate(zip(users, users[1:] + users[:1])):
        boxes += [ScenarioBox(f"g{2 * k + 1}", "pr", 2, (f"{left}1", f"b{2 * k + 1}")),
                  ScenarioBox(f"g{2 * k + 2}", "pr", 2, (f"{right}2", f"b{2 * k + 2}"))]
        couplers.append(ScenarioCoupler(2, (f"b{2 * k + 1}", f"b{2 * k + 2}")))
    wirings = tuple(ScenarioWiring((f"{u}1", f"{u}2"), u) for u in users)
    return ScenarioSpec(f"ring-{n}", tuple(boxes), tuple(couplers), wirings)


def _counted_run(monkeypatch, spec):
    calls = []
    apply = scenarios.apply_coupler

    def counting(*args, **kwargs):
        calls.append(1)
        return apply(*args, **kwargs)

    monkeypatch.setattr(scenarios, "apply_coupler", counting)
    return run_scenario(spec), len(calls)


def test_hybrid_three_document_applies_each_coupler_once(monkeypatch):
    spec = ScenarioSpec.from_json(load_json(ROOT / "scenarios" / "hybrid_three.json"))
    assert ring(3).boxes == spec.boxes and ring(3).couplers == spec.couplers
    assert ring(3).wirings == spec.wirings
    report, calls = _counted_run(monkeypatch, spec)
    assert calls == 3
    assert len(report.branches) == 8 and report.all_checks_passed


CAP_TEXT = "n=12 parties means 4**12 exact entries; the cap is 10. Marginalize earlier."


def _independent_swaps(count: int) -> ScenarioSpec:
    """``count`` PR-pair swaps that share no party: their final fold tensors
    ``count`` two-party pools together."""
    boxes, couplers = [], []
    for k in range(count):
        boxes += [ScenarioBox(f"p{k}", "pr", 2, (f"a{k}", f"b{k}")),
                  ScenarioBox(f"q{k}", "pr", 2, (f"c{k}", f"d{k}"))]
        couplers.append(ScenarioCoupler(2, (f"b{k}", f"c{k}")))
    return ScenarioSpec(f"swaps-{count}", tuple(boxes), tuple(couplers))


def test_an_over_cap_spec_is_refused_before_any_coupler_runs(monkeypatch):
    # sixteen independent swaps fold to 32 parties; the fold's sixth join
    # (12 parties) is the first product over the cap, and the plan refuses
    # it with the error that join raises, before any coupler is applied.  A
    # joint over three pools, after a swap that runs, is refused at the
    # first partial product past the cap, as ``reduce(tensor, ...)`` meets
    # it: 6 + 6, not 6 + 6 + 6.
    # The cap holds on the spec, not on the branches that reach a step: a
    # spec whose only branch has zero mass before an over-cap fold is
    # refused too (success on both ends of failure(2) cannot happen)
    three = ScenarioSpec("three", _independent_swaps(1).boxes + tuple(
        [ScenarioBox(f"g{k}", "gsb", 6, tuple(f"{k}{i}" for i in range(6))) for k in range(3)]),
        _independent_swaps(1).couplers + (ScenarioCoupler(3, ("00", "10", "20")),))
    zero = ScenarioSpec("zero", (ScenarioBox("pf", "inline", 4, ("x1", "x2", "f1", "f2"),
                                             table=tensor(pr(), failure(2))),
                                 ScenarioBox("g", "gsb", 5, tuple("ghijk")),
                                 ScenarioBox("h", "gsb", 5, tuple("lmnop"))),
                        (ScenarioCoupler(2, ("f1", "f2"), 0),))
    calls = []
    apply = scenarios.apply_coupler
    monkeypatch.setattr(scenarios, "apply_coupler", lambda *args: calls.append(args) or apply(*args))
    for spec in (_independent_swaps(16), three, zero):
        with pytest.raises(boxes.PartyCapError) as err:
            run_scenario(spec)
        assert str(err.value) == CAP_TEXT
    assert calls == []
    assert run_scenario(_independent_swaps(5)).all_checks_passed  # 10 parties still run
    assert len(calls) == 5


def _chain(k: int) -> ScenarioSpec:
    """k + 1 PR boxes in a line, coupler i consuming the right end of box i
    and the left end of box i + 1 (``scripts/scaling.py``'s repeater chain)."""
    boxes = tuple(ScenarioBox(f"g{i}", "pr", 2, (f"l{i}", f"r{i}")) for i in range(1, k + 2))
    couplers = tuple(ScenarioCoupler(2, (f"r{i}", f"l{i + 1}")) for i in range(1, k + 1))
    return ScenarioSpec(f"chain-{k}", boxes, couplers)


def test_a_spec_over_the_branch_cap_is_refused_before_any_coupler_runs(monkeypatch):
    # a 30-coupler chain would hold 2**30 branches: its plan refuses it at
    # once, before any table is built or any coupler applied
    calls = []
    apply = scenarios.apply_coupler
    monkeypatch.setattr(scenarios, "apply_coupler", lambda *args: calls.append(args) or apply(*args))
    start = perf_counter()
    with pytest.raises(SpecFileError) as err:
        run_scenario(_chain(30))
    assert perf_counter() - start < 0.1
    assert str(err.value) == "30 couplers without an outcome make 2**30 branches; the cap is 65536"
    assert calls == []
    # 16 couplers are at the cap, so the 16-coupler chain is planned (its
    # 65,536 branches are not run here); a coupler with an outcome adds none
    assert scenarios.BRANCH_CAP == 2**16
    assert len(scenarios._plan(*scenarios._shape(_chain(16)))[0]) == 16
    conditioned = ScenarioSpec("kept", _chain(17).boxes,
                               _chain(17).couplers[:-1] + (ScenarioCoupler(2, ("r17", "l18"), 0),))
    assert len(scenarios._plan(*scenarios._shape(conditioned))[0]) == 17
    with pytest.raises(SpecFileError, match="17 couplers without an outcome make 2[*][*]17"):
        scenarios._plan(*scenarios._shape(_chain(17)))
    assert calls == []


def _ring_law(n: int, k: int) -> BoxTable:
    """The box of a ring(n) branch with k failed couplers: cells
    (1 + w * (-1)**(|a| + sum_i x_i * x_{i+1})) / 2**n, indices mod n and
    w = (-1/2)**k, that is w * G + (1 - w) * mixed(n) for the cycle's parity
    box G.  Its columns are 2**k at the empty set and (-1)**k times the
    cycle's sign at the full set, over 2**(n + k)."""
    signs = [(-1) ** sum(x >> i & x >> (i + 1) % n & 1 for i in range(n)) for x in range(2**n)]
    columns = {0: ((2**k,) * 2**n, None), 2**n - 1: ([(-1) ** k * s for s in signs], None)}
    return BoxTable.from_spectrum(n, 2 ** (n + k), columns)


def _check_failure_law(monkeypatch, n):
    """ring(n) applies each coupler once and has 2**n branches; a branch
    with k failed couplers has probability 2**k / 3**n and the valid box
    ``_ring_law(n, k)``."""
    report, calls = _counted_run(monkeypatch, ring(n))
    assert calls == n
    assert len(report.branches) == 2**n
    assert report.parties == tuple("acdefghijk"[:n])
    laws = [_ring_law(n, k) for k in range(n + 1)]
    for record in report.branches:
        k = sum(record.outcome)
        assert record.probability == Scalar.rational(2**k, 3**n)
        assert record.validation.all_ok
        assert record.box == laws[k]
    assert report.total_probability == ONE and report.all_checks_passed


def test_ring_of_three_follows_the_failure_law(monkeypatch):
    _check_failure_law(monkeypatch, 3)


def test_ring_of_four_follows_the_failure_law(monkeypatch):
    _check_failure_law(monkeypatch, 4)


def test_ring_of_five_follows_the_failure_law(monkeypatch):
    _check_failure_law(monkeypatch, 5)


def test_ring_of_six_follows_the_failure_law(monkeypatch):
    _check_failure_law(monkeypatch, 6)


def test_ring_of_seven_follows_the_failure_law(monkeypatch):
    _check_failure_law(monkeypatch, 7)


def test_ring_of_eight_follows_the_failure_law(monkeypatch):
    _check_failure_law(monkeypatch, 8)


def test_ring_of_nine_runs_exactly(monkeypatch):
    # 512 branches on nine users, each box spectral from the first join to
    # its validation and its comparison with the law
    _check_failure_law(monkeypatch, 9)


def test_ring_of_ten_follows_the_failure_law(monkeypatch):
    # 1,024 branches on ten users, at the party cap
    _check_failure_law(monkeypatch, 10)


def chain(k: int) -> ScenarioSpec:
    """A repeater chain: k + 1 PR boxes (l_i, r_i) in a line, coupler i
    consuming r_i and l_{i+1}, so that the two end users survive."""
    boxes = tuple(ScenarioBox(f"g{i}", "pr", 2, (f"l{i}", f"r{i}")) for i in range(1, k + 2))
    couplers = tuple(ScenarioCoupler(2, (f"r{i}", f"l{i + 1}")) for i in range(1, k + 1))
    return ScenarioSpec(f"chain-{k}", boxes, couplers)


def test_a_repeater_chain_applies_each_coupler_once_per_distinct_pool(monkeypatch):
    # coupler i meets the pool its i - 1 predecessors left, whose value
    # depends only on how many of them failed: i values, so k(k + 1)/2
    # applications in all, not the 2**k - 1 of one per branch; a branch with
    # f failures leaves isotropic(2, (-1/2)**f) with probability 2**f / 3**k
    report, calls = _counted_run(monkeypatch, chain(8))
    assert calls == 36
    assert len(report.branches) == 2**8 and report.parties == ("l1", "r9")
    for record in report.branches:
        f = sum(record.outcome)
        assert record.probability == Scalar.rational(2**f, 3**8)
        assert record.box == isotropic(2, Scalar.rational((-1) ** f, 2**f))
    assert report.total_probability == ONE and report.all_checks_passed


@pytest.mark.parametrize("n, joins", [(3, 10), (8, 70), (10, 108)])
def test_a_ring_joins_each_distinct_fold_and_pool_once(monkeypatch, n, joins):
    # the fold of a ring's first k pools depends only on how many of their
    # couplers failed, so it has k + 1 values, each joined once with each of
    # the next pool's two: n(n + 1) - 2 joins in all, not the 2**(n + 1) - 4
    # of one per branch prefix
    calls = []
    join = scenarios.wired

    def counting(*args):
        calls.append(1)
        return join(*args)

    monkeypatch.setattr(scenarios, "wired", counting)
    report = run_scenario(ring(n))
    assert len(calls) == joins == n * (n + 1) - 2
    assert len(report.branches) == 2**n and report.all_checks_passed


def test_value_equal_pools_held_as_different_objects_are_coupled_once(monkeypatch):
    # two weight-0 boxes swap to the mixed box on either outcome, two equal
    # pools held as different objects; the second coupler, reached by both
    # branches, is applied once, and the report is the reference loop's
    spec = ScenarioSpec("equal-pools", (
        ScenarioBox("g1", "isotropic", 2, ("a", "b1"), ZERO),
        ScenarioBox("g2", "isotropic", 2, ("b2", "c"), ZERO),
        ScenarioBox("g3", "pr", 2, ("b3", "d")),
    ), (ScenarioCoupler(2, ("b1", "b2")), ScenarioCoupler(2, ("c", "b3"))))
    results = []
    apply = scenarios.apply_coupler

    def recording(*args):
        results.append(apply(*args))
        return results[-1]

    monkeypatch.setattr(scenarios, "apply_coupler", recording)
    report = run_scenario(spec)
    assert len(results) == 2 and len(report.branches) == 4
    first, second = (r.box for r in results[0])
    assert first is not second and first == second
    assert _outcome(run_scenario, spec) == _outcome(oracle.run_scenario, spec)


@pytest.mark.parametrize("build, survivors", [
    (lambda xi: swap_two(5, 5, xi, xi), 8),
    (lambda xi: swap_many((3, 3, 3), (xi, xi, xi)), 6),
    (lambda xi: swap_two(3, 3, xi, xi), 4),
    (lambda xi: swap_two(3, 4, xi, ONE - xi), 5),
    (lambda xi: swap_many((2, 2, 3), (xi, xi, xi)), 4),
], ids=["swap_two(5,5)", "swap_many(3,3,3)", "swap_two(3,3)", "swap_two(3,4)",
        "swap_many(2,2,3)"])
def test_large_swaps_never_write_their_joint(monkeypatch, build, survivors):
    # the joints of isotropic boxes, up to 10 parties, are contracted column
    # by column, and the swap's validation, functionals and swap law read
    # columns too: no table is built from cells, and no product and no
    # spectral table is materialized, at dyadic, rational or sqrt(2) weights
    products, built, cells = _counted_tables(monkeypatch)
    for xi in (INV_SQRT2, Scalar(Fraction(1, 4), Fraction(1, 4)), Scalar.rational(3, 8),
               Scalar.rational(2, 3)):
        report = build(xi)
        assert report.all_checks_passed and len(report.crosschecks) == 6
        assert len(report.branches) == 2 and report.total_probability == ONE
        assert {r.box.n for r in report.branches} == {survivors}
        assert products == built == cells == []


@pytest.mark.parametrize("build, users", [
    (lambda: ring(5), 5),
    (lambda: ScenarioSpec.from_json(load_json(ROOT / "scenarios" / "hybrid_three.json")), 3),
    (lambda: ring(6), 6),
], ids=["ring(5)", "hybrid_three.json", "ring(6)"])
def test_a_ring_fold_never_writes_a_product(monkeypatch, build, users):
    # each pool is wired onto the fold without their product, and the pool
    # that closes the ring is joined across both of its wirings at once; the
    # joins, validation and functionals read columns, so no table is built
    # from cells and no product or spectral table is materialized
    products, built, cells = _counted_tables(monkeypatch)
    merges = []
    monkeypatch.setattr(scenarios, "merge_parties", lambda *args: merges.append(args))
    report = run_scenario(build())
    assert report.all_checks_passed
    assert products == built == cells == []
    assert len(report.branches) == 2**users
    assert merges == []  # every wiring spans two pools: none is merged inside a table


@pytest.mark.parametrize("n", [3, 4, 5])
def test_a_wiring_inside_a_pool_never_writes_a_cell(monkeypatch, n):
    # two isotropic boxes swapped by a 2-end coupler leave one pool, and a
    # wiring of two of its survivors is a merge inside that pool: it reads
    # the pool's columns, so no table is built from cells and no product or
    # spectral table is materialized, at dyadic, rational or sqrt(2) weights
    xis = (Scalar.rational(1, 2), Scalar.rational(2, 3),
           Scalar(Fraction(1, 2), Fraction(1, 4)))
    specs = [ScenarioSpec(
        "pool-wiring",
        (ScenarioBox("g1", "isotropic", n, tuple(f"a{k}" for k in range(1, n)) + ("b1",), xi),
         ScenarioBox("g2", "isotropic", n, ("b2",) + tuple(f"c{k}" for k in range(1, n)), xi)),
        (ScenarioCoupler(2, ("b1", "b2")),),
        (ScenarioWiring(("a1", "c1"), "u"),),
        ("gsi",)) for xi in xis]
    products, built, cells = _counted_tables(monkeypatch)
    reports = [run_scenario(spec) for spec in specs]
    assert products == built == cells == []
    for spec, report in zip(specs, reports):
        assert report.all_checks_passed
        assert {r.box.n for r in report.branches} == {2 * n - 3}
        assert _written(report) == _written(oracle.run_scenario(spec))


@pytest.mark.parametrize("weight", [Scalar.rational(3, 10), Scalar(Fraction(1, 2), Fraction(1, 4))],
                         ids=["rational", "sqrt2"])
def test_a_mix_of_lazy_products_builds_none_of_them(monkeypatch, weight):
    # as in reproduce's random-properties check: two lazy 2+2-party products
    # of mixtures, mixed.  Each product's term is written from its factors,
    # so no product is materialized and the mix builds one table, its own;
    # the factors (cell tables, a spectral one with a sqrt(2) part) are
    # built, and their cells read, before counting starts
    factors = [mix([(Scalar.rational(1, 3), pr()), (Scalar.rational(2, 3), mixed(2))]),
               isotropic(2, INV_SQRT2),
               mix([(Scalar.rational(1, 4), anti_pr()),
                    (Scalar.rational(3, 4), deterministic_local([(0, 1), (1, 1)]))]),
               deterministic_local([(1, 0), (0, 1)])]
    for f in factors:
        f.rat
    joint1, joint2 = tensor(factors[0], factors[1]), tensor(factors[2], factors[3])
    products, built, cells = _counted_tables(monkeypatch)
    got = mix([(weight, joint1), (ONE - weight, joint2)])
    assert products == cells == [] and built == [4]
    assert got == oracle.mix([(weight, joint1), (ONE - weight, joint2)])


# -- one evaluation and one document per distinct branch box ----------------


BUNDLED = sorted((ROOT / "scenarios").glob("*.json"))


@pytest.mark.parametrize("spec", [
    *(ScenarioSpec.from_json(load_json(path)) for path in BUNDLED),
    *(ring(n) for n in range(3, 7)),
], ids=[*(path.stem for path in BUNDLED), *(f"ring({n})" for n in range(3, 7))])
def test_a_report_writes_the_bytes_of_its_unshared_copy(spec):
    _written(run_scenario(spec))


def _two_sqrt2_swaps() -> ScenarioReport:
    """Two swaps of isotropic boxes at weights 1/sqrt(2) and 1, side by
    side: the 4-party boxes of branches (0, 1) and (1, 0) have one den and
    the same rational columns, and differ only in their sqrt(2) columns."""
    boxes = (ScenarioBox("g1", "isotropic", 2, ("a", "b1"), INV_SQRT2),
             ScenarioBox("g2", "isotropic", 2, ("b2", "c"), ONE),
             ScenarioBox("g3", "isotropic", 2, ("d", "b3"), INV_SQRT2),
             ScenarioBox("g4", "isotropic", 2, ("b4", "e"), ONE))
    couplers = (ScenarioCoupler(2, ("b1", "b2")), ScenarioCoupler(2, ("b3", "b4")))
    return run_scenario(ScenarioSpec("two-sqrt2-swaps", boxes, couplers))


def _counted_results(monkeypatch) -> dict:
    """Counts that fill, as reports are built and written, with the calls
    of the scenario module's ``validate`` and ``classify`` and of
    ``BoxTable.to_json``."""
    counts = dict.fromkeys(("validate", "classify", "to_json"), 0)

    def counting(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(scenarios, "validate", counting("validate", scenarios.validate))
    monkeypatch.setattr(scenarios, "classify", counting("classify", scenarios.classify))
    monkeypatch.setattr(BoxTable, "to_json", counting("to_json", BoxTable.to_json))
    return counts


@pytest.mark.parametrize("build, branches, distinct", [
    (hybrid_three, 8, 4),
    (lambda: run_scenario(ring(5)), 32, 6),
    (_two_sqrt2_swaps, 4, 4),
], ids=["hybrid_three", "ring(5)", "two_sqrt2_swaps"])
def test_equal_branch_boxes_are_evaluated_and_written_once(monkeypatch, build, branches,
                                                           distinct):
    # a branch box depends only on how many couplers failed, so a ring of N
    # has N + 1 distinct boxes; boxes that differ only in sqrt(2) parts stay
    # apart
    counts = _counted_results(monkeypatch)
    report = build()
    report.to_json()
    assert len(report.branches) == branches
    assert len({id(r.box) for r in report.branches}) == distinct
    assert counts == {"validate": distinct, "classify": distinct, "to_json": distinct}


def test_equal_boxes_held_as_cells_and_as_columns_are_evaluated_once(monkeypatch):
    # a branch box held as columns and an equal one held as cells have one
    # content key, so the report validates, classifies and writes one box
    counts = _counted_results(monkeypatch)
    columns = failure(3)
    cells = oracle.from_probs(3, columns.probs)
    assert columns.spectrum is not None and cells.spectrum is None
    report = scenarios._report(ScenarioSpec("either-form", ()), [
        ((0,), THIRD, ("a", "b", "c"), columns),
        ((1,), Scalar.rational(2, 3), ("a", "b", "c"), cells),
    ], {})
    report.to_json()
    assert report.all_checks_passed
    assert report.branches[0].box is report.branches[1].box is columns
    assert counts == {"validate": 1, "classify": 1, "to_json": 1}


def test_a_ring_of_seven_writes_eight_box_documents(monkeypatch):
    counts = _counted_results(monkeypatch)
    doc = run_scenario(ring(7)).to_json()
    assert len(doc["branches"]) == 128
    assert counts == {"validate": 8, "classify": 8, "to_json": 8}


def _counted_tables(monkeypatch):
    """Lists that fill, as ``boxes`` runs, with the party count of every
    lazy product materialized, of every table built from numerators, and of
    every spectral table whose cells are built."""
    products, built, cells = [], [], []
    product, from_numerators, spread = boxes._product, BoxTable.from_numerators.__func__, boxes._cells

    def counting_product(factors):
        products.append(sum(f.n for f in factors))
        return product(factors)

    def counting_build(cls, n, *args):
        built.append(n)
        return from_numerators(cls, n, *args)

    def counting_cells(n, spectrum):
        cells.append(n)
        return spread(n, spectrum)

    monkeypatch.setattr(boxes, "_product", counting_product)
    monkeypatch.setattr(BoxTable, "from_numerators", classmethod(counting_build))
    monkeypatch.setattr(boxes, "_cells", counting_cells)
    return products, built, cells
