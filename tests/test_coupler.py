"""Couplers: weight tables, branch outputs, the success law, invalid inputs.

The law (affine in the consumed box's functional value) and the raw weight
contraction agree wherever both views are meaningful for real swaps; the
final tests record exactly where the two part ways for exotic consumed
marginals, so neither view can drift silently.
"""

import importlib.util
import itertools
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxswap import (
    INV_SQRT2,
    BoxTable,
    Scalar,
    ONE,
    ZERO,
    anti_pr,
    apply_coupler,
    bounds,
    build_coupler,
    deterministic_local,
    failure,
    gsb,
    is_allowed,
    isotropic,
    mix,
    mixed,
    pr,
    success_probability,
    swap_many,
    swap_two,
    tensor,
    validate,
)
import boxswap.cli  # the workloads build requests of the CLI
from boxswap import checks, coupler, scenarios
from boxswap.errors import ArityError, CouplerInvalidError, PartyCapError, SpecFileError
from boxswap.fileio import load_json

THIRD = Scalar.rational(1, 3)
ROOT = Path(__file__).resolve().parent.parent


def _kernel_by_word(n: int) -> tuple:
    """The coupler's kernel H at every consumed-input word."""
    kernel = build_coupler(n).kernel
    return tuple(kernel[y.bit_count()] for y in range(2**n))


def test_kernel_two_ends_matches_sign_pattern():
    assert _kernel_by_word(2) == (1, 1, 1, -1)


def test_kernel_three_and_four_ends_by_popcount():
    by_count = {0: 0, 1: 2, 2: 0, 3: -2}
    assert _kernel_by_word(3) == tuple(by_count[y.bit_count()] for y in range(8))
    by_count = {0: -2, 1: 2, 2: 2, 3: -2, 4: -2}
    assert _kernel_by_word(4) == tuple(by_count[y.bit_count()] for y in range(16))
    with pytest.raises(ArityError):
        build_coupler(1)


def test_weight_table_golden_entries():
    chi = build_coupler(2)
    assert chi.weight(0, 0b00, 0b00) == Scalar.rational(1, 4)
    assert chi.weight(0, 0b01, 0b00) == Scalar.rational(-1, 12)
    assert chi.weight(0, 0b00, 0b11) == Scalar.rational(-1, 12)
    assert chi.weight(0, 0b01, 0b11) == Scalar.rational(1, 4)
    assert chi.weight(1, 0b00, 0b00) == ZERO
    assert chi.weight(1, 0b01, 0b00) == THIRD


def test_branches_sum_to_the_uniform_effect():
    for n in (2, 3, 4):
        chi = build_coupler(n)
        uniform = Scalar.rational(1, 2**n)
        for idx in range(4**n):
            b, y = idx >> n, idx & (2**n - 1)
            assert chi.weight(0, b, y) + chi.weight(1, b, y) == uniform


def test_swap_of_two_extremal_boxes():
    res0, res1 = apply_coupler(build_coupler(2), tensor(pr(), pr()), (2, 3))
    assert res0.probability == THIRD
    assert res0.box == pr()
    assert res1.probability == ONE - THIRD
    assert res1.box == failure(2)


def test_consumed_order_is_the_couplers_label_order():
    # swapping which end is listed first must not matter for a symmetric box
    joint = tensor(pr(), pr())
    a = apply_coupler(build_coupler(2), joint, (2, 3))
    b = apply_coupler(build_coupler(2), joint, (3, 2))
    assert a[0].box == b[0].box and a[0].probability == b[0].probability


def test_survivors_keep_their_relative_order():
    # consume the middle ends; survivors are original parties 1 and 4
    joint = tensor(isotropic(2, Scalar.rational(1, 2)), pr())
    res0, _ = apply_coupler(build_coupler(2), joint, (2, 3))
    assert res0.box == isotropic(2, Scalar.rational(1, 2))


def test_zero_probability_branch_is_reported_not_invented():
    # consuming both ends of the failure box: success cannot happen
    joint = tensor(pr(), failure(2))
    res0, res1 = apply_coupler(build_coupler(2), joint, (3, 4))
    assert res0.probability == ZERO
    assert res0.box is None
    assert res1.probability == ONE
    assert res1.box == pr()


def test_anticorrelated_marginal_is_rejected():
    joint = tensor(anti_pr(), pr())
    with pytest.raises(CouplerInvalidError) as err:
        apply_coupler(build_coupler(2), joint, (1, 2))
    assert err.value.branch == 0


def test_disallowed_isotropic_weight_is_rejected():
    bad = isotropic(2, Scalar.rational(-3, 4))  # functional value -3, below -2
    assert not is_allowed(build_coupler(2), bad)
    with pytest.raises(CouplerInvalidError):
        apply_coupler(build_coupler(2), tensor(bad, pr()), (1, 2))


def test_apply_coupler_argument_checks():
    chi = build_coupler(2)
    with pytest.raises(ArityError):
        apply_coupler(chi, tensor(pr(), pr()), (1, 2, 3))
    with pytest.raises(ArityError):
        apply_coupler(chi, tensor(pr(), pr()), (2, 2))
    with pytest.raises(ArityError):
        apply_coupler(chi, pr(), (1, 2))  # nobody would survive
    with pytest.raises(ArityError):
        apply_coupler(chi, tensor(pr(), pr()), (2, 5))


def test_apply_coupler_refuses_positions_that_are_not_integers():
    # one ArityError, before any reduction plan is looked up: a float,
    # even an integral one, a string and a bool are not party positions
    chi, joint = build_coupler(2), tensor(pr(), pr())
    misses = coupler._reduction.cache_info().misses
    for consumed in ((2, 3.5), ("2", 3), (True, 3), (2.0, 3), (2, False)):
        with pytest.raises(ArityError):
            apply_coupler(chi, joint, consumed)
    assert coupler._reduction.cache_info().misses == misses


def _plan_misses() -> list:
    return [plan.cache_info().misses
            for plan in (coupler._reduction, coupler._joint_plan)]


def test_plans_are_keyed_by_shape(monkeypatch):
    # the contraction's caches hold plans per shape, never per value: once
    # a shape has been contracted, no later call of that shape misses
    weights = [Fraction(1, 2), Fraction(2, 3), Fraction(1, 4), Fraction(3, 7), ZERO, ONE,
               INV_SQRT2, Scalar(Fraction(1, 4), Fraction(1, 4)), Fraction(5, 8),
               Scalar(Fraction(1, 8), Fraction(1, 4)), Fraction(9, 10)]
    swap_two(3, 3, weights[0], weights[0])
    misses = _plan_misses()
    for xi in weights[1:]:
        assert swap_two(3, 3, xi, xi).all_checks_passed
    assert _plan_misses() == misses

    # random-properties' 200 cases, through both places it applies a coupler
    seen, calls = set(), []

    def shape_checked(effect, joint, consumed):
        factors = joint.factors or (joint,)
        shape = (effect.n, tuple(consumed), tuple((f.n, f.spectrum is None) for f in factors))
        before = _plan_misses()
        results = coupler.apply_coupler(effect, joint, consumed)
        assert shape not in seen or _plan_misses() == before, shape
        seen.add(shape)
        calls.append(shape)
        return results

    monkeypatch.setattr(checks, "apply_coupler", shape_checked)
    monkeypatch.setattr(scenarios, "apply_coupler", shape_checked)
    assert checks.check_random_properties().passed
    assert len(calls) > 800 and len(seen) < 20  # three joints and a swap per case


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _hybrid(seq) -> scenarios.ScenarioSpec:
    """hybrid_three's spec, each label sequence built by ``seq``."""
    parties = (("a1", "b1"), ("c2", "b2"), ("c1", "b3"), ("d2", "b4"), ("d1", "b5"), ("a2", "b6"))
    return scenarios.ScenarioSpec(
        "hybrid", tuple(scenarios.ScenarioBox(f"g{i}", "pr", 2, seq(p))
                        for i, p in enumerate(parties, start=1)),
        couplers=tuple(scenarios.ScenarioCoupler(2, seq((f"b{i}", f"b{i + 1}"))) for i in (1, 3, 5)),
        wirings=tuple(scenarios.ScenarioWiring(seq((f"{u}1", f"{u}2")), u) for u in "acd"),
        reports=seq(("gsi",)))


def test_scenario_plans_are_keyed_by_shape(tmp_path):
    # a scenario's plan is kept per spec shape, never per value: once a
    # shape has run, no later run of that shape misses
    def misses():
        return scenarios._plan.cache_info().misses

    swap_two(3, 3, Fraction(1, 2), Fraction(2, 3))
    before = misses()
    weights = [Fraction(1, 3), Fraction(5, 8), ZERO, ONE, INV_SQRT2,
               Scalar(Fraction(1, 4), Fraction(1, 4)), Scalar(Fraction(1, 8), Fraction(1, 4)),
               Fraction(9, 10), Fraction(1, 2), Fraction(3, 7)]
    for xi1, xi2 in zip(weights, reversed(weights)):
        assert swap_two(3, 3, xi1, xi2).all_checks_passed
    assert misses() == before

    # the three generated ring documents of the documents workload differ
    # in name and weights only
    _workloads().build("documents", 1, boxswap, tmp_path)
    rings = [scenarios.ScenarioSpec.from_json(load_json(tmp_path / f"ring-{cls}.json"))
             for cls in ("dyadic", "rational", "sqrt2")]
    assert len({ring.name for ring in rings}) == 3
    scenarios.run_scenario(rings[0])
    before = misses()
    for ring in rings[1:]:
        assert scenarios.run_scenario(ring).all_checks_passed
    assert misses() == before

    # a spec built with lists where it holds label tuples runs as the tuple spec
    report = scenarios.run_scenario(_hybrid(tuple))
    assert scenarios.run_scenario(_hybrid(list)).to_json() == report.to_json()

    # an error is raised, never kept: each call misses and says the same
    bad = _hybrid(tuple)
    bad.reports = ("chsh",)
    texts = []
    for _ in range(2):
        before = misses()
        with pytest.raises(SpecFileError) as err:
            scenarios.run_scenario(bad)
        assert misses() == before + 1
        texts.append(str(err.value))
    assert texts[0] == texts[1] == "unknown report functional 'chsh'; expected ('gsi', 'ch')"


def test_success_law_golden_points():
    for n in (2, 3, 4, 5):
        chi = build_coupler(n)
        assert success_probability(chi, gsb(n)) == ONE
        assert success_probability(chi, failure(n)) == ZERO
        assert success_probability(chi, mixed(n)) == THIRD
        assert is_allowed(chi, gsb(n))
        assert is_allowed(chi, failure(n))
    assert not is_allowed(build_coupler(2), anti_pr())


def test_law_matches_branch_mass_on_product_joints():
    # consumed marginal of a product of isotropic ends is fully mixed
    for xi in (ZERO, Scalar.rational(1, 2), ONE):
        joint = tensor(isotropic(2, xi), isotropic(2, xi))
        res0, _ = apply_coupler(build_coupler(2), joint, (2, 3))
        marginal = mixed(2)
        assert res0.probability == success_probability(build_coupler(2), marginal)


def test_law_and_contraction_agree_for_small_couplers():
    for n in (2, 3):
        chi = build_coupler(n)
        for box in (gsb(n), mixed(n), failure(n), isotropic(n, Scalar.rational(2, 5))):
            assert chi.contract(box, 0) == success_probability(chi, box)


def test_law_and_contraction_part_ways_beyond_three_ends():
    # Recorded deviation: on directly-consumed extremal boxes the raw
    # contraction drifts off the affine law once n > 3.  Real swaps never
    # meet these marginals (product ends are fully mixed), and apply_coupler
    # follows the weights, so the gap must stay visible here.
    expected_contract = {2: ONE, 3: ONE, 4: THIRD, 5: -ONE}
    for n, want in expected_contract.items():
        chi = build_coupler(n)
        assert chi.contract(gsb(n), 0) == want
        assert success_probability(chi, gsb(n)) == ONE
    assert build_coupler(4).contract(gsb(4), 0) != success_probability(build_coupler(4), gsb(4))


def test_law_and_contraction_part_ways_on_deterministic_boxes():
    # Same recorded deviation at n=3: an all-zeros deterministic box has
    # functional value 0, so the law gives 1/3, while the contraction gives
    # 2/3.  Both numbers are pinned so any silent change shows up.
    chi = build_coupler(3)
    box = deterministic_local([(0, 0), (0, 0), (0, 0)])
    assert success_probability(chi, box) == THIRD
    assert chi.contract(box, 0) == Scalar.rational(2, 3)


@pytest.mark.parametrize("n", [2, 3])
def test_contraction_is_the_branch_mass_of_apply_coupler(n):
    # chi_1 = 2**-N - chi_0 is derived, never stored: both views of both
    # branches must agree, and the two contractions must add up to one
    chi = build_coupler(n)
    marginals = (gsb(n), mixed(n), failure(n), isotropic(n, INV_SQRT2),
                 deterministic_local([(0, 0)] * n),
                 deterministic_local([(1, 1)] + [(0, 0)] * (n - 1)))
    for box in marginals:
        masses = (chi.contract(box, 0), chi.contract(box, 1))
        assert masses[0] + masses[1] == ONE
        joint = tensor(box, deterministic_local([(0, 0)]))
        results = apply_coupler(chi, joint, range(1, n + 1))
        assert tuple(r.probability for r in results) == masses


xis = st.fractions(min_value=Fraction(-1), max_value=Fraction(1), max_denominator=12)


@given(xis, xis)
@settings(max_examples=50, deadline=None)
def test_isotropic_swap_is_bilinear_in_the_weights(x1, x2):
    joint = tensor(isotropic(2, Fraction(x1)), isotropic(2, Fraction(x2)))
    res0, res1 = apply_coupler(build_coupler(2), joint, (2, 3))
    product = Scalar(Fraction(x1)) * Scalar(Fraction(x2))
    assert res0.probability == THIRD
    assert res0.box == isotropic(2, product)
    assert res1.probability == ONE - THIRD
    assert res1.box == isotropic(2, -(product / 2))
    assert validate(res0.box).all_ok and validate(res1.box).all_ok


def _holds_at_the_corners(build, count: int, law) -> None:
    """Run ``build(corner)`` at each corner xi in {0, 1}**count of the
    weight cube and check every branch against the swap law: a branch with
    k failures among c couplers has probability 2**k / 3**c and the valid
    box ``law(w * (-1/2)**k)``, w the product of the weights, where
    ``law(v)`` is v * G + (1 - v) * mixed(out) for the box G that all
    couplers' success makes of perfect inputs: gsb(out), or a ring's parity
    box.  The law's probability is positive and both boxes are normalised,
    so equal (probability, box) pairs are equal products probability * box,
    and a product fixes its pair (its mass is the probability).

    This proves the law, with mass and validity, on all of [0, 1]**count.
    Each input box isotropic(n, xi) = xi * gsb(n) + (1 - xi) * mixed(n) is
    affine in its weight, and the coupler and a wiring are linear in each
    factor of their input, so each branch's unnormalised table (probability
    times box) is multilinear in the weights; so is the law's, whose cells
    are 2**k / 3**c * (1 +- w * (-1/2)**k) / 2**out.  Two multilinear
    functions equal at the corners are equal on the cube: one affine in a
    single weight is fixed by its values at 0 and 1, and induction over the
    weights does the rest.  A multilinear function takes its least value
    on the cube at a corner, so a cell nonnegative at every corner is
    nonnegative everywhere, and normalisation and nonsignaling, linear
    equalities among the cells, hold everywhere once they hold there."""
    for corner in itertools.product((0, 1), repeat=count):
        weight = Scalar(int(all(corner)))
        report = build(corner)
        total = ZERO
        for record in report.branches:
            c, k = len(record.outcome), sum(record.outcome)
            assert record.probability == Scalar.rational(2**k, 3**c), (corner, record.outcome)
            assert record.box == law(weight * Scalar.rational((-1) ** k, 2**k))
            assert validate(record.box).all_ok
            total = total + record.probability
        assert total == ONE


@pytest.mark.parametrize("m, n", list(itertools.product(range(2, 6), repeat=2)))
def test_swap_two_obeys_the_law_on_the_weight_cube(m, n):
    _holds_at_the_corners(lambda xi: swap_two(m, n, *xi), 2,
                          lambda v: isotropic(m + n - 2, v))


@pytest.mark.parametrize("arities", [(2, 2, 2), (2, 2, 3), (2, 2, 2, 2)])
def test_swap_many_obeys_the_law_on_the_weight_cube(arities):
    _holds_at_the_corners(lambda xi: swap_many(arities, xi), len(arities),
                          lambda v: isotropic(sum(arities) - len(arities), v))


def _weighted_ring(n: int, xis) -> scenarios.ScenarioSpec:
    """``scripts/scaling.py``'s ring of n users, its 2n PR boxes isotropic
    at the weights ``xis``, in box order."""
    users = "acdefghijk"[:n]
    boxes, couplers = [], []
    for k, (left, right) in enumerate(zip(users, users[1:] + users[:1])):
        boxes += [scenarios.ScenarioBox(f"g{2 * k + 1}", "isotropic", 2,
                                        (f"{left}1", f"b{2 * k + 1}"), xis[2 * k]),
                  scenarios.ScenarioBox(f"g{2 * k + 2}", "isotropic", 2,
                                        (f"{right}2", f"b{2 * k + 2}"), xis[2 * k + 1])]
        couplers.append(scenarios.ScenarioCoupler(2, (f"b{2 * k + 1}", f"b{2 * k + 2}")))
    wirings = tuple(scenarios.ScenarioWiring((f"{u}1", f"{u}2"), u) for u in users)
    return scenarios.ScenarioSpec(f"ring-{n}", tuple(boxes), tuple(couplers), wirings)


def _parity_law(n: int):
    """``v -> v * G + (1 - v) * mixed(n)`` for G the n-cycle's parity box,
    uniform on the output words whose parity is sum_i x_i * x_(i+1): two
    spectral columns, the full set's carrying v times G's signs."""
    signs = [(-1) ** sum(x >> i & x >> (i + 1) % n & 1 for i in range(n)) for x in range(2**n)]

    def law(v: Scalar) -> BoxTable:
        rat = [v.r * sign for sign in signs]
        surd = [v.s * sign for sign in signs] if v.s else None
        return BoxTable.from_spectrum(n, v.d << n, {0: ([v.d] * 2**n, None), 2**n - 1: (rat, surd)})
    return law


@pytest.mark.parametrize("n", [3, 4, 5])
def test_a_ring_obeys_the_law_on_the_weight_cube(n):
    # one weight per PR box: 2**6 corners for three users, 2**8 for four,
    # 2**10 for five; the law's columns are its mix of G and mixed(n)
    law = _parity_law(n)
    assert all(law(v) == mix([(v, law(ONE)), (ONE - v, mixed(n))])
               for v in (Scalar.rational(-1, 8), INV_SQRT2, ONE))
    _holds_at_the_corners(lambda xi: scenarios.run_scenario(_weighted_ring(n, xi)), 2 * n, law)


def test_two_noisy_boxes_put_a_swap_on_the_local_bound(monkeypatch):
    # one coupler on m two-party boxes, k of them at weight 1/sqrt(2) and the
    # rest at 1: the success box is isotropic(m, 2**(-k/2)), whose gsi value
    # 2**m * 2**(-k/2) meets the local bound 2**(m - 1) exactly at k = 2,
    # exceeds it exactly for k <= 1, and meets the quantum bound 2**(m - 1)
    # * sqrt(2) at k = 1 (check 10 tests three boxes only); six boxes join
    # 12 parties, past the cap, so the plan refuses them before any coupler
    for m in range(2, 6):
        triple = bounds(m)
        for k in range(m + 1):
            success = swap_many((2,) * m, [INV_SQRT2] * k + [ONE] * (m - k)).branch((0,))
            value, verdict = success.functionals["gsi"], success.classification
            assert (value == triple.local) == (k == 2), (m, k)
            assert (value > triple.local) == verdict.exceeds_local == (k <= 1), (m, k)
            assert (value == triple.quantum) == (k == 1), (m, k)
            assert verdict.exceeds_quantum == (k == 0), (m, k)
    calls = []
    monkeypatch.setattr(scenarios, "apply_coupler", lambda *args: calls.append(args))
    with pytest.raises(PartyCapError, match="n=12"):
        swap_many((2,) * 6)
    assert calls == []


@given(xis)
@settings(max_examples=30, deadline=None)
def test_success_law_is_affine_on_the_isotropic_line(x):
    chi = build_coupler(2)
    box = isotropic(2, Fraction(x))
    want = Scalar(Fraction(x)) * Scalar(2) * THIRD + THIRD
    if Fraction(x) >= Fraction(-1, 2):
        assert is_allowed(chi, box)
        assert success_probability(chi, box) == want
    else:
        assert not is_allowed(chi, box)
