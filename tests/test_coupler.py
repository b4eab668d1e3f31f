"""Couplers: weight tables, branch outputs, the success law, invalid inputs.

The law (affine in the consumed box's functional value) and the raw weight
contraction agree wherever both views are meaningful for real swaps; the
final tests record exactly where the two part ways for exotic consumed
marginals, so neither view can drift silently.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxswap import (
    INV_SQRT2,
    Scalar,
    ONE,
    ZERO,
    anti_pr,
    apply_coupler,
    build_coupler,
    deterministic_local,
    failure,
    gsb,
    is_allowed,
    isotropic,
    mixed,
    pr,
    success_kernel,
    success_probability,
    tensor,
    validate,
)
from boxswap.errors import ArityError, CouplerInvalidError

THIRD = Scalar.rational(1, 3)


def test_kernel_two_ends_matches_sign_pattern():
    assert success_kernel(2) == (Scalar(1), Scalar(1), Scalar(1), Scalar(-1))


def test_kernel_three_and_four_ends_by_popcount():
    by_count = {0: 0, 1: 2, 2: 0, 3: -2}
    assert success_kernel(3) == tuple(Scalar(by_count[y.bit_count()]) for y in range(8))
    by_count = {0: -2, 1: 2, 2: 2, 3: -2, 4: -2}
    assert success_kernel(4) == tuple(Scalar(by_count[y.bit_count()]) for y in range(16))
    with pytest.raises(ArityError):
        success_kernel(1)


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
