"""Functionals: correlators, the +--+ family, CH form, bounds, verdicts."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxswap import (
    Scalar,
    INV_SQRT2,
    ONE,
    ZERO,
    anti_pr,
    bounds,
    ch_evaluate,
    classify,
    correlator,
    deterministic_local,
    evaluate,
    gsb,
    gsi,
    isotropic,
    mix,
    mixed,
    pr,
)
from boxswap.bell import gsi_sign
from boxswap.errors import ArityError


def test_correlator_values_on_pr():
    # E = +1 except on the (1,1) input where outputs anti-align
    assert correlator(pr(), 0b00) == ONE
    assert correlator(pr(), 0b01) == ONE
    assert correlator(pr(), 0b10) == ONE
    assert correlator(pr(), 0b11) == -ONE
    with pytest.raises(ArityError):
        correlator(pr(), 4)


def test_correlator_range_on_mixtures():
    box = isotropic(2, Scalar.rational(1, 3))
    for x in range(4):
        value = correlator(box, x)
        assert -ONE <= value <= ONE


def test_gsi_sign_pattern():
    # popcount mod 4 in {0, 1} -> +1, in {2, 3} -> -1
    assert [gsi_sign(x) for x in range(8)] == [1, 1, 1, -1, 1, -1, -1, -1]


def test_gsi_values_on_named_boxes():
    assert evaluate(gsi(2), pr()) == Scalar(4)
    assert evaluate(gsi(2), anti_pr()) == Scalar(-4)
    assert evaluate(gsi(3), gsb(3)) == Scalar(8)
    assert evaluate(gsi(4), gsb(4)) == Scalar(16)
    assert evaluate(gsi(3), mixed(3)) == ZERO
    # the failure box sits exactly at the lower edge of the allowed window
    assert evaluate(gsi(3), mix([(Scalar(Fraction(3, 2)), mixed(3)),
                                 (Scalar(Fraction(-1, 2)), gsb(3))])) == Scalar(-4)


def test_gsi_is_affine_in_isotropic_weight():
    for n in (2, 3, 4):
        xi = Scalar.rational(3, 7)
        assert evaluate(gsi(n), isotropic(n, xi)) == Scalar(2**n) * xi


def test_evaluate_arity_mismatch():
    with pytest.raises(ArityError):
        evaluate(gsi(3), pr())
    with pytest.raises(ArityError):
        gsi(1)


def test_ch_golden_values():
    assert ch_evaluate(pr()) == Scalar.rational(3, 2)
    assert ch_evaluate(mixed(2)) == Scalar.rational(1, 2)
    assert ch_evaluate(anti_pr()) == -Scalar.rational(1, 2)
    assert ch_evaluate(isotropic(2, INV_SQRT2)) == Scalar(Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ArityError):
        ch_evaluate(gsb(3))


def test_ch_bridge_on_deterministic_boxes():
    # gsi(2) = 4*ch - 2 holds across the whole local polytope
    for c1 in (0, 1):
        for m1 in (0, 1):
            for c2 in (0, 1):
                for m2 in (0, 1):
                    box = deterministic_local([(c1, m1), (c2, m2)])
                    assert evaluate(gsi(2), box) == Scalar(4) * ch_evaluate(box) - Scalar(2)


def test_bound_triples():
    b = bounds(2)
    assert (b.local, b.quantum, b.algebraic) == (Scalar(2), Scalar(0, 2), Scalar(4))
    b = bounds(3)
    assert (b.local, b.quantum, b.algebraic) == (Scalar(4), Scalar(0, 4), Scalar(8))
    assert bounds(3).quantum == Scalar(4) * INV_SQRT2 * Scalar(2)
    with pytest.raises(ArityError):
        bounds(1)


def test_classification_is_strict_at_the_bounds():
    at_local = isotropic(2, Scalar.rational(1, 2))  # value exactly 2
    c = classify(at_local)
    assert c.value == Scalar(2)
    assert not c.exceeds_local and not c.exceeds_quantum

    at_quantum = isotropic(2, INV_SQRT2)  # value exactly 2*sqrt(2)
    c = classify(at_quantum)
    assert c.value == Scalar(0, 2)
    assert c.exceeds_local and not c.exceeds_quantum

    c = classify(pr())
    assert c.exceeds_local and c.exceeds_quantum

    # magnitude matters, not the sign
    c = classify(anti_pr())
    assert c.value == Scalar(-4)
    assert c.exceeds_local and c.exceeds_quantum


@given(st.integers(min_value=0, max_value=63))
@settings(max_examples=64, deadline=None)
def test_gsi_sign_matches_mod_four_rule(x):
    assert gsi_sign(x) == (1 if bin(x).count("1") % 4 in (0, 1) else -1)


weights = st.fractions(min_value=0, max_value=1, max_denominator=32)


@given(weights)
@settings(max_examples=40, deadline=None)
def test_ch_bridge_on_isotropic_line(w):
    box = isotropic(2, Fraction(w))
    assert evaluate(gsi(2), box) == Scalar(4) * ch_evaluate(box) - Scalar(2)
