"""Exact field arithmetic on numbers of the form r + s*sqrt(2)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxswap import INV_SQRT2, ONE, SQRT2, ZERO, Scalar
from boxswap.errors import SpecFileError

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=64
)
scalars = st.builds(Scalar, rationals, rationals)


def test_constructor_accepts_int_fraction_str():
    assert Scalar(3) == Scalar(Fraction(3))
    assert Scalar("3/4") == Scalar(Fraction(3, 4))
    assert Scalar(1, Fraction(1, 2)) == ONE + INV_SQRT2


def test_floats_are_rejected_everywhere():
    with pytest.raises(TypeError):
        Scalar(0.5)
    with pytest.raises(TypeError):
        Scalar(0, 0.5)
    with pytest.raises(TypeError):
        ONE + 0.5
    with pytest.raises(TypeError):
        ONE * 0.5


def test_sqrt2_squares_to_two():
    assert SQRT2 * SQRT2 == Scalar(2)
    assert INV_SQRT2 * SQRT2 == ONE
    assert INV_SQRT2 * INV_SQRT2 == Scalar.rational(1, 2)


def test_division_uses_the_conjugate():
    x = Scalar(1, 1)  # 1 + sqrt(2)
    assert x * x.inverse() == ONE
    assert (ONE / SQRT2) == INV_SQRT2
    assert Scalar(3) / Scalar(2) == Scalar.rational(3, 2)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_power():
    assert SQRT2**2 == Scalar(2)
    assert (ONE + SQRT2) ** 0 == ONE
    assert (ONE + SQRT2) ** 3 == Scalar(7, 5)


def test_sign_crossing_cases():
    # r and s of opposite signs force the squared comparison
    assert Scalar(3, -2).sign() == 1  # 3 - 2*sqrt(2) = 0.17...
    assert Scalar(-3, 2).sign() == -1
    assert Scalar(2, -2).sign() == -1  # 2 - 2*sqrt(2) < 0
    assert Scalar(-2, 2).sign() == 1
    assert ZERO.sign() == 0
    assert Scalar(0, -1).sign() == -1


def test_ordering_is_exact_near_sqrt2():
    # 99/70 and 140/99 are consecutive continued-fraction convergents
    assert Scalar.rational(99, 70) > SQRT2
    assert Scalar.rational(140, 99) < SQRT2
    assert abs(Scalar.rational(99, 70) - SQRT2) < Scalar.rational(1, 4000)


def test_comparison_and_equality():
    assert ONE < SQRT2 < Scalar(2)
    assert Scalar(1, 1) >= Scalar(1, 1)
    assert ONE != SQRT2
    assert hash(Scalar(2, 0)) == hash(Scalar(2))


def test_str_rendering():
    assert str(ZERO) == "0"
    assert str(Scalar.rational(1, 2)) == "1/2"
    assert str(SQRT2) == "√2"
    assert str(Scalar(1, Fraction(-1, 2))) == "1-1/2√2"


def test_decimal_annotation_has_twelve_digits():
    assert Scalar(2).decimal() == "2.00000000000"
    assert SQRT2.decimal().startswith("1.4142135623")
    third = Scalar.rational(1, 3)
    assert third.decimal().startswith("0.33333333333")
    assert ZERO.decimal() == "0"
    assert (SQRT2 - SQRT2).decimal() == "0"


def test_json_round_trip_and_legacy_ints():
    x = Scalar(Fraction(-1, 12), Fraction(5, 8))
    assert Scalar.from_json(x.to_json()) == x
    # integer entries are accepted on input
    assert Scalar.from_json({"r": [1, 27], "s": [0, 1]}) == Scalar.rational(1, 27)
    assert x.to_json() == {"r": ["-1", "12"], "s": ["5", "8"]}


def test_json_rejects_garbage():
    with pytest.raises(SpecFileError):
        Scalar.from_json({"r": [1, 2]})
    with pytest.raises(SpecFileError):
        Scalar.from_json({"r": [1, 2], "s": [1]})
    with pytest.raises(SpecFileError):
        Scalar.from_json({"r": ["a", "b"], "s": ["0", "1"]})


@given(scalars, scalars, scalars)
@settings(max_examples=60, deadline=None)
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a - a == ZERO
    if b != ZERO:
        assert (a / b) * b == a


@given(scalars)
@settings(max_examples=60, deadline=None)
def test_sign_matches_float_estimate(x):
    # decimal is display-only, but on bounded inputs it is far more accurate
    # than the gap between a nonzero scalar and zero can be
    approx = float(x.decimal())
    if abs(approx) > 1e-9:
        assert x.sign() == (1 if approx > 0 else -1)
    assert (x.sign() == 0) == (x == ZERO)
    assert (-x).sign() == -x.sign()


@given(scalars)
@settings(max_examples=60, deadline=None)
def test_json_round_trip_property(x):
    assert Scalar.from_json(x.to_json()) == x
