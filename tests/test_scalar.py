"""Exact field arithmetic on numbers of the form r + s*sqrt(2)."""

import decimal
from decimal import localcontext
from fractions import Fraction
from math import gcd
from operator import add, ge, gt, le, lt, mul, sub, truediv

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxswap import INV_SQRT2, ONE, SQRT2, ZERO, Scalar
from boxswap.errors import DigitLimitError, SpecFileError
from oracle import OracleScalar

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
    with pytest.raises(TypeError):
        ONE <= 0.5
    with pytest.raises(TypeError):
        0.5 > ONE


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


@pytest.mark.parametrize("value", [Scalar.over(10**4400, 0, 3), Scalar.over(1, 10**4400, 3),
                                   Scalar.over(1, 1, 10**4400 + 1),
                                   Scalar.over(1, 0, 10**4400 + 1)],
                         ids=["rational part", "sqrt(2) part", "denominator",
                              "rational denominator"])
def test_text_too_long_to_write_is_a_digit_limit_error(value):
    # str() of an int past the int-to-str digit limit raises ValueError
    with pytest.raises(DigitLimitError):
        str(value)


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


# -- differential test against the two-Fraction Scalar in oracle.py ------------

# zero, small and large numerators of both signs; denominators up to 2**40
numerators = st.one_of(st.just(0), st.integers(-50, 50), st.integers(-(2**64), 2**64))
denominators = st.one_of(st.sampled_from((1, 2, 3, 4, 6, 8, 12)), st.integers(1, 2**40))
triples = st.tuples(numerators, numerators, denominators)


def _pair(triple):
    r, s, d = triple
    return Scalar.over(r, s, d), OracleScalar(Fraction(r, d), Fraction(s, d))


def _same(x, ox):
    assert type(x) is Scalar
    assert x.d > 0 and gcd(x.r, x.s, x.d) == 1, (x.r, x.s, x.d)
    assert (x.rat, x.surd) == (ox.rat, ox.surd)


def _same_or_raises(op, args, oracle_args):
    """``op`` on both classes: equal results, or ZeroDivisionError from both."""
    try:
        want = op(*oracle_args)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            op(*args)
        return
    _same(op(*args), want)


# operands no operator accepts: arithmetic and ordering raise TypeError, == is False
FOREIGN = (0.5, "1", None, decimal.Decimal(1))


@given(triples, triples, st.integers(-9, 9), st.fractions(max_denominator=10**6),
       st.booleans(), st.sampled_from(FOREIGN))
@settings(max_examples=200, deadline=None)
def test_scalar_agrees_with_the_two_fraction_oracle(ta, tb, k, f, t, foreign):
    (a, oa), (b, ob) = _pair(ta), _pair(tb)
    _same(a, oa)
    _same(Scalar(oa.rat, oa.surd), oa)
    # a Fraction is read as it is, alone or beside an int
    _same(Scalar(f), OracleScalar(f))
    _same(Scalar(f, 0), OracleScalar(f))
    _same(Scalar(k, f), OracleScalar(k, f))
    _same(Scalar(t), OracleScalar(t))
    _same(a + b, oa + ob)
    _same(a - b, oa - ob)
    _same(a * b, oa * ob)
    _same(-a, -oa)
    _same(abs(a), abs(oa))
    _same_or_raises(lambda x, y: x / y, (a, b), (oa, ob))
    _same_or_raises(lambda x: x.inverse(), (a,), (oa,))
    for e in range(4):
        _same(a**e, oa**e)
    # rational copies of a and b (s = 0), with each other and beside a and b
    (qa, oqa), (qb, oqb) = _pair((ta[0], 0, ta[2])), _pair((tb[0], 0, tb[2]))
    for (x, ox), (y, oy) in (((qa, oqa), (qb, oqb)), ((qa, oqa), (b, ob)), ((a, oa), (qb, oqb))):
        _same(x + y, ox + oy)
        _same(x - y, ox - oy)
        _same(x * y, ox * oy)
        _same_or_raises(lambda u, v: u / v, (x, y), (ox, oy))
    # int and Fraction operands on either side
    _same(a + k, oa + k)
    _same(k - a, k - oa)
    _same(a * f, oa * f)
    _same(f - a, f - oa)
    _same_or_raises(lambda x: f / x, (a,), (oa,))
    _same_or_raises(lambda x: x / k, (a,), (oa,))
    # bool operands on either side
    _same(a + t, oa + t)
    _same(t + a, t + oa)
    _same(a - t, oa - t)
    _same(t - a, t - oa)
    _same(a * t, oa * t)
    _same(t * a, t * oa)
    _same_or_raises(lambda x: x / t, (a,), (oa,))
    _same_or_raises(lambda x: t / x, (a,), (oa,))
    assert (a < t, a <= t, a > t, a >= t, a == t) == (oa < t, oa <= t, oa > t, oa >= t, oa == t)
    assert (t < a, t <= a, t > a, t >= a, t == a) == (t < oa, t <= oa, t > oa, t >= oa, t == oa)
    for op in (add, sub, mul, truediv, lt, le, gt, ge):
        with pytest.raises(TypeError):
            op(a, foreign)
        with pytest.raises(TypeError):
            op(foreign, a)
    assert not (a == foreign or foreign == a) and a != foreign and foreign != a

    assert a.sign() == oa.sign()
    assert (a == b) == (oa == ob) and (a == a) and (a != b) == (oa != ob)
    assert (a < b, a <= b, a > b, a >= b) == (oa < ob, oa <= ob, oa > ob, oa >= ob)
    assert (a == f) == (oa == f) and (a < f) == (oa < f) and (a == k) == (oa == k)
    # reflected: an int or Fraction on the left hands the comparison to the Scalar
    assert (k <= a, f > a, k >= a, f <= a) == (k <= oa, f > oa, k >= oa, f <= oa)
    assert hash(a) == hash(oa)
    assert (str(a), repr(a), a.decimal(), a.to_json()) == (
        str(oa), repr(oa), oa.decimal(), oa.to_json())
    _same(Scalar.from_json(a.to_json()), oa)


@given(triples, st.integers(1, 30), st.sampled_from((None, "ROUND_DOWN", "ROUND_CEILING")))
@settings(max_examples=80, deadline=None)
def test_decimal_matches_the_oracle_at_any_precision_and_rounding(triple, digits, rounding):
    # sqrt(2) is computed once per precision and rounding and reused after
    a, oa = _pair(triple)
    with localcontext() as ctx:
        if rounding is not None:
            ctx.rounding = getattr(decimal, rounding)
        for _ in range(2):
            assert a.decimal(digits) == oa.decimal(digits)


def test_the_operators_that_the_tracer_counts_are_the_class_own_attributes():
    # perfbench/tracer.py counts scalar.ops by wrapping these entries of
    # vars(Scalar); a name renamed, or inherited instead of set on the class,
    # would silently count as zero
    half = Scalar.rational(1, 2)
    for name in ("__add__", "__radd__", "__sub__", "__neg__", "__mul__", "__rmul__",
                 "__truediv__", "inverse"):
        op = vars(Scalar).get(name)
        assert callable(op), name
        result = op(SQRT2) if name in ("__neg__", "inverse") else op(SQRT2, half)
        assert type(result) is Scalar, name
