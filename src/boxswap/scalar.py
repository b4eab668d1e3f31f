"""Exact arithmetic over the quadratic field Q(sqrt2).

Every probability, functional value, and coupler weight in this package is a
``Scalar``: three integers ``(r, s, d)`` standing for ``(r + s*sqrt(2)) / d``,
the one-cell case of the common-denominator form that box tables use (see
``reduce_form`` below).  The triple is kept canonical, ``d > 0`` and
``gcd(r, s, d) == 1``; since sqrt(2) is irrational that makes the
representation unique, so equality is a tuple comparison and ordering and
hashing are exact.  Each operator does its integer work and one ``gcd``
in one frame beside the helper that reduces its result (``_reduced`` or
``_sum``, which fill a new Scalar in place): a Scalar operand is used as it
is, and only an int, bool or Fraction operand is converted (``_coerce``).
A product of two rational values (s = 0) multiplies r and d only and
reduces them by ``gcd(r, d)`` itself, with no sqrt(2) term.
``Scalar(Fraction)`` reads the Fraction's own lowest terms instead of
rebuilding them.  Floats never enter core arithmetic; ``decimal(...)``
renders a display-only approximation for reports.

Division works by rationalizing with the conjugate ``r - s*sqrt(2)``: the
field norm ``r**2 - 2*s**2`` vanishes only for zero, so every nonzero Scalar
has an inverse.  Ordering reduces to an exact sign test on ``r**2`` versus
``2*s**2`` with sign bookkeeping (``qsign``) — no rounding anywhere.
"""

from __future__ import annotations

import re
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import DigitLimitError, SpecFileError

_JSON_INT = re.compile(r"-?[0-9]+")


def _to_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    if isinstance(value, float):
        raise TypeError("floats are not allowed in exact arithmetic; use Fraction or str")
    raise TypeError(f"cannot interpret {value!r} as a rational number")


@lru_cache(maxsize=16)
def _sqrt2(prec: int, rounding: str) -> Decimal:
    """sqrt(2) in a context of ``prec`` digits and ``rounding``, computed
    once per pair: ``Scalar.decimal`` asks for it on every call."""
    with localcontext() as ctx:
        ctx.prec, ctx.rounding = prec, rounding
        return Decimal(2).sqrt()


def _lowest(num: int, den: int) -> tuple:
    """``num/den`` in lowest terms, ``den > 0``; zero is ``(0, 1)``."""
    g = gcd(num, den)
    return num // g, den // g


def _json_int(value) -> int:
    """A JSON integer (not a bool) or a string matching ``-?[0-9]+``, as an int."""
    if type(value) is int or (type(value) is str and _JSON_INT.fullmatch(value)):
        return int(value)
    raise ValueError(f"not a JSON integer: {_clip(value)}")


def _clip(value) -> str:
    text = repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


class Scalar:
    """An element ``(r + s*sqrt(2)) / d`` of Q(sqrt2), kept canonical:
    ``d > 0`` and ``gcd(r, s, d) == 1``.  Treat as immutable."""

    __slots__ = ("r", "s", "d")

    def __init__(self, rat=0, surd=0):
        if type(surd) is int:
            if type(rat) is int:
                self.r, self.s, self.d = rat, surd, 1
                return
            if type(rat) is Fraction and not surd:  # a Fraction is in lowest terms
                self.r, self.s, self.d = rat.numerator, 0, rat.denominator
                return
        p, q = _to_fraction(rat), _to_fraction(surd)
        # over the lcm of two reduced denominators the triple is already reduced
        d = lcm(p.denominator, q.denominator)
        self.r = p.numerator * (d // p.denominator)
        self.s = q.numerator * (d // q.denominator)
        self.d = d

    @staticmethod
    def over(r: int, s: int, d: int) -> "Scalar":
        """``(r + s*sqrt(2)) / d`` for integers, ``d`` nonzero."""
        if d < 0:
            r, s, d = -r, -s, -d
        elif not d:
            raise ZeroDivisionError("Scalar division by zero")
        return _reduced(r, s, d)

    @staticmethod
    def rational(numerator: int, denominator: int = 1) -> "Scalar":
        return Scalar.over(numerator, 0, denominator)

    @property
    def rat(self) -> Fraction:
        """The rational part, as a Fraction."""
        return Fraction(self.r, self.d)

    @property
    def surd(self) -> Fraction:
        """The coefficient of sqrt(2), as a Fraction."""
        return Fraction(self.s, self.d)

    # -- predicates ------------------------------------------------------

    def __bool__(self) -> bool:
        return self.r != 0 or self.s != 0

    # -- field operations ------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not Scalar and (other := _coerce(other)) is NotImplemented:
            return NotImplemented
        return _sum(self, other.r, other.s, other.d)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not Scalar and (other := _coerce(other)) is NotImplemented:
            return NotImplemented
        return _sum(self, -other.r, -other.s, other.d)

    def __rsub__(self, other):
        if (other := _coerce(other)) is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        x = object.__new__(Scalar)
        x.r, x.s, x.d = -self.r, -self.s, self.d
        return x

    def __mul__(self, other):
        if other.__class__ is not Scalar and (other := _coerce(other)) is NotImplemented:
            return NotImplemented
        r1, s1, r2, s2 = self.r, self.s, other.r, other.s
        if s1 or s2:
            return _reduced(r1 * r2 + 2 * s1 * s2, r1 * s2 + s1 * r2, self.d * other.d)
        # rational operands: gcd(r, 0, d) = gcd(r, d), so the triple is canonical
        r, d, x = r1 * r2, self.d * other.d, object.__new__(Scalar)
        g = gcd(r, d)
        x.r, x.s, x.d = r // g, 0, d // g
        return x

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        r, s = self.r, self.s
        # 1/x = d*(r - s*sqrt2) / (r**2 - 2*s**2)
        return Scalar.over(self.d * r, -self.d * s, r * r - 2 * s * s)

    def __truediv__(self, other):
        if other.__class__ is not Scalar and (other := _coerce(other)) is NotImplemented:
            return NotImplemented
        r1, s1, r2, s2 = self.r, self.s, other.r, other.s
        # multiply by the conjugate of the divisor: (r2 + s2*sqrt2)(r2 - s2*sqrt2) = norm
        k = other.d
        return Scalar.over(k * (r1 * r2 - 2 * s1 * s2), k * (s1 * r2 - r1 * s2),
                           self.d * (r2 * r2 - 2 * s2 * s2))

    def __rtruediv__(self, other):
        if (other := _coerce(other)) is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        result = ONE
        base = self
        e = exponent
        while e:  # square and multiply
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- exact ordering ----------------------------------------------------

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1} of (r + s*sqrt(2)) / d."""
        return qsign(self.r, self.s)

    def __eq__(self, other):
        if other.__class__ is not Scalar and (other := _coerce(other)) is NotImplemented:
            return NotImplemented
        return self.r == other.r and self.s == other.s and self.d == other.d

    def __lt__(self, other):
        if other.__class__ is not Scalar and (other := _coerce(other)) is NotImplemented:
            return NotImplemented
        d1, d2 = self.d, other.d
        return qsign(self.r * d2 - other.r * d1, self.s * d2 - other.s * d1) < 0

    def __le__(self, other):
        if other.__class__ is not Scalar and (other := _coerce(other)) is NotImplemented:
            return NotImplemented
        d1, d2 = self.d, other.d
        return qsign(self.r * d2 - other.r * d1, self.s * d2 - other.s * d1) <= 0

    def __gt__(self, other):
        if other.__class__ is not Scalar and (other := _coerce(other)) is NotImplemented:
            return NotImplemented
        d1, d2 = self.d, other.d
        return qsign(self.r * d2 - other.r * d1, self.s * d2 - other.s * d1) > 0

    def __ge__(self, other):
        if other.__class__ is not Scalar and (other := _coerce(other)) is NotImplemented:
            return NotImplemented
        d1, d2 = self.d, other.d
        return qsign(self.r * d2 - other.r * d1, self.s * d2 - other.s * d1) >= 0

    def __hash__(self):
        # a rational value hashes like the equal Fraction (and int)
        if not self.s:
            return hash(self.rat)
        return hash((self.rat, self.surd))

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- presentation ------------------------------------------------------

    def __repr__(self):
        return f"Scalar({self.rat!r}, {self.surd!r})"

    def __str__(self):
        try:
            return self._text()
        except ValueError as exc:
            raise _too_long() from exc

    def _text(self) -> str:
        """The value as text.  A rational value is written straight from its
        canonical ``(r, d)``: with s = 0, gcd(r, d) = gcd(r, s, d) = 1."""
        if not self.s:
            return str(self.r) if self.d == 1 else f"{self.r}/{self.d}"
        (rn, rd), (sn, sd) = _lowest(self.r, self.d), _lowest(self.s, self.d)
        rat = str(rn) if rd == 1 else f"{rn}/{rd}"
        coefficient = str(sn) if sd == 1 else f"{sn}/{sd}"
        surd = {"1": "", "-1": "-"}.get(coefficient, coefficient) + "√2"
        if not rn:
            return surd
        return rat + "+" + surd if sn > 0 else rat + surd

    def decimal(self, digits: int = 12) -> str:
        """Decimal rendering correct to ``digits`` significant digits."""
        if not self:
            return "0"
        (rn, rd), (sn, sd) = _lowest(self.r, self.d), _lowest(self.s, self.d)
        with localcontext() as ctx:
            ctx.prec = digits + 20
            root2 = _sqrt2(ctx.prec, ctx.rounding)
            # the sqrt(2) term stays in the sum even when it is zero: it sets
            # the exponent, and so the digits, of the rendering
            value = Decimal(rn) / Decimal(rd) + Decimal(sn) / Decimal(sd) * root2
            return format(value, f".{digits}g")

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        """Bit-exact JSON form; integers travel as decimal strings."""
        return scalar_json(self.r, self.s, self.d)

    @classmethod
    def from_json(cls, data) -> "Scalar":
        if not isinstance(data, dict) or set(data) != {"r", "s"}:
            raise SpecFileError(
                f"scalar object must have exactly keys 'r' and 's': {_clip(data)}")
        parts = []
        for key in ("r", "s"):
            pair = data[key]
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise SpecFileError(f"scalar field {key!r} must be a [numerator, denominator] pair")
            try:
                num, den = map(_json_int, pair)
            except ValueError as exc:
                raise SpecFileError(
                    f"scalar field {key!r} has non-integer parts: {_clip(pair)}") from exc
            if den == 0:
                raise SpecFileError(f"scalar field {key!r} has a zero denominator")
            parts.append((num, den))
        (rn, rd), (sn, sd) = parts
        return cls.over(rn * sd, sn * rd, rd * sd)


def scalar_json(r: int, s: int, d: int) -> dict:
    """The JSON form of ``(r + s*sqrt(2)) / d``, ``d > 0``: each part as a
    ``[numerator, denominator]`` pair of decimal strings in lowest terms."""
    (rn, rd), (sn, sd) = _lowest(r, d), _lowest(s, d)
    try:
        return {"r": [str(rn), str(rd)], "s": [str(sn), str(sd)]}
    except ValueError as exc:
        raise _too_long() from exc


def _too_long():
    """The error for a value whose parts ``str`` refuses to write out."""
    return DigitLimitError("a value has a numerator or denominator too long to write in decimal")


def qsign(r: int, s: int) -> int:
    """Exact sign in {-1, 0, +1} of ``r + s*sqrt(2)`` for integers r, s."""
    if not s:
        return (r > 0) - (r < 0)
    if r >= 0 and s > 0:
        return 1
    if r <= 0 and s < 0:
        return -1
    # Opposite signs: |r| vs |s|*sqrt(2) decides, i.e. r*r vs 2*s*s.
    # Equality is impossible for nonzero s (sqrt(2) is irrational).
    if r > 0:
        return 1 if r * r > 2 * s * s else -1
    return -1 if r * r > 2 * s * s else 1


# -- common-denominator vectors ------------------------------------------------
#
# A vector of Scalars is stored as ``(den, rat, surd)``: one positive integer
# denominator and integer numerator tuples, element i being
# ``(rat[i] + surd[i]*sqrt(2)) / den``.  ``surd`` is None when every sqrt(2)
# part is zero.  Reduced by the gcd of all its integers, the triple is
# canonical: two vectors are equal exactly when their triples are.  A Scalar
# is the one-element case.


def reduce_form(den: int, rat, surd=None) -> tuple:
    """The canonical triple of ``(den, rat, surd)``; ``den`` must be positive."""
    if surd is not None and not any(surd):
        surd = None
    g = gcd(den, *rat) if surd is None else gcd(den, *rat, *surd)
    if g != 1:
        den //= g
        rat = [v // g for v in rat]
        if surd is not None:
            surd = [v // g for v in surd]
    return den, tuple(rat), None if surd is None else tuple(surd)


def common_form(values) -> tuple:
    """The canonical ``(den, rat, surd)`` triple of a sequence of Scalars."""
    den = lcm(*{v.d for v in values})
    rat = [v.r * (den // v.d) for v in values]
    surd = [v.s * (den // v.d) for v in values]
    return reduce_form(den, rat, surd)


def _reduced(r: int, s: int, d: int) -> Scalar:
    """The Scalar ``(r + s*sqrt(2)) / d`` for ``d > 0``, reduced by one gcd."""
    g = gcd(r, s, d)
    x = object.__new__(Scalar)
    x.r, x.s, x.d = r // g, s // g, d // g
    return x


def _sum(x: Scalar, r2: int, s2: int, d2: int) -> Scalar:
    """``x + (r2 + s2*sqrt(2)) / d2`` for a canonical right-hand triple."""
    d1, y = x.d, object.__new__(Scalar)
    g = gcd(d1, d2)
    if g == 1:  # coprime denominators: the sum is already reduced
        y.r, y.s, y.d = x.r * d2 + r2 * d1, x.s * d2 + s2 * d1, d1 * d2
        return y
    a, b = d1 // g, d2 // g
    r, s = x.r * b + r2 * a, x.s * b + s2 * a
    # a common factor of the sum and a * b * g can only divide g
    g2 = gcd(r, s, g)
    y.r, y.s, y.d = r // g2, s // g2, a * (d2 // g2)
    return y


def _coerce(value):
    """An int, bool or Fraction operand as a Scalar; NotImplemented for any
    other type.  The operators call it only for an operand that is not a Scalar."""
    if isinstance(value, (int, Fraction)):
        x = object.__new__(Scalar)
        x.r, x.s, x.d = value.numerator, 0, value.denominator
        return x
    return value if isinstance(value, Scalar) else NotImplemented


ZERO = Scalar(0)
ONE = Scalar(1)
SQRT2 = Scalar(0, 1)
INV_SQRT2 = _reduced(0, 1, 2)
