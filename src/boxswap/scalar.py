"""Exact arithmetic over the quadratic field Q(sqrt2).

Every probability, functional value, and coupler weight in this package is a
``Scalar``: a pair of arbitrary-precision rationals ``(rat, surd)`` standing
for ``rat + surd*sqrt(2)``.  Since sqrt(2) is irrational the representation is
unique, so equality, ordering and hashing are all exact.  Floats never enter
core arithmetic; ``decimal(...)`` renders a display-only approximation for
reports.

Division works by rationalizing with the conjugate ``rat - surd*sqrt(2)``:
the field norm ``rat**2 - 2*surd**2`` vanishes only for zero, so every
nonzero Scalar has an inverse.  Ordering reduces to an exact sign test on
``rat**2`` versus ``2*surd**2`` with sign bookkeeping — no rounding anywhere.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction
from functools import total_ordering
from math import gcd, lcm

_F0 = Fraction(0)


def _to_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, float):
        raise TypeError("floats are not allowed in exact arithmetic; use Fraction or str")
    raise TypeError(f"cannot interpret {value!r} as a rational number")


@total_ordering
class Scalar:
    """An element ``rat + surd*sqrt(2)`` of Q(sqrt2).  Treat as immutable."""

    __slots__ = ("rat", "surd")

    def __init__(self, rat=0, surd=0):
        self.rat = _to_fraction(rat)
        self.surd = _to_fraction(surd)

    @classmethod
    def _raw(cls, rat: Fraction, surd: Fraction) -> "Scalar":
        self = object.__new__(cls)
        self.rat = rat
        self.surd = surd
        return self

    @classmethod
    def rational(cls, numerator, denominator=1) -> "Scalar":
        return cls._raw(Fraction(numerator, denominator), _F0)

    @classmethod
    def over(cls, rat: int, surd: int, den: int) -> "Scalar":
        """``(rat + surd*sqrt(2)) / den`` for integers, ``den`` nonzero."""
        return cls._raw(Fraction(rat, den), Fraction(surd, den) if surd else _F0)

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.rat and not self.surd

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar._raw(self.rat + other.rat, self.surd + other.surd)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar._raw(self.rat - other.rat, self.surd - other.surd)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return Scalar._raw(-self.rat, -self.surd)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, d = self.rat, self.surd, other.rat, other.surd
        if not b and not d:  # the common all-rational case
            return Scalar._raw(a * c, _F0)
        return Scalar._raw(a * c + 2 * b * d, a * d + b * c)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        norm = self.rat * self.rat - 2 * self.surd * self.surd
        if not norm:
            raise ZeroDivisionError("Scalar division by zero")
        return Scalar._raw(self.rat / norm, -self.surd / norm)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.surd == 0:  # rational divisor: no conjugation needed
            if not other.rat:
                raise ZeroDivisionError("Scalar division by zero")
            return Scalar._raw(self.rat / other.rat, self.surd / other.rat)
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
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
        """Exact sign in {-1, 0, +1} of rat + surd*sqrt(2)."""
        r, s = self.rat, self.surd
        # both denominators are positive, so clearing them keeps the sign
        return qsign(r.numerator * s.denominator, s.numerator * r.denominator)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.rat == other.rat and self.surd == other.surd

    def __lt__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).sign() < 0

    def __hash__(self):
        if not self.surd:
            return hash(self.rat)
        return hash((self.rat, self.surd))

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- presentation ------------------------------------------------------

    def __repr__(self):
        return f"Scalar({self.rat!r}, {self.surd!r})"

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        if self.rat:
            parts.append(str(self.rat))
        if self.surd:
            if self.surd == 1:
                term = "√2"
            elif self.surd == -1:
                term = "-√2"
            else:
                term = f"{self.surd}√2"
            if parts and self.surd > 0:
                parts.append("+" + term)
            else:
                parts.append(term)
        return "".join(parts)

    def decimal(self, digits: int = 12) -> str:
        """Decimal rendering correct to ``digits`` significant digits."""
        if not self:
            return "0"
        with localcontext() as ctx:
            ctx.prec = digits + 20
            value = (
                Decimal(self.rat.numerator) / Decimal(self.rat.denominator)
                + Decimal(self.surd.numerator)
                / Decimal(self.surd.denominator)
                * Decimal(2).sqrt()
            )
            return format(value, f".{digits}g")

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        """Bit-exact JSON form; integers travel as decimal strings."""
        return {
            "r": [str(self.rat.numerator), str(self.rat.denominator)],
            "s": [str(self.surd.numerator), str(self.surd.denominator)],
        }

    @classmethod
    def from_json(cls, data) -> "Scalar":
        from .errors import SpecFileError

        if not isinstance(data, dict) or set(data) != {"r", "s"}:
            raise SpecFileError(f"scalar object must have exactly keys 'r' and 's': {data!r}")
        parts = []
        for key in ("r", "s"):
            pair = data[key]
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise SpecFileError(f"scalar field {key!r} must be a [numerator, denominator] pair")
            if not all(isinstance(x, (int, str)) and not isinstance(x, bool) for x in pair):
                raise SpecFileError(f"scalar field {key!r} has non-integer parts: {pair!r}")
            try:
                num, den = (int(x) for x in pair)
            except ValueError as exc:
                raise SpecFileError(f"scalar field {key!r} has non-integer parts: {pair!r}") from exc
            if den == 0:
                raise SpecFileError(f"scalar field {key!r} has a zero denominator")
            parts.append(Fraction(num, den))
        return cls._raw(*parts)


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
# canonical: two vectors are equal exactly when their triples are.


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
    den = lcm(*{v.rat.denominator for v in values}, *{v.surd.denominator for v in values})
    rat = [v.rat.numerator * (den // v.rat.denominator) for v in values]
    surd = [v.surd.numerator * (den // v.surd.denominator) for v in values]
    return reduce_form(den, rat, surd)


def _coerce(value):
    if isinstance(value, Scalar):
        return value
    if isinstance(value, (int, Fraction)):
        return Scalar._raw(_to_fraction(value), _F0)
    return NotImplemented


ZERO = Scalar._raw(_F0, _F0)
ONE = Scalar._raw(Fraction(1), _F0)
SQRT2 = Scalar._raw(_F0, Fraction(1))
INV_SQRT2 = Scalar._raw(_F0, Fraction(1, 2))
