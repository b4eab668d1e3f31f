"""Bell-type functionals evaluated exactly on box tables.

The central family here assigns every n-bit input word a coefficient of +1
or -1 by the population count of the word modulo 4 ({0,1} -> +1, {2,3} -> -1);
the pattern is the exact integer form of sqrt(2)*cos(pi/2*k - pi/4) and makes
the generalized Svetlichny boxes the unique algebraic maximizers.  Correlators
are full n-party parity expectations, in [-1, 1], and enter only through
``evaluate``: on cells, the parity-signed sum of each row; on a spectral
table, 2**n times its full-set column, so ``evaluate`` (and so
``classify``) never builds a spectral table's cells.  ``ch_evaluate``
reads four cells' numerators and reduces their signed sum once.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul
from typing import Iterable

from .boxes import BoxTable, _character
from .errors import ArityError
from .scalar import Scalar, _reduced, common_form, qsign


def _dot(u, v) -> int:
    return sum(map(mul, u, v)) if u is not None and v is not None else 0


def _correlators(vec, n: int) -> list | None:
    """Correlator numerators of one numerator vector, per input word."""
    if vec is None:
        return None
    signs, width = _character(n, 2**n - 1), 2**n
    return [_dot(signs, vec[i:i + width]) for i in range(0, len(vec), width)]


def gsi_sign(input_word: int) -> int:
    """+1 when popcount mod 4 is 0 or 1, -1 when it is 2 or 3."""
    return 1 if input_word.bit_count() % 4 in (0, 1) else -1


class BellFunctional:
    """Linear functional sum_x coeff[x] * E_x on full correlators."""

    __slots__ = ("n", "coeffs", "form")

    def __init__(self, n: int, coeffs: Iterable[Scalar]):
        if n < 1:
            raise ArityError(f"functional needs n >= 1, got {n}")
        coeffs = tuple(coeffs)
        if len(coeffs) != 2**n:
            raise ArityError(f"functional for n={n} needs {2**n} coefficients")
        self.n = n
        self.coeffs = coeffs
        self.form = common_form(coeffs)  # (den, rat, surd) numerators of coeffs

    def __repr__(self):
        return f"BellFunctional(n={self.n})"


@lru_cache(maxsize=None)
def gsi(n: int) -> BellFunctional:
    """Generalized Svetlichny functional on n parties (cached, immutable)."""
    if n < 2:
        raise ArityError("gsi needs n >= 2")
    return BellFunctional(n, [Scalar(gsi_sign(x)) for x in range(2**n)])


def evaluate(functional: BellFunctional, box: BoxTable) -> Scalar:
    if functional.n != box.n:
        raise ArityError(f"functional is for n={functional.n}, box has n={box.n}")
    den, c_rat, c_surd = functional.form
    n, spectrum = box.n, box.spectrum
    if spectrum is None:
        e_den, scale = box.den, 1
        e_rat, e_surd = _correlators(box.rat, n), _correlators(box.surd, n)
    else:  # the correlator at x is 2**n times the full-set column at x
        (e_den, columns), scale = spectrum, 1 << n
        e_rat, e_surd = columns.get(scale - 1, (None, None))
    # sum_x (c_rat + c_surd*sqrt2)(e_rat + e_surd*sqrt2)
    rat = _dot(c_rat, e_rat) + 2 * _dot(c_surd, e_surd)
    surd = _dot(c_rat, e_surd) + _dot(c_surd, e_rat)
    return _reduced(scale * rat, scale * surd, den * e_den)


def ch_evaluate(box: BoxTable) -> Scalar:
    """The four-probability form P(11|00) + P(00|10) + P(00|01) - P(00|11).

    Input words read (x, y) with x in the low bit; for every nonsignaling
    bipartite box this relates to the two-party functional by
    gsi(2) = 4*ch - 2.
    """
    if box.n != 2:
        raise ArityError("ch is a bipartite functional; box has n != 2")
    r, s = (vec and vec[0b0011] + vec[0b0100] + vec[0b1000] - vec[0b1100]  # (x << 2) | a
            for vec in (box.rat, box.surd))
    return _reduced(r, s or 0, box.den)


class BoundTriple:
    """Local, quantum, and algebraic bounds for the n-party functional."""

    __slots__ = ("local", "quantum", "algebraic")

    def __init__(self, local: Scalar, quantum: Scalar, algebraic: Scalar):
        self.local = local
        self.quantum = quantum
        self.algebraic = algebraic

    def __eq__(self, other):
        if not isinstance(other, BoundTriple):
            return NotImplemented
        return (
            self.local == other.local
            and self.quantum == other.quantum
            and self.algebraic == other.algebraic
        )

    __hash__ = None

    def __repr__(self):
        return f"BoundTriple({self.local}, {self.quantum}, {self.algebraic})"

    def to_json(self) -> dict:
        return {
            "local": self.local.to_json(),
            "quantum": self.quantum.to_json(),
            "algebraic": self.algebraic.to_json(),
        }


@lru_cache(maxsize=None)
def bounds(n: int) -> BoundTriple:
    """The local, quantum and algebraic bounds of gsi(n) (cached, immutable)."""
    if n < 2:
        raise ArityError("bounds need n >= 2")
    return BoundTriple(
        Scalar(2 ** (n - 1)),
        Scalar(0, 2 ** (n - 1)),  # 2**(n-1) * sqrt(2), kept exact
        Scalar(2**n),
    )


class Classification:
    """Where a box's functional value sits relative to the bound triple."""

    __slots__ = ("value", "exceeds_local", "exceeds_quantum")

    def __init__(self, value: Scalar, exceeds_local: bool, exceeds_quantum: bool):
        self.value = value
        self.exceeds_local = exceeds_local
        self.exceeds_quantum = exceeds_quantum

    def __repr__(self):
        return (
            f"Classification(value={self.value}, exceeds_local={self.exceeds_local}, "
            f"exceeds_quantum={self.exceeds_quantum})"
        )

    def to_json(self) -> dict:
        return {
            "value": self.value.to_json(),
            "value_decimal": self.value.decimal(),
            "exceeds_local": self.exceeds_local,
            "exceeds_quantum": self.exceeds_quantum,
        }


def classify(box: BoxTable) -> Classification:
    """Evaluate gsi(n) on the box and compare |value| strictly to the bounds."""
    value = evaluate(gsi(box.n), box)
    triple = bounds(box.n)
    magnitude = value if qsign(value.r, value.s) >= 0 else -value
    return Classification(value, magnitude > triple.local, magnitude > triple.quantum)
