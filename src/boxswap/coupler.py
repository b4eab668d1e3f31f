"""Nonlocality-swapping couplers.

A coupler is a two-outcome quasi-measurement one user performs jointly on N
box ends they hold: it consumes those N inputs and outputs, and returns a
single bit b'.  It is stored as one weight table chi_0 over (outputs, inputs)
of the consumed ends, as integer numerators over 3 * 2**N; the other branch
is chi_1 = 2**-N - chi_0, so chi_0 + chi_1 is uniform at 2**-N by
construction.  It is a quasi-effect: individual weights may be negative, and
only the branch tables it produces are required to be physical.

The success weights are

    chi_0(b, y) = (1 + 2 * (-1)**popcount(b) * H(y)) / (3 * 2**N)

with the integer kernel H(y) = (1/2) * sum_t sign(t) * (-1)**popcount(t & y),
where sign is the +--+ pattern of the n-party functional (see bell.gsi_sign).
For N=2 this kernel reproduces the functional coefficients themselves; it is
the unique linear choice whose success branch turns tensor products of
Svetlichny-family boxes into the Svetlichny-family box over the surviving
parties, which the test suite verifies exhaustively.

``success_probability`` and ``is_allowed`` implement the advertised affine
law in the consumed box's gsi value.  The law coincides with the actual
weight contraction (``CouplerEffect.contract``) for every bipartite box, for
every fully mixed consumed marginal, and on the whole isotropic family for
N=3; outside that territory — where no linear effect can satisfy both the
law and the swap outputs at once — the branch masses follow the weights.
The documented-deviation tests pin this down rather than hiding it.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Sequence

from .bell import evaluate, gsi
from .boxes import BoxTable, first_negative, row_sums, subwords
from .errors import ArityError, CouplerInvalidError
from .scalar import ZERO, Scalar, qsign


def _kernel_by_popcount(n: int) -> list:
    """Integer kernel H for each popcount 0..n of the consumed-input word."""
    if n < 2:
        raise ArityError("couplers need at least two consumed ends")
    by_popcount = []
    for k in range(n + 1):
        total = 0
        for a in range(k + 1):  # bits of t inside y
            for b in range(n - k + 1):  # bits of t outside y
                sign = 1 if (a + b) % 4 in (0, 1) else -1
                total += comb(k, a) * comb(n - k, b) * (-1) ** a * sign
        assert total % 2 == 0
        by_popcount.append(total // 2)
    return by_popcount


def success_kernel(n: int) -> tuple[Scalar, ...]:
    """Kernel H per consumed-input word; depends only on the popcount."""
    by_popcount = _kernel_by_popcount(n)
    return tuple(Scalar(by_popcount[y.bit_count()]) for y in range(2**n))


class CouplerEffect:
    """The success weights chi_0 of a coupler on N consumed ends, as integer
    numerators ``num0`` over ``den = 3 * 2**N``; index (b << N) | y.  The
    failure weights chi_1 = 2**-N - chi_0 have numerators ``3 - num0``."""

    __slots__ = ("n", "den", "num0")

    def __init__(self, n: int, num0: Sequence[int]):
        self.n = n
        self.den = 3 << n
        self.num0 = tuple(num0)

    def weight(self, branch: int, outputs: int, inputs: int) -> Scalar:
        num = self.num0[(outputs << self.n) | inputs]
        return Scalar.rational(num if branch == 0 else 3 - num, self.den)

    def contract(self, box: BoxTable, branch: int = 0) -> Scalar:
        """Raw weight contraction sum_{b,y} chi_branch(b, y) * P(b | y).

        This is the mass ``apply_coupler`` assigns to the branch when the
        consumed marginal is ``box``; see the module docstring for how it
        relates to ``success_probability``.
        """
        if box.n != self.n:
            raise ArityError(f"coupler consumes {self.n} ends, box has {box.n}")
        ends = range(1, self.n + 1)
        rat, surd = (_branch_tables(self, vec, self.n, (), ends)[branch]
                     for vec in (box.rat, box.surd))
        return Scalar.over(rat[0], surd[0] if surd else 0, self.den * box.den)

    def __repr__(self):
        return f"CouplerEffect(n={self.n})"


@lru_cache(maxsize=None)
def build_coupler(n: int) -> CouplerEffect:
    kernel = _kernel_by_popcount(n)
    num0 = []
    for b in range(2**n):
        parity = -1 if b.bit_count() % 2 else 1
        for y in range(2**n):
            num0.append(1 + 2 * parity * kernel[y.bit_count()])
    return CouplerEffect(n, num0)


def success_probability(coupler: CouplerEffect, bob_box: BoxTable) -> Scalar:
    """Probability of the success outcome by the affine law in gsi."""
    if bob_box.n != coupler.n:
        raise ArityError(f"coupler consumes {coupler.n} ends, box has {bob_box.n}")
    slope = Scalar.rational(1, 3 * 2 ** (coupler.n - 1))
    return slope * evaluate(gsi(coupler.n), bob_box) + Scalar.rational(1, 3)


def is_allowed(coupler: CouplerEffect, bob_box: BoxTable) -> bool:
    """True iff the gsi value sits in the valid window [-2**(N-1), 2**N],
    i.e. the success law lands in [0, 1]."""
    if bob_box.n != coupler.n:
        raise ArityError(f"coupler consumes {coupler.n} ends, box has {bob_box.n}")
    value = evaluate(gsi(coupler.n), bob_box)
    return Scalar(-(2 ** (coupler.n - 1))) <= value <= Scalar(2**coupler.n)


class BranchResult:
    """One coupler outcome: its exact probability and the conditional box
    over the surviving parties (None for probability zero)."""

    __slots__ = ("branch", "probability", "box")

    def __init__(self, branch: int, probability: Scalar, box: BoxTable | None):
        self.branch = branch
        self.probability = probability
        self.box = box

    def __repr__(self):
        return f"BranchResult(branch={self.branch}, probability={self.probability})"


def apply_coupler(
    coupler: CouplerEffect, joint: BoxTable, consumed: Sequence[int]
) -> tuple[BranchResult, BranchResult]:
    """Consume ``consumed`` (ordered, 1-based) parties of ``joint``.

    Returns both branches.  Each branch table must come out with an
    input-independent mass and nonnegative entries, otherwise the coupler is
    not valid on this joint and CouplerInvalidError says which branch broke.
    Survivors keep their relative order.
    """
    consumed = list(consumed)
    if len(consumed) != coupler.n:
        raise ArityError(f"coupler consumes {coupler.n} ends, got {len(consumed)} parties")
    if len(set(consumed)) != len(consumed) or any(p < 1 or p > joint.n for p in consumed):
        raise ArityError(f"consumed parties {consumed} invalid for n={joint.n}")
    survivors = [p for p in range(1, joint.n + 1) if p not in consumed]
    if not survivors:
        raise ArityError("a coupler must leave at least one surviving party")

    n, m = joint.n, len(survivors)
    rats = _branch_tables(coupler, joint.rat, n, survivors, consumed)
    surds = _branch_tables(coupler, joint.surd, n, survivors, consumed)
    den = coupler.den * joint.den

    results = []
    for branch in (0, 1):
        rat, surd = rats[branch], surds[branch]
        masses = row_sums(rat, m)
        surd_masses = row_sums(surd, m) if surd else [0] * len(masses)
        mass_r, mass_s = masses[0], surd_masses[0]
        if any(v != mass_r for v in masses) or any(v != mass_s for v in surd_masses):
            raise CouplerInvalidError(
                branch, f"branch {branch} mass depends on surviving inputs"
            )
        sign = qsign(mass_r, mass_s)
        if sign < 0:
            raise CouplerInvalidError(branch)
        if not sign:
            if any(rat) or (surd and any(surd)):
                raise CouplerInvalidError(
                    branch, f"branch {branch} has zero mass but nonzero entries"
                )
            results.append(BranchResult(branch, ZERO, None))
            continue
        if first_negative(rat, surd) is not None:
            raise CouplerInvalidError(branch)
        box = _divided(m, rat, surd, mass_r, mass_s)
        results.append(BranchResult(branch, Scalar.over(mass_r, mass_s, den), box))
    return tuple(results)


def _branch_tables(coupler: CouplerEffect, vec, n: int, survivors: Sequence[int],
                   consumed: Sequence[int]) -> tuple[list, list]:
    """Numerators of both branch tables of the n-party numerator vector
    ``vec`` (None for no sqrt2 part) over the ``survivors``, over coupler
    den * table den; chi_1's weights are 3 - num0, so its table is
    3 * total - t0.  With no survivors each table is the one contraction."""
    if vec is None:
        return None, None
    m, N = len(survivors), coupler.n
    kept, used = subwords(n, tuple(survivors)), subwords(n, tuple(consumed))
    width = 2**n
    # weight of output word a at consumed input word y: column y, entry a
    columns = [[coupler.num0[(used[a] << N) | y] for a in range(width)] for y in range(2**N)]
    t0 = [0] * 4**m
    total = [0] * 4**m
    for x in range(2**n):
        row, weights = kept[x] << m, columns[used[x]]
        for a, v in enumerate(vec[x * width:(x + 1) * width]):
            if v:
                i = row | kept[a]
                t0[i] += weights[a] * v
                total[i] += v
    return t0, [3 * p - t for p, t in zip(total, t0)]


def _divided(m: int, rat, surd, mass_r: int, mass_s: int) -> BoxTable:
    """The table ``(rat + surd*sqrt2) / (mass_r + mass_s*sqrt2)`` for a
    positive mass, multiplied through by the conjugate mass; the shared
    denominator of table and mass cancels."""
    surd = surd or [0] * len(rat)
    norm = mass_r * mass_r - 2 * mass_s * mass_s  # nonzero: sqrt2 is irrational
    sign = 1 if norm > 0 else -1
    new_rat = [sign * (r * mass_r - 2 * s * mass_s) for r, s in zip(rat, surd)]
    new_surd = [sign * (s * mass_r - r * mass_s) for r, s in zip(rat, surd)]
    return BoxTable.from_numerators(m, sign * norm, new_rat, new_surd)
