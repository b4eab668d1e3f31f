"""Nonlocality-swapping couplers.

A coupler is a two-outcome quasi-measurement one user performs jointly on N
box ends they hold: it consumes those N inputs and outputs, and returns a
single bit b'.  Its success weights chi_0 over (outputs, inputs) of the
consumed ends depend only on popcounts, so it is stored as its N + 1 kernel
values H(0..N) below; the other branch is chi_1 = 2**-N - chi_0, so
chi_0 + chi_1 is uniform at 2**-N by construction.  It is a quasi-effect:
individual weights may be negative, and only the branch tables it produces
are required to be physical.

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

``apply_coupler`` contracts a ``tensor`` product factor by factor (see
``_contracted``), so the product of the boxes a coupler joins is never
written out.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from operator import add, sub
from typing import Sequence

from .bell import evaluate, gsi
from .boxes import BoxTable, _outer_pair, _scaled, _split, _sum, first_negative, row_sums
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


class CouplerEffect:
    """The success weights of a coupler on N consumed ends, stored as its
    ``kernel`` H(k) for each popcount k = 0..N of the consumed inputs:
    chi_0(b, y) has numerator 1 + 2 * (-1)**|b| * H(|y|) over
    ``den = 3 * 2**N``, and chi_1 = 2**-N - chi_0 has numerator 3 minus
    that."""

    __slots__ = ("n", "den", "kernel")

    def __init__(self, n: int, kernel: Sequence[int]):
        if len(kernel) != n + 1:
            raise ArityError(f"a coupler on {n} ends needs {n + 1} kernel values, "
                             f"got {len(kernel)}")
        self.n = n
        self.den = 3 << n
        self.kernel = tuple(kernel)

    def weight(self, branch: int, outputs: int, inputs: int) -> Scalar:
        sign = -1 if outputs.bit_count() & 1 else 1
        num = 1 + 2 * sign * self.kernel[inputs.bit_count()]
        return Scalar.rational(num if branch == 0 else 3 - num, self.den)

    def contract(self, box: BoxTable, branch: int = 0) -> Scalar:
        """Raw weight contraction sum_{b,y} chi_branch(b, y) * P(b | y).

        This is the mass ``apply_coupler`` assigns to the branch when the
        consumed marginal is ``box``; see the module docstring for how it
        relates to ``success_probability``.
        """
        if box.n != self.n:
            raise ArityError(f"coupler consumes {self.n} ends, box has {box.n}")
        den, _, tables = _contracted(self, box, range(1, self.n + 1))
        rat, surd = tables[branch]
        return Scalar.over(rat[0], surd[0] if surd else 0, den)

    def __repr__(self):
        return f"CouplerEffect(n={self.n})"


@lru_cache(maxsize=None)
def build_coupler(n: int) -> CouplerEffect:
    return CouplerEffect(n, _kernel_by_popcount(n))


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
    if len(consumed) == joint.n:
        raise ArityError("a coupler must leave at least one surviving party")

    den, m, tables = _contracted(coupler, joint, consumed)
    results = []
    for branch, (rat, surd) in enumerate(tables):
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


# -- the factor-wise contraction -------------------------------------------
#
# chi_0 sees the consumed outputs only through their popcount's parity and
# the consumed inputs only through their popcount, and both add up over the
# factors of a product; so each factor is reduced over its own consumed ends
# and only tables over survivors are multiplied out.  A built table is a
# product of one factor.  Numerator vectors travel as (rat, surd) pairs,
# surd None when there is no sqrt2 part.


def _reduced(vec, n: int, ends: Sequence[int]) -> tuple[list, list]:
    """One numerator vector of an n-party factor reduced over its consumed
    ``ends``: the sum of each survivor cell over the consumed cells, and
    ``graded[k]``, the same sum signed by the parity of the consumed outputs
    and taken over consumed inputs of popcount k only."""
    ends = sorted(ends, reverse=True)  # the higher end first keeps lower bits in place
    plain = signed = vec
    for p in ends:  # outputs first: both sums start from the same halves
        if plain is signed:
            a0, a1 = _split(vec, p - 1)
            plain, signed = list(map(add, a0, a1)), list(map(sub, a0, a1))
        else:
            plain = list(map(add, *_split(plain, p - 1)))
            signed = list(map(sub, *_split(signed, p - 1)))
    n -= len(ends)  # output bits left: the inputs now start at bit n
    graded = [signed]
    for p in ends:
        plain = list(map(add, *_split(plain, n + p - 1)))
        grown = []
        for table in graded:
            at0, at1 = _split(table, n + p - 1)
            if grown:  # input 0 keeps the grade, input 1 raises it by one
                grown[-1] = list(map(add, grown[-1], at0))
            else:
                grown.append(at0)
            grown.append(at1)
        graded = grown
    return plain, graded


def _contracted(coupler: CouplerEffect, joint: BoxTable, consumed: Sequence[int]) -> tuple:
    """(den, m, (t0, t1)): both branch tables of ``joint`` over its m
    survivors, as (rat, surd) pairs over ``den``.

    With ``total`` the product of the factors' sum tables and G_k the
    signed table of consumed-input popcount k of the whole product (a sum
    of products of the factors' graded tables whose grades add up to k),
    t0 = total + 2 * sum_k H(k) * G_k and t1 = 3 * total - t0.  The last
    factor's grade j is met directly by the rest's grades i weighted with
    2 * H(i + j), so the largest tables are written only once per grade."""
    factors = joint.factors or (joint,)
    kernel, den = coupler.kernel, coupler.den
    parts, offset = [], 0
    for f in factors:
        ends = [p - offset for p in consumed if offset < p <= offset + f.n]
        offset += f.n
        rat_total, rat_graded = _reduced(f.rat, f.n, ends)
        surd_total, surd_graded = ((None, [None] * len(rat_graded)) if f.surd is None
                                   else _reduced(f.surd, f.n, ends))
        parts.append((f.n - len(ends), (rat_total, surd_total),
                      list(zip(rat_graded, surd_graded))))
        den *= f.den

    # every factor but the last, multiplied out
    m, total, graded = parts[0]
    for fm, f_total, f_graded in parts[1:-1]:
        total = _outer_pair(total, f_total, m, fm)
        grades = [[] for _ in range(len(graded) + len(f_graded) - 1)]
        for i, g in enumerate(graded):
            for j, h in enumerate(f_graded):
                grades[i + j].append(_outer_pair(g, h, m, fm))
        m += fm
        # zip(*pairs) is the rat parts and the surd parts, each summed
        graded = [tuple(_sum(*part) for part in zip(*pairs)) for pairs in grades]
    # a lone factor meets the empty product: no survivors, sum 1, grade 0
    fm, f_total, f_graded = parts[-1] if len(parts) > 1 else (0, ([1], None), [([1], None)])
    total = _outer_pair(total, f_total, m, fm)
    terms = [total]
    for j, table in enumerate(f_graded):
        weights = [2 * kernel[i + j] for i in range(len(graded))]
        if any(weights):
            weighted = tuple(_sum(*(_scaled(g[part], w) for w, g in zip(weights, graded) if w))
                             for part in (0, 1))
            terms.append(_outer_pair(weighted, table, m, fm))
    t0 = tuple(_sum(*part) for part in zip(*terms))
    t1 = tuple(_sum(_scaled(a, 3), _scaled(b, -1)) for a, b in zip(total, t0))
    return den, m + fm, (t0, t1)


def _divided(m: int, rat, surd, mass_r: int, mass_s: int) -> BoxTable:
    """The table ``(rat + surd*sqrt2) / (mass_r + mass_s*sqrt2)`` for a
    positive mass, multiplied through by the conjugate mass; the shared
    denominator of table and mass cancels."""
    if not mass_s:
        return BoxTable.from_numerators(m, mass_r, rat, surd)
    surd = surd or [0] * len(rat)
    norm = mass_r * mass_r - 2 * mass_s * mass_s  # nonzero: sqrt2 is irrational
    sign = 1 if norm > 0 else -1
    new_rat = [sign * (r * mass_r - 2 * s * mass_s) for r, s in zip(rat, surd)]
    new_surd = [sign * (s * mass_r - r * mass_s) for r, s in zip(rat, surd)]
    return BoxTable.from_numerators(m, sign * norm, new_rat, new_surd)
