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
written out.  When every factor is a spectral table (the isotropic family
and the branch boxes this module makes from it), the contraction reads
columns instead of cells and its branch boxes are spectral tables, whose
cells are built only if something later reads them.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from operator import add, sub
from typing import Sequence

from .bell import evaluate, gsi
from .boxes import (BoxTable, _combined, _outer_pair, _spectral_outer, _split, first_negative,
                    row_sums, spectral_negative, subwords)
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
        (rat,), (surd,) = _masses(tables[branch], 0)
        return Scalar.over(rat, surd, den)

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
    Survivors keep their relative order.  When every factor of ``joint`` is
    spectral, so is the contraction, and each branch box is a spectral table
    (see ``_contracted``): no cell is built.
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
    for branch, table in enumerate(tables):
        masses, surd_masses = _masses(table, m)
        mass_r, mass_s = masses[0], surd_masses[0]
        if any(v != mass_r for v in masses) or any(v != mass_s for v in surd_masses):
            raise CouplerInvalidError(
                branch, f"branch {branch} mass depends on surviving inputs"
            )
        sign = qsign(mass_r, mass_s)
        if sign < 0:
            raise CouplerInvalidError(branch)
        if not sign:
            if _nonzero(table):
                raise CouplerInvalidError(
                    branch, f"branch {branch} has zero mass but nonzero entries"
                )
            results.append(BranchResult(branch, ZERO, None))
            continue
        if _negative(table, m):
            raise CouplerInvalidError(branch)
        box = _divided(m, table, mass_r, mass_s)
        results.append(BranchResult(branch, Scalar.over(mass_r, mass_s, den), box))
    return tuple(results)


# -- the factor-wise contraction -------------------------------------------
#
# chi_0 sees the consumed outputs only through their popcount's parity and
# the consumed inputs only through their popcount, and both add up over the
# factors of a product; so each factor is reduced over its own consumed ends
# and only tables over survivors are multiplied out.  A built table is a
# product of one factor.  A branch table is either dense, a (rat, surd)
# pair of numerator vectors (surd None when there is no sqrt2 part), or,
# when every factor is spectral, a spectrum: a dict of such pairs, one
# column over the survivors' inputs per survivor output word (see the
# spectral form in ``boxes``).  Both reduce the consumed inputs the same
# way (``_summed``, ``_graded``) and multiply the factors out the same way
# (``_branches``); they differ in the output pass and in what a product is.


def _summed(vec, at: int, ends: Sequence[int]) -> list:
    """``vec`` summed over the consumed inputs, the index bits ``at + p - 1``
    for p in ``ends`` (descending, so lower bits stay in place)."""
    for p in ends:
        vec = list(map(add, *_split(vec, at + p - 1)))
    return vec


def _graded(vec, at: int, ends: Sequence[int]) -> list:
    """``vec`` summed like ``_summed``, into one table per popcount k of the
    consumed inputs: entry k sums over the consumed inputs with k bits set."""
    graded = [vec]
    for p in ends:
        grown = []
        for table in graded:
            at0, at1 = _split(table, at + p - 1)
            if grown:  # input 0 keeps the grade, input 1 raises it by one
                grown[-1] = list(map(add, grown[-1], at0))
            else:
                grown.append(at0)
            grown.append(at1)
        graded = grown
    return graded


def _reduced(vec, n: int, ends: Sequence[int]) -> tuple[list, list]:
    """One numerator vector of an n-party factor reduced over its consumed
    ``ends`` (descending): the sum of each survivor cell over the consumed
    cells, and ``graded[k]``, the same sum signed by the parity of the
    consumed outputs and taken over consumed inputs of popcount k only."""
    plain = signed = vec
    for p in ends:  # outputs first: both sums start from the same halves
        if plain is signed:
            a0, a1 = _split(vec, p - 1)
            plain, signed = list(map(add, a0, a1)), list(map(sub, a0, a1))
        else:
            plain = list(map(add, *_split(plain, p - 1)))
            signed = list(map(sub, *_split(signed, p - 1)))
    n -= len(ends)  # output bits left: the inputs now start at bit n
    return _summed(plain, n, ends), _graded(signed, n, ends)


def _dense_part(f: BoxTable, ends: Sequence[int]) -> tuple:
    """(den, total, graded) of a factor's cells: see ``_reduced``."""
    rat_total, rat_graded = _reduced(f.rat, f.n, ends)
    surd_total, surd_graded = ((None, [None] * len(rat_graded)) if f.surd is None
                               else _reduced(f.surd, f.n, ends))
    return f.den, (rat_total, surd_total), list(zip(rat_graded, surd_graded))


def _spectral_part(f: BoxTable, ends: Sequence[int]) -> tuple:
    """(den, total, graded) of a factor's columns.  Summing the consumed
    outputs of a column's character leaves 2**|ends| where it holds no
    consumed bit and 0 elsewhere; signing them by their parity first, where
    it holds every consumed bit.  So the total comes from the columns
    without a consumed output bit and the graded part from those with all of
    them, each keyed by its survivor bits and reduced over the consumed
    inputs; the common 2**|ends| is left out, as ``_contracted`` says."""
    den, columns = f.spectrum
    mask = sum(1 << (p - 1) for p in ends)
    keys = subwords(f.n, tuple(p for p in range(1, f.n + 1) if p not in ends))
    total, graded = {}, [{} for _ in range(len(ends) + 1)]
    for word, (rat, surd) in columns.items():
        key = keys[word]
        if not word & mask:
            total[key] = (_summed(rat, 0, ends), surd and _summed(surd, 0, ends))
        if word & mask == mask:
            surd_graded = [None] * len(graded) if surd is None else _graded(surd, 0, ends)
            for grade, pair in zip(graded, zip(_graded(rat, 0, ends), surd_graded)):
                grade[key] = pair
    return den, total, graded


def _spectral_combined(terms) -> dict:
    """``_combined`` column by column over ``(w, spectrum)`` terms."""
    by_word: dict = {}
    for w, table in terms:
        for word, pair in table.items():
            by_word.setdefault(word, []).append((w, pair))
    return {word: _combined(pairs) for word, pairs in by_word.items()}


# (outer product of two tables over m and fm survivors, weighted sum, the
# table of the empty product) for each form
_DENSE = (_outer_pair, _combined, ([1], None))
_SPECTRAL = (lambda u, v, m, fm: _spectral_outer(u, v, m), _spectral_combined,
             {0: ([1], None)})


def _branches(kernel, parts, form) -> tuple:
    """(m, (t0, t1)) from each factor's (survivors, total, graded).

    With ``total`` the product of the factors' totals and G_k the graded
    table of consumed-input popcount k of the whole product (a sum of
    products of the factors' graded tables whose grades add up to k),
    t0 = total + 2 * sum_k H(k) * G_k and t1 = 3 * total - t0.  The last
    factor's grade j is met directly by the rest's grades i weighted with
    2 * H(i + j), so the largest tables are written only once per grade."""
    outer, combine, one = form
    m, total, graded = parts[0]
    for fm, f_total, f_graded in parts[1:-1]:
        total = outer(total, f_total, m, fm)
        grades = [[] for _ in range(len(graded) + len(f_graded) - 1)]
        for i, g in enumerate(graded):
            for j, h in enumerate(f_graded):
                grades[i + j].append((1, outer(g, h, m, fm)))
        m += fm
        graded = [combine(terms) for terms in grades]
    # a lone factor meets the empty product: no survivors, sum 1, grade 0
    fm, f_total, f_graded = parts[-1] if len(parts) > 1 else (0, one, [one])
    total = outer(total, f_total, m, fm)
    terms = [(1, total)]
    for j, table in enumerate(f_graded):
        weights = [2 * kernel[i + j] for i in range(len(graded))]
        if any(weights):
            weighted = combine([(w, g) for w, g in zip(weights, graded) if w])
            terms.append((1, outer(weighted, table, m, fm)))
    t0 = combine(terms)
    return m + fm, (t0, combine([(3, total), (-1, t0)]))


def _contracted(coupler: CouplerEffect, joint: BoxTable, consumed: Sequence[int]) -> tuple:
    """(den, m, (t0, t1)): both branch tables of ``joint`` over its m
    survivors, over ``den``; see ``_branches``.

    Dense tables are cells over ``coupler.den`` times the factors' dens.  A
    spectrum's cells carry the factor 2**N that summing N consumed outputs
    of a character leaves, which cancels against the 2**N of
    ``coupler.den = 3 * 2**N``: spectra are over 3 times the factors'
    dens."""
    factors = joint.factors or (joint,)
    spectral = all(f.spectrum is not None for f in factors)
    part, form = (_spectral_part, _SPECTRAL) if spectral else (_dense_part, _DENSE)
    den = 3 if spectral else coupler.den
    parts, offset = [], 0
    for f in factors:
        ends = sorted((p - offset for p in consumed if offset < p <= offset + f.n),
                      reverse=True)
        offset += f.n
        f_den, total, graded = part(f, ends)
        parts.append((f.n - len(ends), total, graded))
        den *= f_den
    return (den, *_branches(coupler.kernel, parts, form))


def _masses(table, m: int) -> tuple:
    """Each surviving input row's mass numerators: (rat, surd) lists."""
    if isinstance(table, dict):  # 2**m times the empty-set column
        rat, surd = table.get(0, ([0] * 2**m, None))
        return [v << m for v in rat], [v << m for v in surd] if surd else [0] * len(rat)
    rat, surd = table
    masses = row_sums(rat, m)
    return masses, row_sums(surd, m) if surd else [0] * len(masses)


def _nonzero(table) -> bool:
    pairs = table.values() if isinstance(table, dict) else (table,)
    return any(any(rat) or (surd and any(surd)) for rat, surd in pairs)


def _negative(table, m: int) -> bool:
    if isinstance(table, dict):
        return spectral_negative(m, table)
    return first_negative(*table) is not None


def _over_mass(rat, surd, mass_r: int, mass_s: int) -> tuple:
    """``(rat + surd*sqrt2) / (mass_r + mass_s*sqrt2)`` for a positive mass,
    as (den, rat, surd), multiplied through by the conjugate mass."""
    if not mass_s:
        return mass_r, rat, surd
    surd = surd or [0] * len(rat)
    norm = mass_r * mass_r - 2 * mass_s * mass_s  # nonzero: sqrt2 is irrational
    sign = 1 if norm > 0 else -1
    new_rat = [sign * (r * mass_r - 2 * s * mass_s) for r, s in zip(rat, surd)]
    new_surd = [sign * (s * mass_r - r * mass_s) for r, s in zip(rat, surd)]
    return sign * norm, new_rat, new_surd


def _divided(m: int, table, mass_r: int, mass_s: int) -> BoxTable:
    """The branch box: ``table`` over its mass; the shared denominator of
    table and mass cancels.  The mass is positive, so the box records the
    sign verdict ``apply_coupler`` found, and validation takes it."""
    if not isinstance(table, dict):
        box = BoxTable.from_numerators(m, *_over_mass(*table, mass_r, mass_s))
    else:
        columns, den = {}, mass_r
        for word, pair in table.items():
            den, *columns[word] = _over_mass(*pair, mass_r, mass_s)
        box = BoxTable.from_spectrum(m, den, columns)
    box._nonnegative = True
    return box
