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
written out.  Each factor is reduced through a plan cached per shape (its
party count and consumed ends, ``_reduction``), so a call does integer
work only.  When every factor is a spectral table (the isotropic family
and the branch boxes this module makes from it), the same plans reduce
columns instead of cells, and the branch boxes are spectral tables, whose
cells are built only if something later reads them.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from operator import add, itemgetter, sub
from typing import Sequence

from .bell import evaluate, gsi
from .boxes import (BoxTable, _kron, _outer, _pair_product, first_negative, spectral_negative,
                    subwords)
from .errors import ArityError, CouplerInvalidError
from .scalar import ZERO, Scalar, _reduced, qsign


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
        return _reduced(*_mass(branch, tables[branch], 0), den)

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
    """Consume ``consumed`` (ordered, 1-based integer positions) parties of ``joint``.

    Returns both branches.  Each branch table must come out with an
    input-independent mass and nonnegative entries, otherwise the coupler is
    not valid on this joint and CouplerInvalidError says which branch broke.
    Survivors keep their relative order.  When every factor of ``joint`` is
    spectral, so is the contraction, and each branch box is a spectral table
    (see ``_contracted``): no cell is built.
    """
    consumed = tuple(consumed)
    if not all([isinstance(p, int) and not isinstance(p, bool) for p in consumed]):
        raise ArityError(f"consumed parties {list(consumed)} must be integers")
    if len(consumed) != coupler.n:
        raise ArityError(f"coupler consumes {coupler.n} ends, got {len(consumed)} parties")
    if len(set(consumed)) != len(consumed) or min(consumed) < 1 or max(consumed) > joint.n:
        raise ArityError(f"consumed parties {list(consumed)} invalid for n={joint.n}")
    if len(consumed) == joint.n:
        raise ArityError("a coupler must leave at least one surviving party")
    den, m, tables = _contracted(coupler, joint, consumed)
    return tuple([_finished(branch, table, den, m) for branch, table in enumerate(tables)])


# -- the factor-wise contraction -------------------------------------------
#
# chi_0 sees the consumed outputs only through their popcount's parity and
# the consumed inputs only through their popcount, and both add up over the
# factors of a product; so each factor is reduced over its own consumed ends
# and only tables over survivors are multiplied out.  A built table is a
# product of one factor.  Every table below is a dict of (rat, surd)
# columns, surd None for no sqrt2 part: a spectrum's columns keyed by the
# survivors' output bits (see the spectral form in ``boxes``), or all the
# cells at word 0.  A factor is reduced by the plan of its shape
# (``_reduction``): one gather per class of consumed entries, summed by
# C-level ``map`` and ``zip``.  The grades meet through weights cached per
# kernel and grade counts (``_pairing``), and each product is added in
# place into one dict of columns (``_times``).


def _gather(indices: list):
    """``itemgetter(*indices)``, returning a tuple for one index too."""
    return itemgetter(*indices) if len(indices) > 1 else lambda vec, i=indices[0]: (vec[i],)


@lru_cache(maxsize=256)
def _reduction(n: int, ends: tuple, cells: bool) -> tuple:
    """The plan that reduces a vector of an n-party factor over its consumed
    ``ends`` (ascending, at least one): ``cells`` indexed (x << n) | a, or
    a column indexed by x.  The consumed entries fall into classes by the
    popcount k of their inputs, and for cells by their outputs' parity too,
    as class 2k + parity.  Returns each class's gather, its members in a run
    per survivor entry, and the run's length; then each output word's
    survivor bits and the consumed bits."""
    mask = sum(1 << (p - 1) for p in ends)
    here = [w for w in range(1 << n) if not w & mask]  # the survivors' words
    there = [w for w in range(1 << n) if w & mask == w]  # the consumed words
    if cells:
        rows = [x << n | a for x in here for a in here]
        members = [[] for _ in range(2 * len(ends) + 2)]
        for xc, x in enumerate(there):
            for ac, a in enumerate(there):
                members[2 * xc.bit_count() + (ac.bit_count() & 1)].append(x << n | a)
    else:
        rows, members = here, [[] for _ in range(len(ends) + 1)]
        for xc, x in enumerate(there):
            members[xc.bit_count()].append(x)
    classes = tuple((_gather([r | c for r in rows for c in cls]), len(cls)) for cls in members)
    return classes, subwords(n, tuple(p for p in range(1, n + 1) if p not in ends)), mask


def _class_sums(vec, classes) -> list:
    """Each class's sum at every survivor entry of ``vec`` (see ``_reduction``)."""
    sums = []
    for gather, count in classes:
        run = gather(vec)
        if count == 2:
            run = list(map(add, run[::2], run[1::2]))
        elif count > 2:
            run = list(map(sum, zip(*[iter(run)] * count)))
        sums.append(run)
    return sums


def _cells_part(f: BoxTable, ends: tuple) -> tuple:
    """(den, total, graded) of a factor's cells: each survivor cell summed
    over the consumed cells, and ``graded[k]``, that sum signed by the
    consumed outputs' parity over consumed inputs of popcount k only."""
    classes = _reduction(f.n, ends, True)[0]
    rat = _class_sums(f.rat, classes)
    surd = f.surd and _class_sums(f.surd, classes)
    graded = [{0: (list(map(sub, rat[k], rat[k + 1])),
                   surd and list(map(sub, surd[k], surd[k + 1])))}
              for k in range(0, len(rat), 2)]
    return f.den, {0: (list(map(sum, zip(*rat))), surd and list(map(sum, zip(*surd))))}, graded


def _columns_part(f: BoxTable, ends: tuple) -> tuple:
    """(den, total, graded) of a factor's columns.  Summing the consumed
    outputs of a column's character leaves 2**|ends| where it holds no
    consumed bit, and signed by their parity, where it holds all of them;
    elsewhere 0.  So the total sums the columns of the first kind and the
    graded part those of the second over the consumed inputs, keyed by
    their survivor bits; the common 2**|ends| is left out (``_contracted``)."""
    den, columns = f.spectrum
    classes, keys, mask = _reduction(f.n, ends, False)
    total, graded = {}, [{} for _ in classes]
    for word, (rat, surd) in columns.items():
        held = word & mask
        if held and held != mask:
            continue
        rat = _class_sums(rat, classes)
        surd = surd and _class_sums(surd, classes)
        if held:
            for k, grade in enumerate(graded):
                grade[keys[word]] = rat[k], surd and surd[k]
        else:
            total[keys[word]] = list(map(sum, zip(*rat))), surd and list(map(sum, zip(*surd)))
    return den, total, graded


def _weighted(tables: list, pairs: tuple) -> dict:
    """The sum of ``w`` times ``tables[i]`` over ``pairs`` (i, w), column by column."""
    acc = {}
    for i, w in pairs:
        for word, (rat, surd) in tables[i].items():
            rat, surd = [w * v for v in rat], surd and [w * v for v in surd]
            held = acc.get(word)
            if held is not None:
                rat = list(map(add, held[0], rat))
                if held[1] is not None:
                    surd = held[1] if surd is None else list(map(add, held[1], surd))
            acc[word] = rat, surd
    return acc


def _times(u: dict, v: dict, nu: int, nv: int, acc: dict) -> dict:
    """``acc`` plus the product of ``u`` (the ``nu`` low survivors) and ``v``:
    the ``_kron`` of their columns, or, given ``nv``, the ``_outer`` of cells.
    Each product is added into ``acc`` in place as it is made."""
    outer = _kron if nv is None else (lambda p, q: _outer(p, q, nu, nv))
    for sv, cv in v.items():
        for su, cu in u.items():
            word, (rat, surd) = su | sv << nu, _pair_product(cu, cv, outer)
            held = acc.get(word)
            if held is not None:
                rat = list(map(add, held[0], rat))
                if held[1] is not None:
                    surd = held[1] if surd is None else list(map(add, held[1], surd))
            acc[word] = rat, surd
    return acc


@lru_cache(maxsize=64)
def _pairing(kernel: tuple, ni: int, nj: int) -> tuple:
    """For each grade j < nj of the last factor, the pairs (i, 2 * H(i + j))
    over the rest's grades i < ni whose weight is not zero."""
    return tuple(tuple((i, 2 * kernel[i + j]) for i in range(ni) if kernel[i + j])
                 for j in range(nj))


def _branches(kernel: tuple, parts: list, cells: bool) -> tuple:
    """(m, (t0, t1)) from each factor's (survivors, total, graded): with
    ``total`` the product of the factors' totals and G_k the graded table
    of consumed-input popcount k of the product (the products of graded
    tables whose grades add up to k), the signed part is
    2 * sum_k H(k) * G_k, t0 = total + signed and t1 = 3 * total - t0 =
    2 * total - signed.  The last factor's grade j meets the rest's grades
    i weighted with 2 * H(i + j), so the largest tables are written once
    per grade, and both branch tables are written in one pass over the
    columns of the total and the signed part."""
    m, total, graded = parts[0]
    for fm, f_total, f_graded in parts[1:-1]:
        nv = fm if cells else None
        total = _times(total, f_total, m, nv, {})
        grades = [{} for _ in range(len(graded) + len(f_graded) - 1)]
        for i, g in enumerate(graded):
            for j, h in enumerate(f_graded):
                _times(g, h, m, nv, grades[i + j])
        m += fm
        graded = grades
    one = {0: ((1,), None)}  # the empty product a lone factor meets: sum 1, grade 0
    fm, f_total, f_graded = parts[-1] if len(parts) > 1 else (0, one, [one])
    nv = fm if cells else None
    total, signed = _times(total, f_total, m, nv, {}), {}
    for h, pairs in zip(f_graded, _pairing(kernel, len(graded), len(f_graded))):
        if pairs:
            _times(_weighted(graded, pairs), h, m, nv, signed)
    t0, t1 = {}, {}
    for word, (rat, surd) in total.items():
        s_rat, s_surd = signed.pop(word, (None, None))
        if s_rat is None:
            t0[word] = rat, surd
            t1[word] = [2 * v for v in rat], surd and [2 * v for v in surd]
            continue
        if (surd is None) != (s_surd is None):  # the missing sqrt(2) part is zero
            surd, s_surd = surd or [0] * len(rat), s_surd or [0] * len(rat)
        t0[word] = list(map(add, rat, s_rat)), surd and list(map(add, surd, s_surd))
        t1[word] = ([2 * v - w for v, w in zip(rat, s_rat)],
                    surd and [2 * v - w for v, w in zip(surd, s_surd)])
    for word, (s_rat, s_surd) in signed.items():  # the words only the signed part has
        t0[word] = s_rat, s_surd
        t1[word] = [-w for w in s_rat], s_surd and [-w for w in s_surd]
    return m + fm, (t0, t1)


def _contracted(coupler: CouplerEffect, joint: BoxTable, consumed: Sequence[int]) -> tuple:
    """(den, m, (t0, t1)): both branch tables of ``joint`` over its m
    survivors, over ``den`` (see ``_branches``): (rat, surd) pairs of cells
    over ``coupler.den`` times the factors' dens, or dicts of columns.  A
    spectrum's cells carry the 2**N that summing N consumed outputs of a
    character leaves, which cancels against the 2**N of ``coupler.den =
    3 * 2**N``: spectra are over 3 times the factors' dens."""
    factors = joint.factors or (joint,)
    cells = None in [f.spectrum for f in factors]
    part = _cells_part if cells else _columns_part
    den = coupler.den if cells else 3
    consumed = sorted(consumed)
    parts, offset = [], 0
    for f in factors:
        ends = tuple([p - offset for p in consumed if offset < p <= offset + f.n])
        offset += f.n
        if ends:
            f_den, total, graded = part(f, ends)
        else:  # nothing to reduce: the factor is its own total and grade 0
            f_den, total = (f.den, {0: (f.rat, f.surd)}) if cells else f.spectrum
            graded = [total]
        parts.append((f.n - len(ends), total, graded))
        den *= f_den
    m, tables = _branches(coupler.kernel, parts, cells)
    return den, m, [table[0] for table in tables] if cells else tables


def _mass(branch: int, table, m: int) -> tuple:
    """The (rat, surd) numerators of the mass every surviving input row must
    share: 2**m times the empty-set column, or the row sums of cells.  The
    rows share it when each part is constant: one ``count`` per part."""
    if isinstance(table, dict):
        (rat, surd), shift = table.get(0, ((0,), None)), m
    else:
        rat, surd = [vec and list(map(sum, zip(*[iter(vec)] * (1 << m)))) for vec in table]
        shift = 0
    if rat.count(rat[0]) != len(rat) or (surd is not None and surd.count(surd[0]) != len(surd)):
        raise CouplerInvalidError(branch, f"branch {branch} mass depends on surviving inputs")
    return rat[0] << shift, (surd[0] if surd else 0) << shift


def _finished(branch: int, table, den: int, m: int) -> BranchResult:
    """One branch of ``apply_coupler`` from its table over ``den``: the mass
    check, the sign tests, then the division by the mass, whose positive
    sign lets the box record the sign verdict for validation to take."""
    mass_r, mass_s = _mass(branch, table, m)
    sign = qsign(mass_r, mass_s)
    if sign < 0:
        raise CouplerInvalidError(branch)
    spectral = isinstance(table, dict)
    columns = table if spectral else {0: table}
    if not sign:
        if any([any(rat) or (surd and any(surd)) for rat, surd in columns.values()]):
            raise CouplerInvalidError(branch, f"branch {branch} has zero mass but nonzero entries")
        return BranchResult(branch, ZERO, None)
    if spectral_negative(m, table) if spectral else (first_negative(*table) is not None):
        raise CouplerInvalidError(branch)
    box_den = mass_r
    if mass_s:  # times the conjugate mass over the norm, nonzero as sqrt2 is irrational
        norm = mass_r * mass_r - 2 * mass_s * mass_s
        sign = 1 if norm > 0 else -1
        box_den, conjugate = sign * norm, ((sign * mass_r,), (-sign * mass_s,))
        columns = {w: _pair_product(pair, conjugate, _kron) for w, pair in columns.items()}
    box = (BoxTable.from_spectrum(m, box_den, columns) if spectral
           else BoxTable.from_numerators(m, box_den, *columns[0]))
    box._nonnegative = True
    return BranchResult(branch, _reduced(mass_r, mass_s, den), box)
