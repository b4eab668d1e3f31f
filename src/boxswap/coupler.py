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
written out.  What depends on the joint's shape alone is one plan, cached
per coupler, factor party counts, consumed positions and table form, never
per value (``_joint_plan``): which of a factor's columns reach the branch
total and which the graded part, the gathers that sum them there, the
kernel weights, and for cells the layout of the product.  A cell table is
read as one column at word 0, so cells and spectra run on one path of
integer work.  When every factor is a spectral table (the isotropic family
and the branch boxes this module makes from it), the branch boxes are
spectral tables, whose cells are built only if something later reads them.
Each branch is checked for its mass and its signs, by the one sign test of
its table's form, and divided by its mass (``_finished``).
"""

from __future__ import annotations

from functools import lru_cache, partial
from math import comb
from operator import add, attrgetter, itemgetter, mul, neg, sub
from typing import Sequence

from .bell import evaluate, gsi
from .boxes import BoxTable, _kron, _pair_product, first_negative, spectral_negative, subwords
from .errors import ArityError, CouplerInvalidError
from .scalar import ONE, ZERO, Scalar, _reduced, qsign


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
    return ZERO <= success_probability(coupler, bob_box) <= ONE


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
    return _finished(*_contracted(coupler, joint, consumed))


# -- the factor-wise contraction -------------------------------------------
#
# chi_0 sees the consumed outputs only through their popcount's parity and
# the consumed inputs only through their popcount, and both add up over the
# factors of a product; so each factor is reduced over its own consumed ends
# and only tables over survivors are multiplied out.  A factor is read as
# columns, each a (rat, surd) pair, surd None for no sqrt2 part: a
# spectrum's columns keyed by output word (see the spectral form in
# ``boxes``), or a cell table's cells as the one column at word 0, indexed
# (x << n) | a.  Columns of different factors meet by ``_kron`` in either
# form.


_spectrum, _parties = attrgetter("spectrum"), attrgetter("n")


def _gather(indices: list):
    """``itemgetter(*indices)``, returning a tuple for one index too."""
    return itemgetter(*indices) if len(indices) > 1 else lambda vec, i=indices[0]: (vec[i],)


def _runs(gather, count: int, vec) -> list:
    """The sums of the runs of ``count`` entries that ``gather`` takes from ``vec``."""
    run = gather(vec)
    if count == 2:
        return list(map(add, run[::2], run[1::2]))
    return list(map(sum, zip(*[iter(run)] * count)))


def _signed(plus, minus, vec) -> list:
    """``plus(vec)`` less ``minus(vec)``, entry by entry."""
    return list(map(sub, plus(vec), minus(vec)))


def _summing(rows: list, members: list):
    """A callable that takes a vector to the sum of its entries r | c over
    ``members`` c at each of ``rows`` r: one gather, summed by runs."""
    gather = _gather([r | c for r in rows for c in members])
    return gather if len(members) == 1 else partial(_runs, gather, len(members))


@lru_cache(maxsize=256)
def _reduction(n: int, ends: tuple, cells: bool) -> tuple:
    """How an n-party factor is reduced over its consumed ``ends``
    (ascending, maybe none): (m, route, total, grades).  ``route`` maps each
    column word that is kept to its survivors' word in the total and in the
    graded part, None for a part it does not reach: a column whose word
    holds no consumed bit goes to the total, one that holds them all to the
    graded part, since summing the consumed outputs of a character leaves
    2**|ends| or its parity sign there and 0 elsewhere; a cell table's one
    column goes to both.  ``total`` sums a column's consumed entries at each
    survivor entry, and ``grades[k]`` those whose consumed inputs have
    popcount k, for cells signed by the consumed outputs' parity; each is a
    callable on a vector.  The common 2**|ends| of a spectrum is left out
    (``_contracted``)."""
    mask = sum(1 << (p - 1) for p in ends)
    here = [w for w in range(1 << n) if not w & mask]  # the survivors' words
    there = [w for w in range(1 << n) if w & mask == w]  # the consumed words
    if not ends:
        total, grades = tuple, [tuple]
    elif cells:
        rows = [x << n | a for x in here for a in here]
        members = [[[] for _ in range(len(ends) + 1)] for _ in (0, 1)]  # [parity][k]
        for xc, x in enumerate(there):
            for ac, a in enumerate(there):
                members[ac.bit_count() & 1][xc.bit_count()].append(x << n | a)
        total = _summing(rows, [x << n | a for x in there for a in there])
        grades = [partial(_signed, _summing(rows, even), _summing(rows, odd))
                  for even, odd in zip(*members)]
    else:
        members = [[] for _ in range(len(ends) + 1)]
        for xc, x in enumerate(there):
            members[xc.bit_count()].append(x)
        total, grades = _summing(here, there), [_summing(here, cls) for cls in members]
    if cells:
        route = {0: (0, 0)}
    else:
        keys = subwords(n, tuple(p for p in range(1, n + 1) if p not in ends))
        route = {w: (keys[w] if not w & mask else None, keys[w] if w & mask == mask else None)
                 for w in range(1 << n) if not w & mask or w & mask == mask}
    return n - len(ends), route, total, tuple(grades)


@lru_cache(maxsize=256)
def _joint_plan(kernel: tuple, sizes: tuple, consumed: tuple, cells: bool) -> tuple:
    """The plan of a joint of factors of ``sizes`` parties, lowest party
    slots first, with ``consumed`` (ascending) and read as ``cells`` or as
    columns: (m, each factor's reduction and survivor offset, the weights,
    the layout).  The weights meet the first factor's grades 0..K: for each
    s = 0..N - K, the row 2 * H(s + k) over k (see ``_contracted``).  For
    cells, ``layout`` gathers the cells of the product in (x << m) | a
    order from the ``_kron`` of the factors' survivor cells, None where the
    two orders agree."""
    parts, offset, m = [], 0, 0
    for n in sizes:
        reduction = _reduction(n, tuple([p - offset for p in consumed if offset < p <= offset + n]),
                               cells)
        parts.append((reduction, m))
        offset, m = offset + n, m + reduction[0]
    grades = len(parts[0][0][3])  # the first factor's
    weights = tuple([tuple([2 * h for h in kernel[s:s + grades]])
                     for s in range(len(kernel) - grades + 1)])
    layout = None
    if cells and len(parts) > 1:
        order = [0]  # the joint cell of each entry of the product, factor by factor
        for (fm, *_), low in parts:
            order = [joint | (c >> fm) << low + m | (c & (1 << fm) - 1) << low
                     for c in range(1 << 2 * fm) for joint in order]
        layout = [0] * len(order)
        for i, joint in enumerate(order):
            layout[joint] = i
        layout = None if order == sorted(order) else itemgetter(*layout)
    return m, tuple(parts), weights, layout


def _parts(columns: dict, reduction: tuple, low: int) -> tuple:
    """A factor's total and graded columns by its ``reduction``, each
    (word, (rats, surds)): the words placed at the factor's survivor offset
    ``low``, one vector per grade in ``rats`` and ``surds`` (None for no
    sqrt2 part), one grade in a total column."""
    _, route, total, grades = reduction
    totals, graded = [], []
    for word, (rat, surd) in columns.items():
        keys = route.get(word)
        if keys is None:
            continue
        if keys[0] is not None:
            totals.append((keys[0] << low, ([total(rat)], surd and [total(surd)])))
        if keys[1] is not None:
            graded.append((keys[1] << low, ([summed(rat) for summed in grades],
                                            surd and [summed(surd) for summed in grades])))
    return totals, graded


def _weighted(rows: tuple, grades: list) -> list:
    """For each row of weights, the sum of its weights times ``grades``,
    entry by entry."""
    qs = list(zip(*grades))
    if len(grades) == 2:
        return [[w0 * q0 + w1 * q1 for q0, q1 in qs] for w0, w1 in rows]
    if len(grades) == 3:
        return [[w0 * q0 + w1 * q1 + w2 * q2 for q0, q1, q2 in qs] for w0, w1, w2 in rows]
    return [[sum(map(mul, row, q)) for q in qs] for row in rows]


def _windows(rat: list, surd: list | None, rights: list) -> list:
    """Sums of ``_kron`` products over windows of grades: ``rights`` holds
    the K + 1 vectors that meet the grade vectors s..s + K of ``rat``, then,
    given ``surd``, the K + 1 that meet those of ``surd``.  At each s, the
    sum of ``_kron(u, v)`` over those pairs: u[i] * v[j] at index
    i + j * len(u), summed entry by entry."""
    if len(rights) == 1:
        v = rights[0]
        return [[p * q for q in v for p in u] for u in rat]
    k = len(rights) if surd is None else len(rights) // 2
    qs, out = list(zip(*rights)), []
    for s in range(len(rat) - k + 1):
        ps = list(zip(*rat[s:s + k]) if surd is None else zip(*rat[s:s + k], *surd[s:s + k]))
        if len(rights) == 2:
            out.append([p0 * q0 + p1 * q1 for q0, q1 in qs for p0, p1 in ps])
        elif len(rights) == 4:
            out.append([p0 * q0 + p1 * q1 + p2 * q2 + p3 * q3
                        for q0, q1, q2, q3 in qs for p0, p1, p2, p3 in ps])
        else:
            out.append([sum(map(mul, p, q)) for q in qs for p in ps])
    return out


def _graded(u: tuple, v: tuple) -> tuple:
    """The product of two graded columns (rats, surds), ``u`` in the low
    survivor slots and ``v`` of grades 0..K: at each s, the sum over k of
    u's grade s + k times v's grade k (``_windows``), so K grades fewer
    than ``u``.  In Q(sqrt2), (r + s*sqrt2)(r' + s'*sqrt2) =
    (r*r' + 2*s*s') + (r*s' + s*r')*sqrt2."""
    (ur, us), (vr, vs) = u, v
    if us is None:
        return _windows(ur, None, vr), vs and _windows(ur, None, vs)
    if vs is None:
        return _windows(ur, None, vr), _windows(us, None, vr)
    return (_windows(ur, us, vr + [list(map(add, q, q)) for q in vs]),
            _windows(ur, us, vs + vr))


def _contracted(coupler: CouplerEffect, joint: BoxTable, consumed: Sequence[int]) -> tuple:
    """(den, m, (t0, t1)): both branch tables of ``joint`` over its m
    survivors, over ``den``.  With ``total`` the product of the factors'
    totals and G_k the graded table of consumed-input popcount k of the
    product (the products of graded columns whose grades add up to k), the
    signed part is sum_k 2 * H(k) * G_k, t0 = total + signed and t1 =
    3 * total - t0 = 2 * total - signed.  The signed part is made factor by
    factor, Horner-like: the weights 2 * H(s) meet the first factor's
    grades, leaving one column per grade s the later factors still add,
    and so on (``_graded``), so each table is written once per grade.
    Cells come out as (rat, surd) pairs over ``coupler.den`` times the
    factors' dens; spectra as dicts of columns over 3 times theirs, as a
    spectrum's cells carry the 2**N that summing N consumed outputs of a
    character leaves, which cancels against the 2**N of
    ``coupler.den = 3 * 2**N``."""
    factors = joint.factors or (joint,)
    cells = None in map(_spectrum, factors)
    m, parts, weights, layout = _joint_plan(coupler.kernel, tuple(map(_parties, factors)),
                                            tuple(sorted(consumed)), cells)
    den, total = coupler.den if cells else 3, None
    for f, (reduction, low) in zip(factors, parts):
        f_den, columns = (f.den, {0: (f.rat, f.surd)}) if cells else f.spectrum
        den *= f_den
        totals, grades = _parts(columns, reduction, low)
        if total is None:
            total = totals
            graded = [(word, (_weighted(weights, rat), surd and _weighted(weights, surd)))
                      for word, (rat, surd) in grades]
            continue
        total = [(su | sv, _graded(cu, cv)) for sv, cv in totals for su, cu in total]
        graded = [(su | sv, _graded(gu, gv)) for sv, gv in grades for su, gu in graded]
    signed = {word: (rat, surd and surd[0]) for word, ((rat,), surd) in graded}
    t0, t1 = {}, {}
    for word, ((rat,), surd) in total:
        surd = surd and surd[0]
        s_rat, s_surd = signed.pop(word, (None, None))
        if s_rat is None:
            t0[word] = rat, surd
            t1[word] = list(map(add, rat, rat)), surd and list(map(add, surd, surd))
            continue
        if (surd is None) != (s_surd is None):  # the missing sqrt(2) part is zero
            surd, s_surd = surd or [0] * len(rat), s_surd or [0] * len(rat)
        t0[word] = list(map(add, rat, s_rat)), surd and list(map(add, surd, s_surd))
        t1[word] = (list(map(sub, map(add, rat, rat), s_rat)),
                    surd and list(map(sub, map(add, surd, surd), s_surd)))
    for word, (s_rat, s_surd) in signed.items():  # the words only the signed part has
        t0[word] = s_rat, s_surd
        t1[word] = list(map(neg, s_rat)), s_surd and list(map(neg, s_surd))
    if not cells:
        return den, m, (t0, t1)
    if layout is None:
        return den, m, (t0[0], t1[0])
    return den, m, tuple([(layout(rat), surd and layout(surd)) for rat, surd in (t0[0], t1[0])])


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


def _finished(den: int, m: int, tables: tuple) -> tuple:
    """Both BranchResults of ``apply_coupler`` from their tables over
    ``den``, branch 0's checks first: the mass check, the sign test
    (``spectral_negative`` on columns, ``first_negative`` on cells), then
    the division by the mass, whose positive sign lets the box record the
    sign verdict for validation to take."""
    results = []
    for branch, table in enumerate(tables):
        mass_r, mass_s = _mass(branch, table, m)
        sign = qsign(mass_r, mass_s)
        if sign < 0:
            raise CouplerInvalidError(branch)
        spectral = isinstance(table, dict)
        columns = table if spectral else {0: table}
        if not sign:
            if any([any(rat) or (surd and any(surd)) for rat, surd in columns.values()]):
                raise CouplerInvalidError(branch,
                                          f"branch {branch} has zero mass but nonzero entries")
            results.append(BranchResult(branch, ZERO, None))
            continue
        if spectral_negative(m, table) if spectral else first_negative(*table) is not None:
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
        results.append(BranchResult(branch, _reduced(mass_r, mass_s, den), box))
    return tuple(results)
