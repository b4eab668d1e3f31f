"""Joint probability tables for n-party boxes with binary inputs/outputs.

A box is the table P(outputs | inputs) for n parties, each holding one input
bit and one output bit.  Words pack party bits little-endian: party 1 is the
least significant bit, so for word strings (serialization, CLI) the rightmost
character belongs to party 1.  Cells are indexed by
``(input_word << n) | output_word``.

A table's cells are stored in common-denominator form: one positive integer
``den`` and two tuples of ``4**n`` integers, ``rat`` and ``surd``, so that
cell i is ``(rat[i] + surd[i]*sqrt(2)) / den``; a table without sqrt(2)
parts carries ``surd = None``.  The triple is reduced by the gcd of all its
integers, so it is canonical.  A table is built by ``from_numerators``,
``from_spectrum`` or ``from_json``.
The operations below work on these tuples in integer arithmetic, through
list slices and ``map``.  They reach single index bits only through
``_split``, whole words of a party subset through the cached ``subwords``
maps, and a column's input bits outside an output word through the cached
``_masked`` gathers; ``_outer`` lays out the tensor product, the one layout
written by hand.  ``Scalar`` values appear only at the edges: ``prob``,
``probs`` (built on first access) and JSON input; ``to_json`` (and the
CLI's ``writer``, as text) writes each distinct cell value once, straight
from its numerators, and shares it across the cells that hold it.

A table may hold its output spectrum instead of its cells (see "the
spectral form" below): for each output word S with a nonzero coefficient,
one column over the 2**n input words.  The isotropic family (``isotropic``,
``gsb``, ``pr``, ``sb``, ``mixed``, ``anti_pr``, ``failure``) is built this
way, two columns each, and so are the coupler's branch boxes on products of
such tables and every ``wired`` join and ``merge_parties`` result.
``validate``, the coupler and ``bell.evaluate`` read the columns; the first
read of ``den``, ``rat`` or ``surd`` (``to_json``, ``probs``, ``mix``,
``marginalize``) builds a spectral table's cells once, by the inverse
transform, and keeps them.  A table's value is its spectrum: ``==``,
``content_key``, ``wired`` and ``merge_parties`` read it through
``_spectrum``, which transforms a cell table forward (``_forward``), so no
comparison or key builds cells; a table keeps its key, and a cell table
compares by it.  One butterfly, ``_pattern_sums``, serves both transforms
(``_cells`` and ``_forward``) and, past a bound (``_bounded``), the sign
test of columns (``spectral_negative``); ``first_negative`` tests cells.

``tensor`` is lazy: it keeps its flattened ``factors`` and builds ``den``,
``rat`` and ``surd`` on first read, so a coupler can contract a product
factor by factor without ever writing it, and ``mix`` writes a product's
term from its factors and builds none of its cells; a product of spectral
tables also has a spectrum, the outer products of its factors' columns.
``wired`` joins two tables across any number of wirings between them
without their product: it equals ``merge_parties`` of their ``tensor``, pair
by pair, and is spectral, each column the product of a column of each
table that agree on the wired output bits.  ``merge_parties`` is the same
rule inside one table: it keeps the columns that agree on its two output
bits.  So a ring of boxes folds on columns alone, and so does a wiring
inside a pool.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import chain, repeat
from math import gcd, lcm, prod
from operator import add, iadd, itemgetter, mul, sub
from typing import Iterable, Sequence

from .errors import ArityError, PartyCapError, SpecFileError, ValidationError, SignalingError
from .fileio import json_positive_int
from .scalar import ONE, ZERO, Scalar, _reduced, common_form, qsign, reduce_form, scalar_json

PARTY_CAP = 10
WORD_ORDER = "party1-lsb"


def word_to_str(word: int, n: int) -> str:
    return format(word, f"0{n}b")


def str_to_word(text: str, n: int) -> int:
    if not isinstance(text, str) or len(text) != n or set(text) - {"0", "1"}:
        raise SpecFileError(f"expected a binary word of length {n}, got {text!r}")
    return int(text, 2)


@lru_cache(maxsize=256)
def subwords(n: int, parties: tuple) -> tuple:
    """For every n-bit word, the word formed by the bits of ``parties``:
    bit i of entry w is party ``parties[i]``'s bit of w."""
    out = [0] * 2**n
    for i, party in enumerate(parties):
        bit = 1 << (party - 1)
        for w in range(2**n):
            if w & bit:
                out[w] |= 1 << i
    return tuple(out)


def row_sums(vec: Sequence[int], n: int) -> list:
    """Sum of each input word's row of an n-party numerator vector."""
    width = 2**n
    return [sum(vec[i:i + width]) for i in range(0, len(vec), width)]


def _cleared(rat: Sequence[int], surd: Sequence[int] | None) -> bool:
    """True if two minima show that no ``rat + surd*sqrt(2)`` is negative
    (see ``first_negative``); False tells nothing."""
    low = min(rat)
    s_low = 0 if surd is None else min(surd)
    return low >= 0 and (s_low >= 0 or low * low > 2 * s_low * s_low)


def first_negative(rat: Sequence[int], surd: Sequence[int] | None) -> int | None:
    """Index of the first cell whose ``rat + surd*sqrt(2)`` is negative.

    Two minima settle most tables before any cell is read.  Let ``low`` be
    the least rational numerator and ``s_low`` the least sqrt(2) numerator
    (0 without one).  If ``low >= 0`` and either ``s_low >= 0`` or
    ``low**2 > 2*s_low**2``, no cell is negative, exactly: every r is at
    least ``low >= 0``, and every s < 0 has 2*s**2 <= 2*s_low**2 < low**2
    <= r**2, so r > |s|*sqrt(2).  Otherwise each cell's sign is tested."""
    if _cleared(rat, surd):
        return None
    cells = enumerate(zip(rat, surd or repeat(0)))
    return next((i for i, (r, s) in cells if qsign(r, s) < 0), None)


def _written_form(value) -> tuple | None:
    """The four strings of a JSON scalar in the form ``scalar_json`` writes,
    ``{"r": [str, str], "s": [str, str]}``, as a hashable key; None for any
    other value, which ``Scalar.from_json`` then reads on its own."""
    if type(value) is dict and len(value) == 2:
        r, s = value.get("r"), value.get("s")
        if type(r) is list and type(s) is list and len(r) == len(s) == 2:
            (a, b), (c, d) = r, s
            if type(a) is type(b) is type(c) is type(d) is str:
                return a, b, c, d
    return None


class BoxTable:
    """Immutable table; see the module docstring for the layout.

    ``factors`` is None for a built table; for a ``tensor`` product it is
    the tuple of built tables whose product it is, lowest party slots first,
    and ``den``, ``rat`` and ``surd`` are built from it on first read.
    ``spectrum`` is ``(den, columns)`` for a spectral table (see
    ``from_spectrum``), None for a table built from its cells, and for a
    product, the product of its factors' spectra if each has one.
    ``_nonnegative`` is True once a sign test has cleared the cells (set
    only on a coupler's branch boxes and on ``wired`` joins of such boxes),
    and ``validate`` takes it as it is; None otherwise.  ``_key`` is the
    ``content_key`` once it is made, None before."""

    __slots__ = ("n", "factors", "spectrum", "den", "rat", "surd", "_probs", "_nonnegative",
                 "_key")

    @classmethod
    def from_numerators(cls, n: int, den: int, rat, surd=None) -> "BoxTable":
        """The table with cells ``(rat[i] + surd[i]*sqrt(2)) / den``, ``den > 0``."""
        self = object.__new__(cls)
        self.n, self.factors, self.spectrum = n, None, None
        self.den, self.rat, self.surd = reduce_form(den, rat, surd)
        self._probs = self._key = None
        return self

    @classmethod
    def from_spectrum(cls, n: int, den: int, columns: dict) -> "BoxTable":
        """The spectral table whose cell (x, a) is
        ``sum_S (-1)**popcount(a & S) * (rat_S[x] + surd_S[x]*sqrt(2)) / den``
        over the ``columns`` ``{S: (rat_S, surd_S)}``, ``den > 0``, each
        column 2**n integers long (surd None for none).  Its cells are built
        on first read."""
        return _spectral(n, _reduced_spectrum(den, columns))

    def __getattr__(self, name):
        # only reached while a slot is unset: the spectrum of a lazy product,
        # den, rat, surd of a lazy product or a spectral table, and a sign
        # verdict that none has recorded
        if name == "_nonnegative":
            return None
        if name == "spectrum" and self.factors is not None:
            self.spectrum = _product_spectrum(self.factors)
            return self.spectrum
        if name not in ("den", "rat", "surd"):
            raise AttributeError(name)
        if self.factors is not None:
            self.den, self.rat, self.surd = _product(self.factors)
        else:
            self.den, self.rat, self.surd = _cells(self.n, self.spectrum)
        return getattr(self, name)

    @property
    def probs(self) -> tuple:
        """Every cell as a Scalar, in index order; built on first access."""
        if self._probs is None:
            den = self.den
            cells = zip(self.rat, self.surd or repeat(0))
            self._probs = tuple([_reduced(r, s, den) if r or s else ZERO for r, s in cells])
        return self._probs

    def prob(self, input_word: int, output_word: int) -> Scalar:
        return self.probs[(input_word << self.n) | output_word]

    def entries(self):
        """Yield (input_word, output_word, value) for every cell."""
        n, probs = self.n, self.probs
        for x in range(2**n):
            base = x << n
            for a in range(2**n):
                yield x, a, probs[base | a]

    def __eq__(self, other):
        """Equal value: the same n and the same canonical spectrum, whichever
        form each table is held in; a cell table compares by its kept key."""
        if not isinstance(other, BoxTable):
            return NotImplemented
        if self.spectrum is None or other.spectrum is None:
            return self.content_key() == other.content_key()
        return self.n == other.n and self.spectrum == other.spectrum

    def __hash__(self):
        """The hash of the kept ``content_key``, so equal tables, in either
        form, hash equal."""
        return hash(self.content_key())

    def content_key(self) -> tuple:
        """A hashable key of the table's value, ``(n, den, columns)`` of its
        spectrum (``_spectrum``) in either form, made once: tables have
        equal keys exactly when they are equal."""
        if self._key is None:
            den, columns = _spectrum(self)
            self._key = self.n, den, frozenset(columns.items())
        return self._key

    def __repr__(self):
        return f"BoxTable(n={self.n})"

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        """The box document.  Its 2**n word strings are built once, and cells
        of one value share one ``scalar_json`` object."""
        n, den, mask = self.n, self.den, 2**self.n - 1
        words = [word_to_str(w, n) for w in range(2**n)]
        values: dict = {}
        probs = []
        for i, cell in enumerate(zip(self.rat, self.surd or repeat(0))):
            if cell[0] or cell[1]:
                value = values.get(cell)
                if value is None:
                    value = values[cell] = scalar_json(*cell, den)
                probs.append([words[i >> n], words[i & mask], value])
        return {"n": n, "order": WORD_ORDER, "probs": probs}

    @classmethod
    def from_json(cls, data) -> "BoxTable":
        if not isinstance(data, dict):
            raise SpecFileError("box document must be a JSON object")
        extra = set(data) - {"n", "order", "probs"}
        if extra:
            raise SpecFileError(f"box document has unknown keys {sorted(extra)}")
        n = json_positive_int(data.get("n"), "box document 'n'")
        if n > PARTY_CAP:
            raise SpecFileError(f"box document has n={n} parties; the cap is {PARTY_CAP}")
        if data.get("order") != WORD_ORDER:
            raise SpecFileError(f"box document must declare order {WORD_ORDER!r}")
        items = data.get("probs", [])
        if not isinstance(items, list):
            raise SpecFileError(f"box document 'probs' must be a list, got {items!r}")
        cells, parsed = {}, {}
        words = {word_to_str(w, n): w for w in range(2**n)}
        for item in items:
            if not isinstance(item, (list, tuple)) or len(item) != 3:
                raise SpecFileError(f"box entry must be [inputs, outputs, scalar]: {item!r}")
            try:
                index = (words[item[0]] << n) | words[item[1]]
            except (KeyError, TypeError):  # str_to_word says what is wrong
                index = (str_to_word(item[0], n) << n) | str_to_word(item[1], n)
            if index in cells:
                raise SpecFileError(f"duplicate box entry for inputs={item[0]} outputs={item[1]}")
            key = _written_form(item[2])
            if key is None:
                cells[index] = Scalar.from_json(item[2])
            else:  # each distinct value as the writer writes it is parsed once
                value = parsed.get(key)
                if value is None:
                    value = parsed[key] = Scalar.from_json(item[2])
                cells[index] = value
        # the listed cells share their reduced form with the whole table
        den, rat, surd = common_form(list(cells.values()))
        table = [[0] * 4**n, [0] * 4**n]
        for index, r, s in zip(cells, rat, surd or repeat(0)):
            table[0][index], table[1][index] = r, s
        return cls.from_numerators(n, den, *table)


# -- named constructors ----------------------------------------------------


def _check_cap(n: int) -> None:
    if n > PARTY_CAP:
        raise PartyCapError(
            f"n={n} parties means 4**{n} exact entries; the cap is {PARTY_CAP}. "
            "Marginalize earlier."
        )


@lru_cache(maxsize=None)
def _gsb_signs(n: int):
    """The gsb sign pattern of the n-bit input words as one gather: an
    ``itemgetter`` that takes entry C(popcount(x), 2) & 1, the parity of the
    pairwise products of x's bits, of a pair for every input word x, so
    ``_gsb_signs(n)((v, -v))`` is v * (-1)**C(popcount(x), 2) at each x."""
    return itemgetter(*[(x.bit_count() * (x.bit_count() - 1) // 2) & 1 for x in range(2**n)])


def _isotropic(family: str, n: int, xi: Scalar) -> BoxTable:
    """The spectral table of ``isotropic(n, xi)``.  With xi = (p + q*sqrt2)/d
    its cell (x, a) is (d + (-1)**(popcount(a) + C(popcount(x), 2)) * xi*d)
    / (d * 2**n): the empty-set column d and the full-set column xi*d times
    the gsb sign of x, over d * 2**n.  The full-set column is one gather of
    (p, -p), and of (q, -q) for a sqrt(2) part, by the sign pattern."""
    if n < 2:
        raise ArityError(f"{family} needs n >= 2")
    _check_cap(n)
    p, q, d = xi.r, xi.s, xi.d
    signs = _gsb_signs(n)
    columns = {0: ((d,) * 2**n, None)}
    if p or q:
        columns[2**n - 1] = signs((p, -p)), signs((q, -q)) if q else None
    # canonical as it stands: gcd(d * 2**n, d, p, q) = gcd(p, q, d) = 1
    return _spectral(n, (d << n, columns))


@lru_cache(maxsize=None)
def gsb(n: int) -> BoxTable:
    """Generalized Svetlichny box: outputs XOR to the pairwise-product parity
    of the inputs, uniformly over the 2**(n-1) output words that comply;
    ``isotropic(n, 1)``.

    Tables are immutable, so the named constructors cache and share them."""
    return _isotropic("gsb", n, ONE)


def pr() -> BoxTable:
    return gsb(2)


def sb() -> BoxTable:
    return gsb(3)


@lru_cache(maxsize=None)
def anti_pr() -> BoxTable:
    return isotropic(2, -1)


@lru_cache(maxsize=None)
def mixed(n: int) -> BoxTable:
    """The fully mixed box, uniform over all outputs: ``isotropic(n, 0)``."""
    return _isotropic("mixed", n, ZERO)


def isotropic(n: int, xi) -> BoxTable:
    """Convex-affine slide between gsb(n) (xi=1) and the fully mixed box (xi=0).

    The box holds two values: (1 + xi)/2**n where gsb(n) has a 1 and
    (1 - xi)/2**n elsewhere, both nonnegative for |xi| <= 1.  It is a
    spectral table of two columns (see ``_isotropic``)."""
    xi = xi if isinstance(xi, Scalar) else Scalar(xi)
    # -1 <= xi <= 1 by two signs: of 1 + xi and of 1 - xi, both over xi.d > 0
    if qsign(xi.d + xi.r, xi.s) < 0 or qsign(xi.d - xi.r, -xi.s) < 0:
        raise ValidationError(f"isotropic weight must lie in [-1, 1], got {xi}")
    return _isotropic("isotropic", n, xi)


@lru_cache(maxsize=None)
def failure(n: int) -> BoxTable:
    """The box left behind by an unsuccessful swap: (3*mixed - gsb)/2, which
    is ``isotropic(n, -1/2)``."""
    return _isotropic("failure", n, Scalar.rational(-1, 2))


def deterministic_local(assignments: Iterable[tuple]) -> BoxTable:
    """Deterministic local box: party i outputs ``c ^ (m & x_i)`` for its
    assignment pair ``(c, m)``.  The 4**n such boxes for fixed n are the
    vertices of the local deterministic polytope with binary strategies."""
    assignments = [(c & 1, m & 1) for c, m in assignments]
    n = len(assignments)
    if n < 1:
        raise ArityError("deterministic_local needs at least one party")
    _check_cap(n)
    # party i alone outputs c at input 0 and c ^ m at input 1
    parties = [BoxTable.from_numerators(1, 1, (1 - c, c, 1 - (c ^ m), c ^ m))
               for c, m in assignments]
    return BoxTable.from_numerators(n, *_product(parties))


_NAMED = {
    "pr": (pr, False),
    "anti_pr": (anti_pr, False),
    "sb": (sb, False),
    "mixed": (mixed, True),
    "gsb": (gsb, True),
    "failure": (failure, True),
}


def named_box(kind: str, n: int | None = None, xi=None) -> BoxTable:
    """Build one of the named families: pr, anti_pr, sb, mixed, gsb, failure,
    isotropic.  ``n`` is required for the sized families, ``xi`` only for
    isotropic."""
    if kind == "isotropic":
        if n is None or xi is None:
            raise ArityError("isotropic needs both n and xi")
        return isotropic(n, xi)
    if kind not in _NAMED:
        raise ArityError(f"unknown box kind {kind!r}; expected one of "
                         f"{sorted(_NAMED) + ['isotropic']}")
    if xi is not None:
        raise ArityError(f"box kind {kind!r} takes no xi")
    fn, sized = _NAMED[kind]
    fixed = {"pr": 2, "anti_pr": 2, "sb": 3}.get(kind)
    if sized:
        if n is None:
            raise ArityError(f"box kind {kind!r} needs n")
        return fn(n)
    if n is not None and n != fixed:
        raise ArityError(f"box kind {kind!r} is fixed at n={fixed}, got n={n}")
    return fn()


# -- operations -------------------------------------------------------------
#
# Each operation works on the numerator tuples only.  A product of two cells
# follows (r + s*sqrt2)(r' + s'*sqrt2) = (r*r' + 2*s*s') + (r*s' + s*r')*sqrt2.
# ``mix`` adds each term into one sum in one pass, a lazy product's as its
# weighted first factor carried through ``_outer_product``, the unreduced
# loop of ``_product``, so the product is neither built nor reduced.


def _scaled(vec: Sequence[int] | None, k: int) -> Sequence[int] | None:
    return vec if vec is None or k == 1 else [k * v for v in vec]


def _combined(acc: list | None, a: int, u: Sequence[int], b: int, v: Sequence[int] | None):
    """``acc + a*u + b*v`` elementwise, in one pass; a term whose
    coefficient is 0 or whose vector is None is left out, and so is ``acc``
    when None.  None if nothing is left."""
    if not b or v is None:
        if not a:
            return acc
        return [a * x for x in u] if acc is None else [y + a * x for y, x in zip(acc, u)]
    if not a:
        return _combined(acc, b, v, 0, None)
    if acc is None:
        return [a * x + b * z for x, z in zip(u, v)]
    return [y + a * x + b * z for y, x, z in zip(acc, u, v)]


def mix(terms: Iterable[tuple]) -> BoxTable:
    """Affine combination of same-arity tables.

    Weights must sum to one exactly.  Negative weights are fine as long as
    the result stays nonnegative.  Each term is added into one sum of
    numerators in one pass; a lazy product's term is written from its
    factors (the weight scales the first, ``_outer_product`` the rest), so
    none of its cells is built.
    """
    terms = [(w if isinstance(w, Scalar) else Scalar(w), box) for w, box in terms]
    if not terms:
        raise ValidationError("mix of nothing")
    n = terms[0][1].n
    if any(box.n != n for _, box in terms):
        raise ArityError("mix needs tables over the same parties")
    total = ZERO
    for w, _ in terms:
        total = total + w
    if total != ONE:
        raise ValidationError(f"mix weights must sum to 1, got {total}")
    # weight (p + q*sqrt2)/wden on a table over its den (a lazy product's
    # unreduced den is the product of its factors'), all over one den
    parts = []
    for w, box in terms:
        if w.r or w.s:
            factors = box.factors
            parts.append((w, box, factors, w.d * (
                box.den if factors is None else prod([f.den for f in factors]))))
    den = lcm(*[d for *_, d in parts])
    rat = surd = None
    for w, box, factors, d in parts:
        k = den // d
        p, q = w.r * k, w.s * k
        # (p + q*sqrt2)(r + s*sqrt2) = (p*r + 2q*s) + (q*r + p*s)*sqrt2
        if factors is None:
            r, s = box.rat, box.surd
            rat = _combined(rat, p, r, 2 * q, s)
            if q or s is not None:
                surd = _combined(surd, q, r, p, s)
            continue
        first = factors[0]
        r, s = first.rat, first.surd
        # the weighted first factor; its rational part is all zero (None)
        # only for a weight with no rational part on a factor without sqrt2
        head = _combined(None, p, r, 2 * q, s) or [0] * len(r), _combined(None, q, r, p, s)
        term_rat, term_surd = _outer_product(first.n, head, factors[1:])
        rat = term_rat if rat is None else list(map(add, rat, term_rat))
        if term_surd is not None:
            surd = term_surd if surd is None else list(map(add, surd, term_surd))
    i = first_negative(rat, surd)
    if i is not None:
        raise ValidationError(f"mix produced a negative entry at index {i}")
    return BoxTable.from_numerators(n, den, rat, surd)


def _outer(u: Sequence[int], v: Sequence[int], nu: int, nv: int) -> list:
    """Products u[i] * v[j] laid out as the tensor of a ``nu``-party table ``u``
    (low party slots) and an ``nv``-party table ``v``, in index order."""
    rows_u = [u[x << nu:(x + 1) << nu] for x in range(1 << nu)]
    rows_v = [v[x << nv:(x + 1) << nv] for x in range(1 << nv)]
    return [p * q for row_v in rows_v for row_u in rows_u for q in row_v for p in row_u]


def _pair_product(u: tuple, v: tuple, outer) -> tuple:
    """``outer`` of two (rat, surd) numerator pairs, surd None for none:
    (r + s*sqrt2)(r' + s'*sqrt2) = (r*r' + 2*s*s') + (r*s' + s*r')*sqrt2."""
    (ur, us), (vr, vs) = u, v
    rat = outer(ur, vr)
    if us is None:
        return rat, None if vs is None else outer(ur, vs)
    if vs is None:
        return rat, outer(us, vr)
    rat = list(map(add, rat, outer(us, [2 * q for q in vs])))
    return rat, list(map(add, outer(ur, vs), outer(us, vr)))


def _outer_product(n: int, pair: tuple, factors: Sequence[BoxTable]) -> tuple:
    """The unreduced (rat, surd) numerators of the product of an ``n``-party
    numerator pair, in the low party slots, and the built tables
    ``factors``; the product's den is the product of theirs."""
    for f in factors:
        pair = _pair_product(pair, (f.rat, f.surd), lambda u, v: _outer(u, v, n, f.n))
        n += f.n
    return pair


def _product(factors: Sequence[BoxTable]) -> tuple:
    """The reduced (den, rat, surd) of the product of built tables, the
    first in the low party slots."""
    first = factors[0]
    pair = _outer_product(first.n, (first.rat, first.surd), factors[1:])
    return reduce_form(prod([f.den for f in factors]), *pair)


def tensor(a: BoxTable, b: BoxTable) -> BoxTable:
    """Independent side-by-side composition; ``a`` keeps the low party slots.
    The product is lazy: see the module docstring."""
    n = a.n + b.n
    _check_cap(n)
    self = object.__new__(BoxTable)
    self.n, self.factors = n, (a.factors or (a,)) + (b.factors or (b,))
    self._probs = self._key = None
    return self


# -- the spectral form ----------------------------------------------------
#
# The output spectrum of a row x is the Walsh-Hadamard transform of its
# cells over the output bits: c_S(x) = sum_a (-1)**popcount(a & S) * P(a|x).
# A spectral table keeps, for each output word S whose coefficient is
# nonzero at some x, the column of numerators col_S over the 2**n input
# words, scaled so that cell (x, a) = sum_S (-1)**popcount(a & S) *
# col_S[x] / den; c_S(x) is then 2**n * col_S[x] / den.  Columns are
# (rat, surd) pairs, surd None for none, held in a dict keyed by S; the
# ``(den, columns)`` pair is reduced like the cells (``_reduced_spectrum``),
# so it is canonical and two tables are equal exactly when their pairs
# are.  In this domain a row's mass is 2**n times its empty-set column, a
# party's input is free exactly when every column without the party's
# output bit is the same at both of its inputs, and the correlator at x is
# 2**n times the full-set column.


@lru_cache(maxsize=256)
def _character(n: int, word: int) -> tuple:
    """(-1)**popcount(a & word) for every n-bit output word a."""
    return tuple(-1 if (a & word).bit_count() & 1 else 1 for a in range(2**n))


def _spectral(n: int, spectrum: tuple) -> BoxTable:
    """The table of a canonical ``(den, columns)`` spectrum."""
    self = object.__new__(BoxTable)
    self.n, self.factors, self.spectrum, self._probs, self._key = n, None, spectrum, None, None
    return self


def _reduced_spectrum(den: int, columns: dict) -> tuple:
    """The canonical ``(den, columns)``: no all-zero column, surd None where
    it is all zero, every integer divided by the gcd of them all, which
    takes one ``gcd`` per column."""
    kept, g = {}, den
    for word, (rat, surd) in columns.items():
        if surd is not None and not any(surd):
            surd = None
        if surd is not None or any(rat):
            kept[word] = rat, surd
            g = gcd(g, *rat, *(surd or ()))
    if g == 1:
        return den, {w: (tuple(r), s and tuple(s)) for w, (r, s) in kept.items()}
    return den // g, {w: (tuple([v // g for v in r]), s and tuple([v // g for v in s]))
                      for w, (r, s) in kept.items()}


def _cells(n: int, spectrum: tuple) -> tuple:
    """The reduced (den, rat, surd) of a spectral table's cells: row x's
    cell at output a is its pattern sum (``_pattern_sums``) at a's pattern."""
    den, columns = spectrum
    gather, *sums = _pattern_sums(n, columns)
    return reduce_form(den, *(vec and list(chain.from_iterable(map(gather, zip(*vec))))
                              for vec in sums))


def _kron(u: Sequence[int], v: Sequence[int]) -> list:
    """Products u[i] * v[j] at index i + j * len(u): two columns over the
    input words of a low and a high block of parties."""
    return [p * q for q in v for p in u]


def _spectral_outer(u: dict, v: dict, nu: int) -> dict:
    """The columns of the product of two spectral tables, the ``nu``-party
    ``u`` in the low party slots: one column per pair of columns."""
    return {su | sv << nu: _pair_product(cu, cv, _kron)
            for su, cu in u.items() for sv, cv in v.items()}


def _product_spectrum(factors: Sequence[BoxTable]) -> tuple | None:
    """The reduced spectrum of a product of built tables, or None unless
    every factor is spectral."""
    spectra = [f.spectrum for f in factors]
    if any(spectrum is None for spectrum in spectra):
        return None
    (den, columns), n = spectra[0], factors[0].n
    for f, (f_den, f_columns) in zip(factors[1:], spectra[1:]):
        columns, den, n = _spectral_outer(columns, f_columns, n), den * f_den, n + f.n
    return _reduced_spectrum(den, columns)


@lru_cache(maxsize=256)
def _patterns(n: int, words: frozenset) -> tuple:
    """The sign patterns of the span of ``words`` over GF(2), of dimension
    d, on a basis b_1..b_d in which b_i alone has bit t_i set: a word S of
    the span is sum_i (bit t_i of S) * b_i, so with its coordinates c, its
    bits at t_1..t_d, and an output word a's pattern p, the parities of
    a & b_i, (-1)**popcount(a & S) is (-1)**popcount(p & c).  Returns d,
    each word's coordinates, and an ``itemgetter`` of each output's pattern."""
    basis: dict = {}  # t_i -> b_i
    for w in words:
        for top, b in basis.items():
            if w >> top & 1:
                w ^= b
        if w:
            top = w.bit_length() - 1
            basis = {t: b ^ w if b >> top & 1 else b for t, b in basis.items()}
            basis[top] = w
    tops = sorted(basis)
    coordinates = {w: sum((w >> t & 1) << i for i, t in enumerate(tops)) for w in words}
    patterns = [sum(((a & basis[t]).bit_count() & 1) << i for i, t in enumerate(tops))
                for a in range(2**n)]
    return len(tops), coordinates, itemgetter(*patterns)


def _pattern_sums(n: int, columns: dict) -> tuple:
    """The gather of ``_patterns``, and the unreduced (rat, surd) pattern
    sums, surd None for none: for each pattern p of the d pattern bits, the
    vector over the input words x of sum_S (-1)**popcount(p & c_S) *
    col_S[x], by one butterfly over the d bits of vectors placed at their
    columns' coordinates c_S."""
    d, coordinates, gather = _patterns(n, frozenset(columns))
    zero = (0,) * (1 << n)
    rat = [zero] * (1 << d)
    surd = None if all([s is None for _, s in columns.values()]) else [zero] * (1 << d)
    for word, (r, s) in columns.items():
        rat[coordinates[word]] = r
        if s is not None:
            surd[coordinates[word]] = s
    for sums in (rat, surd) if surd else (rat,):
        for bit in range(d):
            for c in range(1 << d):
                if c >> bit & 1:  # pair each pattern with the one without ``bit``
                    lo, hi = sums[c ^ 1 << bit], sums[c]
                    sums[c ^ 1 << bit], sums[c] = list(map(add, lo, hi)), list(map(sub, lo, hi))
    return gather, rat, surd


def _bounded(columns: dict) -> bool:
    """True if a bound clears every cell of a spectral table's ``columns``.
    A cell is the empty-set column plus or minus each other column, and
    |r + s*sqrt2| <= |r| + |s|*sqrt2, so every cell is at least
    low + s_low*sqrt2: ``low`` the least rational part of the empty-set
    column less the largest |r| of each other column, ``s_low`` the same of
    the sqrt2 parts.  Two minima (``_cleared``) settle its sign."""
    if 0 not in columns:
        return False
    rat, surd = columns[0]
    low, s_low = min(rat), min(surd) if surd else 0
    for word, (r, s) in columns.items():
        if word:
            low, s_low = low - max(map(abs, r)), s_low - (max(map(abs, s)) if s else 0)
    return _cleared((low,), (s_low,))


def spectral_negative(n: int, columns: dict) -> bool:
    """True iff some cell of the n-party spectral table with ``columns`` is
    negative.  A bound on the columns settles most tables (``_bounded``);
    otherwise every row's distinct cells are its pattern sums, which
    ``first_negative`` reads as one list per part, joined by extension."""
    if _bounded(columns):
        return False
    _, rat, surd = _pattern_sums(n, columns)
    return first_negative(reduce(iadd, rat, []), surd and reduce(iadd, surd, [])) is not None


def _split(vec: Sequence[int], bit: int) -> tuple[list, list]:
    """The cells of ``vec`` whose index has ``bit`` clear, and those with it
    set, each in index order with that bit removed: strided slices while
    the bit is low, runs of 2**bit cells once it is high."""
    step, size = 1 << bit, len(vec)
    half = size >> 1
    if step * step <= half:
        lo, hi = [0] * half, [0] * half
        for r in range(step):
            lo[r::step] = vec[r::2 * step]
            hi[r::step] = vec[r + step::2 * step]
    else:
        lo, hi = [], []
        for start in range(0, size, 2 * step):
            lo += vec[start:start + step]
            hi += vec[start + step:start + 2 * step]
    return lo, hi


@lru_cache(maxsize=64)
def _join_plan(na: int, nb: int, pairs: tuple) -> tuple:
    """The index plan of ``wired`` for sorted ``pairs``: the result's party
    count m; an ``itemgetter`` that lays a column over ``b``'s input words
    out over the result's (the word of ``b`` a result word holds: wired
    party j at the word's bit i - 1, the rest of ``b`` at its bits from
    ``na`` up, in order); the wired bits of each word of ``a`` and of ``b``,
    in pair order; and for each word of ``b``, its unwired bits at their
    place in the result."""
    m = na + nb - len(pairs)
    source = {j: i for i, j in pairs}  # b's party -> the result's party
    rest = iter(range(na + 1, m + 1))
    words = subwords(m, tuple(source.get(q) or next(rest) for q in range(1, nb + 1)))
    free = tuple(q for q in range(1, nb + 1) if q not in source)
    return (m, itemgetter(*words), subwords(na, tuple(i for i, _ in pairs)),
            subwords(nb, tuple(j for _, j in pairs)), [w << na for w in subwords(nb, free)])


def _spectrum(box: BoxTable) -> tuple:
    """The canonical ``(den, columns)`` of a table in either form: the
    spectrum it holds, or the ``_forward`` transform of its cells."""
    spectrum = box.spectrum
    return spectrum if spectrum is not None else _forward(box)


def _forward(box: BoxTable) -> tuple:
    """The reduced spectrum of a table read from its cells: the cells at
    each output word a, ``rat[a::2**n]``, are the columns of ``_pattern_sums``
    over all 2**n words, so the pattern sum at S's pattern, read through
    the gather it returns, is den * c_S(x): column S over ``den * 2**n``."""
    n, rat, surd, width = box.n, box.rat, box.surd, 1 << box.n
    gather, *sums = _pattern_sums(n, {a: (rat[a::width], surd and surd[a::width])
                                      for a in range(width)})
    rat, surd = (vec and gather(vec) for vec in sums)
    return _reduced_spectrum(box.den << n, dict(enumerate(zip(rat, surd or repeat(None)))))


def _check_pairs(na: int, nb: int, pairs: tuple) -> None:
    if not pairs:
        raise ArityError("a wiring between two tables needs at least one pair")
    for i, j in pairs:
        if not (1 <= i <= na and 1 <= j <= nb):
            raise ArityError(
                f"wiring needs a party of each table, got {i} of {na} and {j} of {nb}")
    for side in (0, 1):
        ends = [p[side] for p in pairs]
        if len(set(ends)) != len(ends):
            raise ArityError(f"wiring pairs {list(pairs)} use one party twice")


def wired(a: BoxTable, b: BoxTable, pairs: Iterable[tuple]) -> BoxTable:
    """Wire party i of ``a`` to party j of ``b`` for every ``(i, j)`` in
    ``pairs``, without writing their product.  Each merged party sits at its
    slot in ``a``; the wired parties of ``b`` drop out and the rest of ``b``
    follows in order.  The result equals ``merge_parties`` of
    ``tensor(a, b)`` applied pair by pair, and it is a spectral table.

    A merged output bit is the XOR of the two wired bits, so the result's
    coefficient at an output word T is a's coefficient at T's bits in
    ``a`` times b's at the word with T's merged bits at b's wired parties.
    So each pair of columns, S of ``a`` and T of ``b``, whose bits agree on
    every wired party is one column of the result: their product at the
    joined input word (``_join_plan``), times 2**k for the k output bits
    the product no longer counts twice; a pair that disagrees cancels.  A
    table held as cells enters through ``_spectrum``, and the result's
    cells are built only if something reads them."""
    pairs = tuple(sorted(pairs))
    na, nb, k = a.n, b.n, len(pairs)
    _check_pairs(na, nb, pairs)
    _check_cap(na + nb - k)
    m, gather, key_a, key_b, placed = _join_plan(na, nb, pairs)
    (den_a, cols_a), (den_b, cols_b) = _spectrum(a), _spectrum(b)
    g = gcd(den_a * den_b, 1 << k)
    den, scale, rep = den_a * den_b // g, (1 << k) // g, 1 << (m - na)
    by_key: dict = {}
    for word, pair in cols_b.items():
        by_key.setdefault(key_b[word], []).append((placed[word], pair))

    def outer(u, v):
        # the result's input word x reads u at its low na bits, which cycle
        return list(map(mul, u * rep, gather(v)))

    columns = {}
    for word, (rat, surd) in cols_a.items():
        matches = by_key.get(key_a[word])
        if matches:
            pair = _scaled(rat, scale), _scaled(surd, scale)
            for top, other in matches:
                columns[word | top] = _pair_product(pair, other, outer)
    box = _spectral(m, _reduced_spectrum(den, columns))
    # a cell of the join is a sum of products of a cell of each
    box._nonnegative = True if a._nonnegative and b._nonnegative else None
    return box


def _traced(vec: Sequence[int], m: int, dropped: tuple) -> list:
    """The marginals of a numerator vector on its m parties not in the
    ascending ``dropped``, in ascending party order, at every input
    assignment of ``dropped`` (bit i of the assignment is dropped[i]'s input)."""
    for party in reversed(dropped):  # the dropped outputs, highest first
        vec = list(map(add, *_split(vec, party - 1)))
    parts = [vec]  # then their inputs, party p's now at bit m + p - 1
    for party in reversed(dropped):
        parts = [half for part in parts for half in _split(part, m + party - 1)]
    return parts


def marginalize(box: BoxTable, keep: Sequence[int]) -> BoxTable:
    """Trace out every party not in ``keep`` (result party k is keep[k-1],
    so this doubles as a permutation when ``keep`` lists all parties).

    For a nonsignaling table the discarded parties' inputs cannot matter;
    that is checked exactly, and a violation raises SignalingError naming a
    party whose input shifts the marginal.
    """
    keep = tuple(keep)
    if not keep or len(set(keep)) != len(keep):
        raise ArityError(f"keep must list distinct parties, got {list(keep)}")
    if any(p < 1 or p > box.n for p in keep):
        raise ArityError(f"keep={list(keep)} out of range for n={box.n}")
    m = len(keep)
    dropped = tuple(p for p in range(1, box.n + 1) if p not in keep)
    rat, surd = (vec and _traced(vec, m, dropped) for vec in (box.rat, box.surd))
    tables = list(zip(rat, surd or repeat(None)))
    for assign in range(len(tables)):
        for i, party in enumerate(dropped):
            if tables[assign] != tables[assign ^ (1 << i)]:
                raise SignalingError(party)
    rat, surd = tables[0]
    ascending = tuple(sorted(keep))
    if keep != ascending:
        # the result's row w is the ascending row words[w], its cells reordered
        words = subwords(m, tuple(keep.index(p) + 1 for p in ascending))
        gather, width = itemgetter(*words), 1 << m
        rat, surd = (vec and list(chain.from_iterable(
            gather(vec[w * width:(w + 1) * width]) for w in words)) for vec in (rat, surd))
    return BoxTable.from_numerators(m, box.den, rat, surd)


def permute_parties(box: BoxTable, order: Sequence[int]) -> BoxTable:
    """Reorder parties; result party k is original party order[k-1]."""
    if sorted(order) != list(range(1, box.n + 1)):
        raise ArityError(f"order must be a permutation of 1..{box.n}, got {list(order)}")
    return marginalize(box, order)


def merge_parties(box: BoxTable, i: int, j: int) -> BoxTable:
    """Wire parties i and j into one user: the merged party feeds its input
    bit to both slots and announces the XOR of the two output bits.  The
    merged party sits at min(i, j)'s slot; parties after max(i, j) shift
    down by one.

    This is ``wired``'s rule inside one table: summed over the two output
    bits that XOR to the merged one, a column at output word S cancels
    unless S holds both or neither of bits i and j.  Each kept column drops
    bit max(i, j), is doubled (the sum counts it twice), and is read at the
    input words where x_i = x_j.  A table held as cells enters through
    ``_spectrum``; the result is a spectral table."""
    if i == j or not (1 <= i <= box.n and 1 <= j <= box.n):
        raise ArityError(f"merge needs two distinct parties in range, got {i}, {j}")
    n, lo, hi = box.n, min(i, j), max(i, j)
    den, columns = _spectrum(box)
    # the result's input word x' is read at the word with x'_lo at both slots
    rows = itemgetter(*subwords(n - 1, tuple(lo if q == hi else q - (q > hi)
                                             for q in range(1, n + 1))))
    words = subwords(n, tuple(q for q in range(1, n + 1) if q != hi))
    g = gcd(den, 2)  # the doubling goes into den where den is even
    kept = {words[w]: (_scaled(rows(r), 2 // g), s and _scaled(rows(s), 2 // g))
            for w, (r, s) in columns.items() if (w >> (lo - 1) & 1) == (w >> (hi - 1) & 1)}
    return _spectral(n - 1, _reduced_spectrum(den // g, kept))


# -- validation -------------------------------------------------------------


class ValidationReport:
    """Outcome of the exact distribution / nonsignaling checks."""

    __slots__ = ("normalized", "nonnegative", "nonsignaling")

    def __init__(self, normalized: bool, nonnegative: bool, nonsignaling: dict):
        self.normalized = normalized
        self.nonnegative = nonnegative
        self.nonsignaling = nonsignaling  # party -> bool

    @property
    def all_ok(self) -> bool:
        return self.normalized and self.nonnegative and all(self.nonsignaling.values())

    def to_json(self) -> dict:
        return {
            "normalized": self.normalized,
            "nonnegative": self.nonnegative,
            "nonsignaling": {str(p): ok for p, ok in sorted(self.nonsignaling.items())},
            "all_ok": self.all_ok,
        }

    def __repr__(self):
        return (
            f"ValidationReport(normalized={self.normalized}, "
            f"nonnegative={self.nonnegative}, nonsignaling={self.nonsignaling})"
        )


def _input_free(vec: Sequence[int], n: int, party: int) -> bool:
    """True iff the marginal of an n-party numerator vector on every party
    but ``party`` is the same at both of that party's inputs."""
    a0, a1 = _split(vec, party - 1)
    # with the output bit gone, the party's input bit sits at n - 1 + party - 1
    x0, x1 = _split(list(map(add, a0, a1)), n + party - 2)
    return x0 == x1


@lru_cache(maxsize=256)
def _masked(n: int, mask: int):
    """A gather of each n-bit input word's entry with the bits outside
    ``mask`` cleared: a column equals it iff it ignores those input bits."""
    return itemgetter(*[x & mask for x in range(2**n)])


def _spectral_report(n: int, spectrum: tuple, nonnegative: bool | None) -> ValidationReport:
    """``validate`` on the columns: a row's mass is 2**n times its empty-set
    column, and party p's input is free when no column without p's output
    bit depends on it.  One ``_masked`` gather clears a column at output
    word S for every party outside S; a column it fails is read again once
    per such party p, with p's bit alone cleared, to name those that signal."""
    den, columns = spectrum
    rat, surd = columns.get(0, ((0,), None))
    normalized = surd is None and rat[0] << n == den and rat.count(rat[0]) == len(rat)
    nonsignaling = dict.fromkeys(range(1, n + 1), True)
    full = 2**n - 1
    for word, pair in columns.items():
        for col in pair:
            if col is not None and col != _masked(n, word)(col):
                for party in range(1, n + 1):
                    bit = 1 << (party - 1)
                    if not word & bit and col != _masked(n, full ^ bit)(col):
                        nonsignaling[party] = False
    if nonnegative is None:
        nonnegative = not spectral_negative(n, columns)
    return ValidationReport(normalized, nonnegative, nonsignaling)


def validate(box: BoxTable) -> ValidationReport:
    """Normalization, nonnegativity and each party's nonsignaling, exactly:
    a spectral table on its columns (``_spectral_report``), a cell table by
    ``_split``; a recorded sign verdict (``_nonnegative``) stands."""
    if box.spectrum is not None:
        return _spectral_report(box.n, box.spectrum, box._nonnegative)
    n, rat, surd, nonnegative = box.n, box.rat, box.surd, box._nonnegative
    normalized = all(v == box.den for v in row_sums(rat, n)) and (
        surd is None or not any(row_sums(surd, n)))
    if nonnegative is None:
        nonnegative = first_negative(rat, surd) is None
    nonsignaling = {
        party: _input_free(rat, n, party) and (surd is None or _input_free(surd, n, party))
        for party in range(1, n + 1)
    }
    return ValidationReport(normalized, nonnegative, nonsignaling)
