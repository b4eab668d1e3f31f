"""Dense joint probability tables for n-party boxes with binary inputs/outputs.

A box is the table P(outputs | inputs) for n parties, each holding one input
bit and one output bit.  Words pack party bits little-endian: party 1 is the
least significant bit, so for word strings (serialization, CLI) the rightmost
character belongs to party 1.  Cells are indexed by
``(input_word << n) | output_word``.

A table is stored in common-denominator form: one positive integer ``den``
and two tuples of ``4**n`` integers, ``rat`` and ``surd``, so that cell i is
``(rat[i] + surd[i]*sqrt(2)) / den``; a table without sqrt(2) parts carries
``surd = None``.  The triple is reduced by the gcd of all its integers, so
it is canonical and table equality is tuple equality.  Every operation
below is an integer loop over these tuples.  ``Scalar`` values appear only
at the edges: ``prob``, ``probs`` (built on first access) and JSON.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import lcm
from operator import add
from typing import Iterable, Sequence

from .errors import ArityError, PartyCapError, SpecFileError, ValidationError, SignalingError
from .fileio import json_positive_int
from .scalar import ONE, ZERO, Scalar, common_form, qsign, reduce_form

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


def first_negative(rat: Sequence[int], surd: Sequence[int] | None) -> int | None:
    """Index of the first cell whose ``rat + surd*sqrt(2)`` is negative."""
    if min(rat) >= 0 and (surd is None or min(surd) >= 0):
        return None
    cells = enumerate(zip(rat, surd or repeat(0)))
    return next((i for i, (r, s) in cells if qsign(r, s) < 0), None)


class BoxTable:
    """Immutable dense table; see the module docstring for the layout."""

    __slots__ = ("n", "den", "rat", "surd", "_probs")

    def __init__(self, n: int, probs: Sequence[Scalar]):
        if n < 1:
            raise ArityError(f"a box needs at least one party, got n={n}")
        probs = tuple(probs)
        if len(probs) != 4**n:
            raise ArityError(f"table for n={n} needs {4**n} entries, got {len(probs)}")
        self.n = n
        self.den, self.rat, self.surd = common_form(probs)
        self._probs = probs

    @classmethod
    def from_numerators(cls, n: int, den: int, rat, surd=None) -> "BoxTable":
        """The table with cells ``(rat[i] + surd[i]*sqrt(2)) / den``, ``den > 0``."""
        self = object.__new__(cls)
        self.n = n
        self.den, self.rat, self.surd = reduce_form(den, rat, surd)
        self._probs = None
        return self

    @property
    def probs(self) -> tuple:
        """Every cell as a Scalar, in index order; built on first access."""
        if self._probs is None:
            den = self.den
            cells = zip(self.rat, self.surd or repeat(0))
            self._probs = tuple(Scalar.over(r, s, den) if r or s else ZERO for r, s in cells)
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
        if not isinstance(other, BoxTable):
            return NotImplemented
        return (self.n, self.den, self.rat, self.surd) == (
            other.n, other.den, other.rat, other.surd)

    __hash__ = None

    def __repr__(self):
        return f"BoxTable(n={self.n})"

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "order": WORD_ORDER,
            "probs": [
                [word_to_str(x, self.n), word_to_str(a, self.n), p.to_json()]
                for x, a, p in self.entries()
                if p
            ],
        }

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
        cells = {}
        for item in items:
            if not isinstance(item, (list, tuple)) or len(item) != 3:
                raise SpecFileError(f"box entry must be [inputs, outputs, scalar]: {item!r}")
            index = (str_to_word(item[0], n) << n) | str_to_word(item[1], n)
            if index in cells:
                raise SpecFileError(f"duplicate box entry for inputs={item[0]} outputs={item[1]}")
            cells[index] = Scalar.from_json(item[2])
        # the listed cells share their reduced form with the whole table
        den, rat, surd = common_form(list(cells.values()))
        table = [[0] * 4**n, [0] * 4**n]
        for index, r, s in zip(cells, rat, surd or repeat(0)):
            table[0][index], table[1][index] = r, s
        return cls.from_numerators(n, den, *table)


# -- named constructors ----------------------------------------------------


def _check_cap(n: int, cap: int) -> None:
    if n > cap:
        raise PartyCapError(
            f"n={n} parties means 4**{n} = {4**n} exact entries; the cap is {cap}. "
            "Marginalize earlier or pass a larger cap if you really mean it."
        )


@lru_cache(maxsize=None)
def gsb(n: int, cap: int = PARTY_CAP) -> BoxTable:
    """Generalized Svetlichny box: outputs XOR to the pairwise-product parity
    of the inputs, uniformly over the 2**(n-1) output words that comply.

    Tables are immutable, so the named constructors cache and share them."""
    if n < 2:
        raise ArityError("gsb needs n >= 2")
    _check_cap(n, cap)
    odd = [a.bit_count() & 1 for a in range(2**n)]
    even = [1 - bit for bit in odd]
    rat = []
    for x in range(2**n):
        k = x.bit_count()
        # XOR over unordered pairs j<k of input bits: C(k, 2) mod 2 of the set bits.
        rat += odd if (k * (k - 1) // 2) & 1 else even
    return BoxTable.from_numerators(n, 2 ** (n - 1), rat)


def pr() -> BoxTable:
    return gsb(2)


def sb() -> BoxTable:
    return gsb(3)


@lru_cache(maxsize=None)
def anti_pr() -> BoxTable:
    return isotropic(2, -1)


@lru_cache(maxsize=None)
def mixed(n: int, cap: int = PARTY_CAP) -> BoxTable:
    if n < 2:
        raise ArityError("mixed needs n >= 2")
    _check_cap(n, cap)
    return BoxTable.from_numerators(n, 2**n, [1] * 4**n)


def isotropic(n: int, xi) -> BoxTable:
    """Convex-affine slide between gsb(n) (xi=1) and the fully mixed box (xi=0)."""
    xi = xi if isinstance(xi, Scalar) else Scalar(xi)
    if not (-ONE <= xi <= ONE):
        raise ValidationError(f"isotropic weight must lie in [-1, 1], got {xi}")
    return mix([(xi, gsb(n)), (ONE - xi, mixed(n))])


@lru_cache(maxsize=None)
def failure(n: int) -> BoxTable:
    """The box left behind by an unsuccessful swap: (3*mixed - gsb)/2."""
    return mix([(Scalar(Fraction(3, 2)), mixed(n)), (Scalar(Fraction(-1, 2)), gsb(n))])


def deterministic_local(assignments: Sequence[tuple]) -> BoxTable:
    """Deterministic local box: party i outputs ``c ^ (m & x_i)`` for its
    assignment pair ``(c, m)``.  The 4**n such boxes for fixed n are the
    vertices of the local deterministic polytope with binary strategies."""
    assignments = [(c & 1, m & 1) for c, m in assignments]
    n = len(assignments)
    if n < 1:
        raise ArityError("deterministic_local needs at least one party")
    _check_cap(n, PARTY_CAP)
    rat = [0] * 4**n
    for x in range(2**n):
        a = 0
        for i, (c, m) in enumerate(assignments):
            bit = c ^ (m & (x >> i))
            a |= (bit & 1) << i
        rat[(x << n) | a] = 1
    return BoxTable.from_numerators(n, 1, rat)


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


def _scaled(vec: Sequence[int], k: int) -> list:
    return [k * v for v in vec]


def _sum(*vecs) -> list:
    """Elementwise sum of the vectors that are not None."""
    vecs = [v for v in vecs if v is not None]
    total = list(vecs[0])
    for v in vecs[1:]:
        total = list(map(add, total, v))
    return total


def mix(terms: Iterable[tuple]) -> BoxTable:
    """Affine combination of same-arity tables.

    Weights must sum to one exactly.  Negative weights are fine as long as
    the result stays nonnegative.
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
    # weight (p + q*sqrt2)/wden on a table over box.den, all over one den
    parts = []
    for w, box in terms:
        if w:
            wden, p, q = common_form((w,))
            parts.append((p[0], q[0] if q else 0, wden * box.den, box))
    den = lcm(*(d for _, _, d, _ in parts))
    rat, surd = [0] * 4**n, None
    for p, q, d, box in parts:
        k = den // d
        p, q, s = p * k, q * k, box.surd
        rat = _sum(rat, _scaled(box.rat, p), _scaled(s, 2 * q) if s and q else None)
        if s or q:
            surd = _sum(surd, _scaled(box.rat, q) if q else None, _scaled(s, p) if s else None)
    i = first_negative(rat, surd)
    if i is not None:
        raise ValidationError(f"mix produced a negative entry at index {i}")
    return BoxTable.from_numerators(n, den, rat, surd)


def _outer(u: Sequence[int], v: Sequence[int], nu: int, nv: int) -> list:
    """Products u[i] * v[j] laid out as the tensor of a ``nu``-party table ``u``
    (low party slots) and an ``nv``-party table ``v``, in index order."""
    width = 1 << nu
    rows_u = [u[x << nu:(x + 1) << nu] for x in range(width)]
    zeros = [0] * width
    out = []
    for xv in range(1 << nv):
        row_v = v[xv << nv:(xv + 1) << nv]
        for row_u in rows_u:
            for q in row_v:
                out += [p * q for p in row_u] if q else zeros
    return out


def tensor(a: BoxTable, b: BoxTable, cap: int = PARTY_CAP) -> BoxTable:
    """Independent side-by-side composition; ``a`` keeps the low party slots."""
    n = a.n + b.n
    _check_cap(n, cap)

    def outer(u, v):
        return None if u is None or v is None else _outer(u, v, a.n, b.n)

    both = outer(a.surd, b.surd)
    rat = _sum(outer(a.rat, b.rat), both and _scaled(both, 2))
    surd = None
    if a.surd is not None or b.surd is not None:
        surd = _sum(outer(a.rat, b.surd), outer(a.surd, b.rat))
    return BoxTable.from_numerators(n, a.den * b.den, rat, surd)


def _gather(vec: Sequence[int], n: int, size: int, row_at: Sequence, col_at: Sequence) -> list:
    """Sum cell (x, a) of an n-party vector into ``out[row_at[x] | col_at[a]]``,
    skipping input words whose ``row_at`` is None."""
    out = [0] * size
    width = 1 << n
    for x, row in enumerate(row_at):
        if row is None:
            continue
        for a, v in enumerate(vec[x * width:(x + 1) * width]):
            if v:
                out[row | col_at[a]] += v
    return out


def _marginals(box: BoxTable, keep: tuple, dropped: tuple) -> list:
    """The marginal on ``keep`` at every input assignment of ``dropped``, as
    ``(rat, surd)`` numerator pairs over ``box.den``."""
    n, m = box.n, len(keep)
    kept, lost = subwords(n, keep), subwords(n, dropped)
    row_at = [(lost[x] << (2 * m)) | (kept[x] << m) for x in range(2**n)]
    size, total = 4**m, 4**m << len(dropped)
    rat, surd = (_gather(vec, n, total, row_at, kept) if vec else None
                 for vec in (box.rat, box.surd))
    return [(rat[i:i + size], surd and surd[i:i + size]) for i in range(0, total, size)]


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
    dropped = tuple(p for p in range(1, box.n + 1) if p not in keep)
    tables = _marginals(box, keep, dropped)
    for assign in range(len(tables)):
        for i, party in enumerate(dropped):
            if tables[assign] != tables[assign ^ (1 << i)]:
                raise SignalingError(party)
    rat, surd = tables[0]
    return BoxTable.from_numerators(len(keep), box.den, rat, surd)


def permute_parties(box: BoxTable, order: Sequence[int]) -> BoxTable:
    """Reorder parties; result party k is original party order[k-1]."""
    if sorted(order) != list(range(1, box.n + 1)):
        raise ArityError(f"order must be a permutation of 1..{box.n}, got {list(order)}")
    return marginalize(box, order)


def merge_parties(box: BoxTable, i: int, j: int) -> BoxTable:
    """Wire parties i and j into one user: the merged party feeds its input
    bit to both slots and announces the XOR of the two output bits.  The
    merged party sits at min(i, j)'s slot; parties after max(i, j) shift
    down by one."""
    if i == j or not (1 <= i <= box.n and 1 <= j <= box.n):
        raise ArityError(f"merge needs two distinct parties in range, got {i}, {j}")
    if box.n < 2:
        raise ArityError("merge needs at least two parties")
    lo, hi = min(i, j), max(i, j)
    n, m = box.n, box.n - 1
    # result slot -> original party, with lo's slot standing for the pair
    slots = tuple(p for p in range(1, n + 1) if p != hi)
    lo_slot = slots.index(lo)
    sub = subwords(n, slots)
    # only inputs that agree on the pair's two slots occur; the merged output
    # bit is the XOR of the pair's output bits
    row_at = [sub[x] << m if (x >> (lo - 1) ^ x >> (hi - 1)) & 1 == 0 else None
              for x in range(2**n)]
    col_at = [sub[a] ^ (((a >> (hi - 1)) & 1) << lo_slot) for a in range(2**n)]
    rat, surd = (_gather(vec, n, 4**m, row_at, col_at) if vec else None
                 for vec in (box.rat, box.surd))
    return BoxTable.from_numerators(m, box.den, rat, surd)


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


def validate(box: BoxTable) -> ValidationReport:
    n, rat, surd = box.n, box.rat, box.surd
    normalized = all(v == box.den for v in row_sums(rat, n)) and (
        surd is None or not any(row_sums(surd, n)))
    nonnegative = first_negative(rat, surd) is None
    nonsignaling = {}
    for party in range(1, n + 1):
        # the marginal on everyone else must not move with this party's input
        others = tuple(p for p in range(1, n + 1) if p != party)
        at0, at1 = _marginals(box, others, (party,))
        nonsignaling[party] = at0 == at1
    return ValidationReport(normalized, nonnegative, nonsignaling)
