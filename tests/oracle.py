"""Reference kernels: the per-cell ``Scalar`` table code and the two-Fraction
``Scalar`` itself, kept as test oracles.

The library stores a table as integer numerators over one common
denominator.  These functions are the straightforward versions that walk
``box.probs`` cell by cell in ``Scalar`` arithmetic; ``test_kernels.py``
checks every integer kernel against them on random tables.  They mirror the
library's signatures and raise the same errors in the same order.

``OracleScalar`` is the ``Scalar`` the library used before a value became
one reduced integer triple: two Fractions, ``rat + surd*sqrt(2)``.
``test_scalar.py`` checks every operator of the library's ``Scalar``
against it on random values.

``run_scenario`` is the scenario engine's branch loop as it was before its
per-run memos; ``test_scenarios.py`` checks the engine against it on random
scenarios.

``isotropic`` writes the isotropic box cell by cell from its definition,
``from_spectrum`` writes the cells of a spectral table by the inverse
transform, and ``spectral`` turns a table into a spectral one by the
forward transform, one ``Scalar`` at a time; ``test_spectral.py`` checks
the library's spectral tables against them.

``reduced_cells`` and ``reduced_columns`` reduce one factor of a coupler's
joint over its consumed ends, entry by entry; ``test_kernels.py`` checks
the coupler's cached reduction plans against them.

``from_probs`` builds a table from its cells, one ``Scalar`` each: the
library builds tables only from integer numerators, spectra and documents,
and the oracle and the tests write theirs cell by cell.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction
from functools import total_ordering
from math import gcd

from boxswap import BoxTable, ONE, ZERO, Scalar
from boxswap import scenarios as engine
from boxswap.coupler import BranchResult
from boxswap.errors import ArityError, CouplerInvalidError, SignalingError, ValidationError
from boxswap.scalar import common_form, qsign


def from_probs(n, probs):
    """The n-party table whose cells, in index order, are the Scalars ``probs``."""
    return BoxTable.from_numerators(n, *common_form(list(probs)))


def _entries(box):
    n = box.n
    for x in range(2**n):
        for a in range(2**n):
            yield x, a, box.probs[(x << n) | a]


def _scatter(bits, slots):
    word = 0
    for i, party in enumerate(slots):
        word |= ((bits >> i) & 1) << (party - 1)
    return word


def _extract(word, parties):
    sub = 0
    for i, party in enumerate(parties):
        sub |= ((word >> (party - 1)) & 1) << i
    return sub


def mix(terms, quasi=False):
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
    out = [ZERO] * 4**n
    for w, box in terms:
        if not w:
            continue
        for i, p in enumerate(box.probs):
            if p:
                out[i] = out[i] + w * p
    if not quasi:
        for i, p in enumerate(out):
            if p.sign() < 0:
                raise ValidationError(f"mix produced a negative entry at index {i}")
    return from_probs(n, out)


def isotropic(n, xi):
    """P(a|x) = (1 + xi * (-1)**(popcount(a) + C(popcount(x), 2))) / 2**n."""
    probs = []
    for x in range(2**n):
        for a in range(2**n):
            sign = (a.bit_count() + x.bit_count() * (x.bit_count() - 1) // 2) % 2
            probs.append((ONE - xi if sign else ONE + xi) * Scalar.rational(1, 2**n))
    return from_probs(n, probs)


def from_spectrum(n, den, columns):
    """The cell table of the spectral table with ``columns`` over ``den``:
    P(a|x) = sum_S (-1)**popcount(a & S) * (rat_S[x] + surd_S[x]*sqrt(2)) / den."""
    probs = []
    for x in range(2**n):
        for a in range(2**n):
            acc = ZERO
            for word, (rat, surd) in columns.items():
                v = Scalar.over(rat[x], surd[x] if surd else 0, den)
                acc = acc - v if (a & word).bit_count() % 2 else acc + v
            probs.append(acc)
    return from_probs(n, probs)


def spectral(box):
    """The spectral table equal to ``box``: column S at x is
    sum_a (-1)**popcount(a & S) * P(a|x) / 2**n."""
    n = box.n
    columns = {}
    for word in range(2**n):
        column = []
        for x in range(2**n):
            acc = ZERO
            for a in range(2**n):
                p = box.probs[(x << n) | a]
                acc = acc - p if (a & word).bit_count() % 2 else acc + p
            column.append(acc * Scalar.rational(1, 2**n))
        if any(column):
            columns[word] = column
    den = 1
    for column in columns.values():
        for v in column:
            den = den * v.d // gcd(den, v.d)
    return BoxTable.from_spectrum(n, den, {
        word: ([v.r * (den // v.d) for v in column], [v.s * (den // v.d) for v in column])
        for word, column in columns.items()})


def tensor(a, b):
    n = a.n + b.n
    out = [ZERO] * 4**n
    na = a.n
    for xa, aa, pa in _entries(a):
        if not pa:
            continue
        for xb, ab, pb in _entries(b):
            if not pb:
                continue
            out[((xa | (xb << na)) << n) | (aa | (ab << na))] = pa * pb
    return from_probs(n, out)


def marginalize(box, keep):
    keep = list(keep)
    dropped = [p for p in range(1, box.n + 1) if p not in keep]
    m = len(keep)

    def table_at(assign):
        xd = _scatter(assign, dropped)
        out = [ZERO] * 4**m
        for xk in range(2**m):
            x = _scatter(xk, keep) | xd
            for a in range(2**box.n):
                p = box.probs[(x << box.n) | a]
                if p:
                    idx = (xk << m) | _extract(a, keep)
                    out[idx] = out[idx] + p
        return tuple(out)

    tables = [table_at(assign) for assign in range(2 ** len(dropped))]
    for assign in range(2 ** len(dropped)):
        for i, party in enumerate(dropped):
            if tables[assign] != tables[assign ^ (1 << i)]:
                raise SignalingError(party)
    return from_probs(m, tables[0])


def merge_parties(box, i, j):
    lo, hi = min(i, j), max(i, j)
    n, m = box.n, box.n - 1
    slot_of = [p for p in range(1, n + 1) if p != hi]
    lo_slot = slot_of.index(lo)
    out = [ZERO] * 4**m
    for xr in range(2**m):
        x = _scatter(xr, slot_of) | (((xr >> lo_slot) & 1) << (hi - 1))
        for ar in range(2**m):
            merged_bit = (ar >> lo_slot) & 1
            acc = ZERO
            for t in (0, 1):
                a = 0
                for s, party in enumerate(slot_of):
                    a |= (t if party == lo else (ar >> s) & 1) << (party - 1)
                a |= (t ^ merged_bit) << (hi - 1)
                acc = acc + box.probs[(x << n) | a]
            out[(xr << m) | ar] = acc
    return from_probs(m, out)


def validate(box):
    """(normalized, nonnegative, nonsignaling) as ``ValidationReport`` holds them."""
    n = box.n
    normalized = nonnegative = True
    for x in range(2**n):
        row = ZERO
        for a in range(2**n):
            p = box.probs[(x << n) | a]
            if p.sign() < 0:
                nonnegative = False
            row = row + p
        if row != ONE:
            normalized = False
    nonsignaling = {}
    for party in range(1, n + 1):
        bit = 1 << (party - 1)
        ok = True
        for x in range(2**n):
            if x & bit:
                continue
            lo, hi = x << n, (x | bit) << n
            for a in range(2**n):
                if a & bit:
                    continue
                p0 = box.probs[lo | a] + box.probs[lo | a | bit]
                p1 = box.probs[hi | a] + box.probs[hi | a | bit]
                if p0 != p1:
                    ok = False
        nonsignaling[party] = ok
    return normalized, nonnegative, nonsignaling


def correlator(box, x):
    acc = ZERO
    for a in range(2**box.n):
        p = box.probs[(x << box.n) | a]
        acc = acc + p if a.bit_count() % 2 == 0 else acc - p
    return acc


def evaluate(functional, box):
    acc = ZERO
    for x, c in enumerate(functional.coeffs):
        if c:
            acc = acc + c * correlator(box, x)
    return acc


def branch_tables(coupler, joint, consumed):
    """Both branch tables over the survivors, before normalization."""
    consumed = list(consumed)
    survivors = [p for p in range(1, joint.n + 1) if p not in consumed]
    m, N = len(survivors), coupler.n
    t0 = [ZERO] * 4**m
    psum = [ZERO] * 4**m
    for x, a, p in _entries(joint):
        if not p:
            continue
        idx = (_extract(x, survivors) << m) | _extract(a, survivors)
        w = coupler.weight(0, _extract(a, consumed), _extract(x, consumed))
        t0[idx] = t0[idx] + w * p
        psum[idx] = psum[idx] + p
    uniform = Scalar(Fraction(1, 2**N))
    return t0, [uniform * s - t for s, t in zip(psum, t0)]


def reduced_cells(n, ends, rat, surd):
    """An n-party factor's cell numerators (surd None for none) summed over
    its consumed ``ends``, one cell at a time: per survivor cell, the plain
    sum, and per popcount k of the consumed inputs the sum signed by the
    parity of the consumed outputs.  Returns (total, graded), each a
    [rat sums, surd sums] pair, graded one per k."""
    survivors = [p for p in range(1, n + 1) if p not in ends]
    m = len(survivors)
    total = [[0] * 4**m, [0] * 4**m]
    graded = [[[0] * 4**m, [0] * 4**m] for _ in range(len(ends) + 1)]
    for index in range(4**n):
        x, a = index >> n, index & (2**n - 1)
        cell = (_extract(x, survivors) << m) | _extract(a, survivors)
        k = _extract(x, ends).bit_count()
        sign = -1 if _extract(a, ends).bit_count() % 2 else 1
        for part, vec in enumerate((rat, surd)):
            value = vec[index] if vec else 0
            total[part][cell] += value
            graded[k][part][cell] += sign * value
    return total, graded


def reduced_columns(n, ends, columns):
    """An n-party factor's spectral ``columns`` ({word: (rat, surd)})
    summed over its consumed ``ends``, one entry at a time: a column with
    no consumed output bit summed over the consumed inputs into ``total``,
    a column with every consumed output bit summed per popcount k of the
    consumed inputs into ``graded[k]``, each at the column's survivor
    output bits as a [rat sums, surd sums] pair; other columns drop out."""
    survivors = [p for p in range(1, n + 1) if p not in ends]
    m = len(survivors)
    total, graded = {}, [{} for _ in range(len(ends) + 1)]
    for word, (rat, surd) in columns.items():
        held = _extract(word, ends).bit_count()
        if 0 < held < len(ends):
            continue
        sums = [[[0] * 2**m, [0] * 2**m] for _ in range(len(ends) + 1)]
        for x in range(2**n):
            k, row = _extract(x, ends).bit_count(), _extract(x, survivors)
            for part, vec in enumerate((rat, surd)):
                sums[k][part][row] += vec[x] if vec else 0
        key = _extract(word, survivors)
        if held:
            for k, pair in enumerate(sums):
                graded[k][key] = pair
        else:
            total[key] = [[sum(v) for v in zip(*(pair[part] for pair in sums))]
                          for part in (0, 1)]
    return total, graded


def apply_coupler(coupler, joint, consumed):
    return branch_results(branch_tables(coupler, joint, consumed), joint.n - len(consumed))


def branch_results(tables, m):
    """``apply_coupler``'s checks and normalization of its two branch tables."""
    results = []
    for branch, table in enumerate(tables):
        masses = []
        for xs in range(2**m):
            row = ZERO
            for as_ in range(2**m):
                row = row + table[(xs << m) | as_]
            masses.append(row)
        mass = masses[0]
        if any(v != mass for v in masses):
            raise CouplerInvalidError(branch, f"branch {branch} mass depends on surviving inputs")
        if mass.sign() < 0:
            raise CouplerInvalidError(branch)
        if not mass:
            if any(v for v in table):
                raise CouplerInvalidError(branch,
                                          f"branch {branch} has zero mass but nonzero entries")
            results.append(BranchResult(branch, ZERO, None))
            continue
        probs = []
        for v in table:
            if v.sign() < 0:
                raise CouplerInvalidError(branch)
            probs.append(v / mass)
        results.append(BranchResult(branch, mass, from_probs(m, probs)))
    return tuple(results)


# -- the scenario engine before its memos -------------------------------------


def _joined(pools):
    labels, box = [], None
    for pool_labels, pool_box in pools:
        labels += pool_labels
        box = pool_box if box is None else engine.tensor(box, pool_box)
    return labels, box


def run_scenario(spec):
    """The branch loop of ``scenarios.run_scenario`` before its per-run memos:
    every coupler reruns on every live branch, and each branch tensors all
    its pools together before applying the wirings in spec order.  The
    library's own kernels and report builder do the rest."""
    engine._validate_spec(*engine._shape(spec))
    start_pools = []
    for b in spec.boxes:
        if b.table is not None:
            if not engine.validate(b.table).all_ok:
                raise ValidationError(f"inline box {b.name!r} is not a valid box")
            start_pools.append((list(b.parties), b.table))
        else:
            start_pools.append((list(b.parties), engine.named_box(b.kind, b.n, b.xi)))
    branches = [((), ONE, start_pools)]

    for cspec in spec.couplers:
        effect = engine.build_coupler(cspec.arity)
        grown = []
        for outcome, weight, pools in branches:
            if pools is None:
                grown.append((outcome + (None,), weight, None))
                continue
            involved = [i for i, (labels, _) in enumerate(pools)
                        if any(p in labels for p in cspec.consumed)]
            labels, joint = _joined([pools[i] for i in involved])
            positions = [labels.index(p) + 1 for p in cspec.consumed]
            try:
                results = engine.apply_coupler(effect, joint, positions)
            except CouplerInvalidError as exc:
                path = "".join(str(b) for b in outcome) or "(root)"
                raise CouplerInvalidError(
                    exc.branch,
                    f"coupler on {list(cspec.consumed)} after branch path {path}: {exc}",
                ) from exc
            surviving = [p for p in labels if p not in cspec.consumed]
            rest = [pool for i, pool in enumerate(pools) if i not in involved]
            at = involved[0]
            keep = results if cspec.outcome is None else (results[cspec.outcome],)
            for res in keep:
                if res.box is None:
                    grown.append((outcome + (res.branch,), ZERO, None))
                else:
                    grown.append((outcome + (res.branch,), weight * res.probability,
                                  rest[:at] + [(surviving, res.box)] + rest[at:]))
        branches = grown

    def finals():
        for outcome, weight, pools in branches:
            if pools is None:
                yield outcome, ZERO, (), None
                continue
            labels, box = _joined(pools)
            for w in spec.wirings:
                i = labels.index(w.pair[0]) + 1
                j = labels.index(w.pair[1]) + 1
                box = engine.merge_parties(box, i, j)
                lo, hi = min(i, j), max(i, j)
                labels[lo - 1] = w.merged
                del labels[hi - 1]
            yield outcome, weight, labels, box

    return engine._report(spec, finals())


# -- the two-Fraction Scalar ---------------------------------------------------

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
class OracleScalar:
    """The two-Fraction Scalar the library used before its integer triple:
    ``rat + surd*sqrt(2)`` with both parts kept as Fractions."""

    __slots__ = ("rat", "surd")

    def __init__(self, rat=0, surd=0):
        self.rat = _to_fraction(rat)
        self.surd = _to_fraction(surd)

    @classmethod
    def _raw(cls, rat: Fraction, surd: Fraction) -> "OracleScalar":
        self = object.__new__(cls)
        self.rat = rat
        self.surd = surd
        return self

    @classmethod
    def over(cls, rat: int, surd: int, den: int) -> "OracleScalar":
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
        return OracleScalar._raw(self.rat + other.rat, self.surd + other.surd)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return OracleScalar._raw(self.rat - other.rat, self.surd - other.surd)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return OracleScalar._raw(-self.rat, -self.surd)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, d = self.rat, self.surd, other.rat, other.surd
        if not b and not d:  # the common all-rational case
            return OracleScalar._raw(a * c, _F0)
        return OracleScalar._raw(a * c + 2 * b * d, a * d + b * c)

    __rmul__ = __mul__

    def inverse(self) -> "OracleScalar":
        norm = self.rat * self.rat - 2 * self.surd * self.surd
        if not norm:
            raise ZeroDivisionError("Scalar division by zero")
        return OracleScalar._raw(self.rat / norm, -self.surd / norm)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.surd == 0:  # rational divisor: no conjugation needed
            if not other.rat:
                raise ZeroDivisionError("Scalar division by zero")
            return OracleScalar._raw(self.rat / other.rat, self.surd / other.rat)
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        result = OracleScalar(1)
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


def _coerce(value):
    if isinstance(value, OracleScalar):
        return value
    if isinstance(value, (int, Fraction)):
        return OracleScalar._raw(_to_fraction(value), _F0)
    return NotImplemented
