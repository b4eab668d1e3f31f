"""Reference kernels: the per-cell ``Scalar`` table code, kept as a test oracle.

The library stores a table as integer numerators over one common
denominator.  These functions are the straightforward versions that walk
``box.probs`` cell by cell in ``Scalar`` arithmetic; ``test_kernels.py``
checks every integer kernel against them on random tables.  They mirror the
library's signatures and raise the same errors in the same order.
"""

from __future__ import annotations

from fractions import Fraction

from boxswap import BoxTable, ONE, ZERO, Scalar
from boxswap.coupler import BranchResult
from boxswap.errors import ArityError, CouplerInvalidError, SignalingError, ValidationError


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
    return BoxTable(n, out)


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
    return BoxTable(n, out)


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
    return BoxTable(m, tables[0])


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
    return BoxTable(m, out)


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


def apply_coupler(coupler, joint, consumed):
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
    t1 = [uniform * s - t for s, t in zip(psum, t0)]
    results = []
    for branch, table in ((0, t0), (1, t1)):
        masses = []
        for xs in range(2**m):
            row = ZERO
            for as_ in range(2**m):
                row = row + table[(xs << m) | as_]
            masses.append(row)
        mass = masses[0]
        if any(v != mass for v in masses):
            raise CouplerInvalidError(branch, "mass depends on surviving inputs")
        if mass.sign() < 0:
            raise CouplerInvalidError(branch)
        if not mass:
            if any(v for v in table):
                raise CouplerInvalidError(branch, "zero mass but nonzero entries")
            results.append(BranchResult(branch, ZERO, None))
            continue
        probs = []
        for v in table:
            if v.sign() < 0:
                raise CouplerInvalidError(branch)
            probs.append(v / mass)
        results.append(BranchResult(branch, mass, BoxTable(m, probs)))
    return tuple(results)
