"""Differential tests: the integer table kernels against the Scalar oracle.

Every kernel that works on common-denominator numerators is run next to its
per-cell ``Scalar`` reference in ``oracle.py`` on random tables over 1-4
parties: valid boxes with rational and sqrt(2) weights, nonsignaling quasi
tables with negative cells, valid boxes with sqrt(2) shifted between cells,
and arbitrary (signaling, unnormalized) tables.
Results must be equal as tables, errors must name the same party or branch.
"""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from boxswap import (
    BellFunctional,
    BoxTable,
    INV_SQRT2,
    ONE,
    SQRT2,
    ZERO,
    Scalar,
    apply_coupler,
    build_coupler,
    correlator,
    deterministic_local,
    evaluate,
    gsi,
    isotropic,
    marginalize,
    merge_parties,
    mix,
    permute_parties,
    tensor,
    validate,
)
from boxswap.errors import CouplerInvalidError, SignalingError, ValidationError

XIS = (ONE, ZERO, -ONE, Scalar.rational(1, 2), Scalar.rational(-1, 3), INV_SQRT2,
       Scalar(Fraction(1, 4), Fraction(1, 4)), Scalar(Fraction(3, 8), Fraction(-1, 8)))
CELLS = (ZERO, ZERO, ZERO, ONE, Scalar.rational(1, 2), Scalar.rational(-1, 3),
         Scalar.rational(2, 7), INV_SQRT2, Scalar(Fraction(1, 2), Fraction(-1, 4)),
         Scalar(Fraction(-1, 5), Fraction(1, 3)), Scalar(Fraction(1, 4), Fraction(-1, 4)),
         Scalar(Fraction(-1, 2), Fraction(1, 4)))
# pure sqrt(2) shifts: a nudged box keeps its rational parts normalized
NUDGES = (Scalar(0, Fraction(1, 4)), Scalar(0, Fraction(-1, 8)))

seeds = st.integers(min_value=0, max_value=2**32)
KINDS = ("box", "quasi", "nudged", "raw")


def _weights(rng, count):
    """Positive weights summing to one, sometimes with sqrt(2) parts."""
    raw = [rng.randint(1, 6) for _ in range(count)]
    weights = [Scalar(Fraction(r, sum(raw))) for r in raw]
    if count > 1 and rng.random() < 0.5:
        pair = weights[0] + weights[1]
        weights[0], weights[1] = pair * (SQRT2 - ONE), pair * (Scalar(2) - SQRT2)
    return weights


def _product_box(rng, n):
    """A product of isotropic and deterministic blocks, parties shuffled."""
    box, left = None, n
    while left:
        k = rng.choice([k for k in (1, 2, 3) if k <= left])
        if k == 1:
            block = deterministic_local([(rng.randint(0, 1), rng.randint(0, 1))])
        else:
            block = isotropic(k, rng.choice([xi for xi in XIS if abs(xi) <= ONE]))
        box = block if box is None else oracle.tensor(box, block)
        left -= k
    order = list(range(1, n + 1))
    rng.shuffle(order)
    return oracle.marginalize(box, order)


def _table(rng, n, kind):
    if kind == "box":
        parts = [_product_box(rng, n) for _ in range(rng.randint(1, 3))]
        return oracle.mix(zip(_weights(rng, len(parts)), parts))
    if kind == "quasi":
        w = Scalar.rational(rng.randint(2, 4), 2)
        pair = (_product_box(rng, n), _product_box(rng, n))
        return oracle.mix([(w, pair[0]), (ONE - w, pair[1])], quasi=True)
    if kind == "nudged":
        probs = list(_table(rng, n, "box").probs)
        for i in rng.sample(range(4**n), rng.randint(1, 3)):
            probs[i] = probs[i] + rng.choice(NUDGES)
        return BoxTable(n, probs)
    return BoxTable(n, [rng.choice(CELLS) for _ in range(4**n)])


def _outcome(fn, *args, errors=()):
    """(result, None) or (None, exception) for one call."""
    try:
        return fn(*args), None
    except errors as exc:
        return None, exc


@given(seeds, st.integers(1, 2), st.integers(1, 2), st.sampled_from(KINDS),
       st.sampled_from(KINDS))
@settings(max_examples=25, deadline=None)
def test_tensor(seed, na, nb, kind_a, kind_b):
    rng = random.Random(seed)
    a, b = _table(rng, na, kind_a), _table(rng, nb, kind_b)
    assert tensor(a, b) == oracle.tensor(a, b)


@given(seeds, st.integers(1, 3), st.lists(st.sampled_from(KINDS), min_size=1, max_size=3))
@settings(max_examples=25, deadline=None)
def test_mix(seed, n, kinds):
    rng = random.Random(seed)
    boxes = [_table(rng, n, kind) for kind in kinds]
    weights = _weights(rng, len(boxes))
    if len(boxes) > 1 and rng.random() < 0.5:  # an affine, not convex, combination
        weights[0], weights[1] = weights[0] + Scalar(2), weights[1] - Scalar(2)
    terms = list(zip(weights, boxes))
    got, got_err = _outcome(mix, terms, errors=ValidationError)
    want, want_err = _outcome(oracle.mix, terms, errors=ValidationError)
    if want_err is None:
        assert got == want
    else:
        index = re.compile(r"index (\d+)")
        assert got_err is not None
        assert index.search(str(got_err)).group(1) == index.search(str(want_err)).group(1)


@given(seeds, st.integers(1, 4), st.sampled_from(KINDS))
@settings(max_examples=30, deadline=None)
def test_marginalize_and_permute(seed, n, kind):
    rng = random.Random(seed)
    box = _table(rng, n, kind)
    keep = rng.sample(range(1, n + 1), rng.randint(1, n))
    got, got_err = _outcome(marginalize, box, keep, errors=SignalingError)
    want, want_err = _outcome(oracle.marginalize, box, keep, errors=SignalingError)
    if want_err is None:
        assert got_err is None
        assert got == want
    else:
        assert got_err is not None and got_err.party == want_err.party
    order = rng.sample(range(1, n + 1), n)
    assert permute_parties(box, order) == oracle.marginalize(box, order)


@given(seeds, st.integers(2, 4), st.sampled_from(KINDS))
@settings(max_examples=25, deadline=None)
def test_merge_parties(seed, n, kind):
    rng = random.Random(seed)
    box = _table(rng, n, kind)
    i, j = rng.sample(range(1, n + 1), 2)
    assert merge_parties(box, i, j) == oracle.merge_parties(box, i, j)


@given(seeds, st.integers(1, 4), st.sampled_from(KINDS))
@settings(max_examples=30, deadline=None)
def test_validate(seed, n, kind):
    box = _table(random.Random(seed), n, kind)
    report = validate(box)
    assert (report.normalized, report.nonnegative, report.nonsignaling) == oracle.validate(box)


@given(seeds, st.integers(2, 4), st.sampled_from(KINDS), st.booleans())
@settings(max_examples=25, deadline=None)
def test_evaluate_and_correlator(seed, n, kind, random_functional):
    rng = random.Random(seed)
    box = _table(rng, n, kind)
    functional = gsi(n)
    if random_functional:
        functional = BellFunctional(n, [rng.choice(CELLS) for _ in range(2**n)])
    assert evaluate(functional, box) == oracle.evaluate(functional, box)
    x = rng.randrange(2**n)
    assert correlator(box, x) == oracle.correlator(box, x)


@given(seeds, st.integers(3, 4), st.sampled_from(KINDS), st.integers(2, 3))
@settings(max_examples=40, deadline=None)
def test_apply_coupler(seed, n, kind, arity):
    rng = random.Random(seed)
    arity = min(arity, n - 1)
    joint = _table(rng, n, kind)
    consumed = rng.sample(range(1, n + 1), arity)
    coupler = build_coupler(arity)
    got, got_err = _outcome(apply_coupler, coupler, joint, consumed,
                            errors=CouplerInvalidError)
    want, want_err = _outcome(oracle.apply_coupler, coupler, joint, consumed,
                              errors=CouplerInvalidError)
    if want_err is None:
        assert got_err is None
        for g, w in zip(got, want):
            assert (g.branch, g.probability, g.box) == (w.branch, w.probability, w.box)
    else:
        assert got_err is not None and got_err.branch == want_err.branch


@pytest.mark.parametrize("n", [2, 3])
def test_apply_coupler_on_swaps_with_sqrt2_weights(n):
    # the swap joints the scenarios build, at sqrt(2)-bearing weights
    for xi in (INV_SQRT2, Scalar(Fraction(1, 4), Fraction(1, 4))):
        joint = tensor(isotropic(n, xi), isotropic(2, xi))
        got = apply_coupler(build_coupler(2), joint, (n, n + 1))
        want = oracle.apply_coupler(build_coupler(2), joint, (n, n + 1))
        for g, w in zip(got, want):
            assert (g.probability, g.box) == (w.probability, w.box)
