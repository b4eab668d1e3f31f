"""Differential tests: the integer table kernels against the Scalar oracle.

Every kernel that works on common-denominator numerators is run next to its
per-cell ``Scalar`` reference in ``oracle.py`` on random tables over 1-4
parties: valid boxes with rational and sqrt(2) weights, nonsignaling quasi
tables with negative cells, valid boxes with sqrt(2) shifted between cells,
and arbitrary (signaling, unnormalized) tables.  ``marginalize``,
``permute_parties`` and ``merge_parties`` also run on five parties, on
isotropic-family boxes and coupler branch boxes (both spectral) and on lazy
products.  The lazy ``tensor`` is also run on products of up to four such
tables, up to seven parties in all, and so is the factor-wise coupler
contraction, on cell and spectral factors alone or mixed in one joint; its
cached reduction plans run on every set of consumed ends of a factor of one
to five parties, and the ``wired`` join
across one to three wirings on two tables of up to seven parties together:
cell tables, built or lazy, spectral tables of the isotropic family and
coupler branch boxes, lazy products of those, and dense spectra, in any
pairing; its
columns, cells and validation must be the oracle's.  The closed-form
``isotropic`` is run next to ``mix`` and the oracle's ``mix`` of gsb(n) and
mixed(n), and the two-minimum sign test in ``first_negative`` next to a
per-cell ``qsign`` scan, on cells drawn on both sides of r = |s|*sqrt(2).
``merge_parties`` must return a spectral table, and the forward transform
``_forward`` of a cell table must be the oracle's ``spectral``.
Results must be equal as tables, errors must name the same party or branch.
``probs`` of every such input must be ``Scalar.over`` of its numerators,
cell by cell, each value canonical.
"""

import random
import re
from fractions import Fraction
from itertools import combinations, repeat
from math import comb, gcd, isqrt

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import oracle
from boxswap import (
    BellFunctional,
    BoxTable,
    CouplerEffect,
    INV_SQRT2,
    ONE,
    SQRT2,
    ZERO,
    Scalar,
    apply_coupler,
    build_coupler,
    deterministic_local,
    evaluate,
    gsb,
    gsi,
    isotropic,
    marginalize,
    merge_parties,
    mix,
    mixed,
    permute_parties,
    tensor,
    validate,
)
from boxswap import boxes
from boxswap.boxes import first_negative, spectral_negative, wired
from boxswap.coupler import _contracted, _parts, _reduction
from boxswap.errors import (ArityError, CouplerInvalidError, PartyCapError, SignalingError,
                            ValidationError)
from boxswap.scalar import qsign

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
        return oracle.from_probs(n, probs)
    return oracle.from_probs(n, [rng.choice(CELLS) for _ in range(4**n)])


# inputs of the layout kernels beyond KINDS: spectral tables (an isotropic
# family box, a coupler's branch box on two of them) and lazy products
SHAPES = KINDS + ("family", "branch", "lazy")


def _shaped(rng, n, shape):
    """An n-party table of ``shape``; a shape with no table of n parties
    falls back to a valid box."""
    if shape == "family" and n > 1:
        return isotropic(n, rng.choice(XIS))
    if shape == "branch":
        ends = 3 if n == 1 else 2  # two family boxes of two or more parties
        k = rng.randint(2, n + ends - 2)
        joint = tensor(isotropic(k, rng.choice(XIS)), isotropic(n + ends - k, rng.choice(XIS)))
        consumed = rng.sample(range(1, n + ends + 1), ends)
        results, _ = _outcome(apply_coupler, build_coupler(ends), joint, consumed,
                              errors=CouplerInvalidError)
        boxes = [r.box for r in results or () if r.box is not None]
        if boxes:
            return rng.choice(boxes)
    if shape == "lazy" and n > 1:
        k = rng.randint(1, n - 1)
        return tensor(_table(rng, k, rng.choice(KINDS)), _table(rng, n - k, rng.choice(KINDS)))
    return _table(rng, n, shape if shape in KINDS else "box")


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


@given(seeds, st.integers(1, 3), st.lists(st.sampled_from(SHAPES), min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_mix(seed, n, shapes):
    # every table form: a lazy product's term is written from its factors,
    # before the oracle below reads (and so builds) its cells
    rng = random.Random(seed)
    boxes = [_shaped(rng, n, shape) for shape in shapes]
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


@given(seeds, st.integers(1, 5), st.sampled_from(SHAPES))
@settings(max_examples=50, deadline=None)
def test_marginalize_and_permute(seed, n, kind):
    rng = random.Random(seed)
    box = _shaped(rng, n, kind)
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


@given(seeds, st.integers(2, 5), st.sampled_from(SHAPES))
@settings(max_examples=40, deadline=None)
def test_merge_parties(seed, n, kind):
    rng = random.Random(seed)
    box = _shaped(rng, n, kind)
    i, j = rng.sample(range(1, n + 1), 2)
    got = merge_parties(box, i, j)
    assert got.spectrum is not None
    assert got == oracle.merge_parties(box, i, j)


def _cell_table(rng, n, kind, with_surd):
    """A cell table of ``kind``, with a sqrt(2) part nudged into one cell or
    with every sqrt(2) part dropped."""
    probs = list(_table(rng, n, kind).probs)
    if with_surd:
        i = rng.randrange(4**n)
        probs[i] = probs[i] + rng.choice(NUDGES)
    else:
        probs = [Scalar(v.rat) for v in probs]
    return oracle.from_probs(n, probs)


@given(seeds, st.integers(1, 4), st.sampled_from(KINDS), st.booleans())
@settings(max_examples=30, deadline=None)
def test_forward_is_the_oracle_spectrum(seed, n, kind, with_surd):
    # the forward transform of a cell table, with and without sqrt(2) parts
    box = _cell_table(random.Random(seed), n, kind, with_surd)
    assert boxes._forward(box) == oracle.spectral(box).spectrum


@given(seeds, st.integers(1, 4), st.sampled_from(KINDS), st.booleans())
@settings(max_examples=30, deadline=None)
def test_a_table_held_as_cells_or_as_columns_is_one_value(seed, n, kind, with_surd):
    # a cell table and its twin held as columns are equal both ways and
    # share one content key, and neither comparison nor key builds the
    # twin's cells
    box = _cell_table(random.Random(seed), n, kind, with_surd)
    twin = BoxTable.from_spectrum(n, *boxes._forward(box))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(boxes, "_cells", None)
        assert box == twin and twin == box
        assert box.content_key() == twin.content_key()
    assert box.spectrum is None and twin.spectrum is not None


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


def test_coupler_effect_takes_one_kernel_value_per_popcount():
    coupler = build_coupler(2)
    assert CouplerEffect(2, coupler.kernel).kernel == coupler.kernel
    with pytest.raises(ArityError):  # a 4**N weight table is not a kernel
        CouplerEffect(2, [1] * 16)


def _factors(rng, kinds, most, make=_table):
    """One table per kind, of 1-4 parties, at least three and at most
    ``most`` parties in all, each made by ``make``."""
    sizes = [rng.randint(1, 4) for _ in kinds]
    while sum(sizes) > most:
        sizes[sizes.index(max(sizes))] -= 1
    sizes[0] += max(0, 3 - sum(sizes))
    return [make(rng, n, kind) for n, kind in zip(sizes, kinds)]


def _products(factors):
    """The lazy product of ``factors`` and the oracle's built one."""
    lazy = want = factors[0]
    for f in factors[1:]:
        lazy, want = tensor(lazy, f), oracle.tensor(want, f)
    return lazy, want


@given(seeds, st.lists(st.sampled_from(SHAPES), min_size=1, max_size=4))
@settings(max_examples=30, deadline=None)
def test_apply_coupler_on_lazy_products(seed, shapes):
    # cell and spectral factors, alone or mixed in one joint
    rng = random.Random(seed)
    factors = _factors(rng, shapes, 7, _shaped)
    joint, want_joint = _products(factors)
    # 0-3 consumed ends per factor, 2-4 in all, at least one survivor
    candidates, offset = [], 0
    for f in factors:
        candidates += [offset + p for p in rng.sample(range(1, f.n + 1), min(3, f.n))]
        offset += f.n
    arity = rng.randint(2, min(4, offset - 1, len(candidates)))
    consumed = rng.sample(candidates, arity)
    coupler = build_coupler(arity)
    # the unnormalized branch tables, which most random tables never get past;
    # columns are read through their cells
    den, m, tables = _contracted(coupler, joint, consumed)
    want_tables = oracle.branch_tables(coupler, want_joint, consumed)
    for table, want_table in zip(tables, want_tables):
        d, rat, surd = boxes._cells(m, (den, table)) if isinstance(table, dict) else (den, *table)
        assert [Scalar.over(r, s, d) for r, s in zip(rat, surd or repeat(0))] == want_table
    got, got_err = _outcome(apply_coupler, coupler, joint, consumed,
                            errors=CouplerInvalidError)
    want, want_err = _outcome(oracle.branch_results, want_tables, m,
                              errors=CouplerInvalidError)
    if want_err is None:
        assert got_err is None
        for g, w in zip(got, want):
            assert (g.branch, g.probability, g.box) == (w.branch, w.probability, w.box)
    else:
        assert got_err is not None
        assert (got_err.branch, str(got_err)) == (want_err.branch, str(want_err))
    assert joint == want_joint


def _pairs(table: dict) -> dict:
    """A reduced table of columns as [rat, surd] lists, surd zeros for none."""
    return {word: [list(rat), list(surd or [0] * len(rat))] for word, (rat, surd) in table.items()}


def _grades(parts, size: int) -> tuple:
    """A factor's total and graded columns (``_parts``) as a table of
    columns and one table per grade."""
    totals, graded = parts
    return ({word: (rats[0], surds and surds[0]) for word, (rats, surds) in totals},
            [{word: (rats[k], surds and surds[k]) for word, (rats, surds) in graded}
             for k in range(size + 1)])


def test_reduction_plans_against_per_cell_sums():
    # every set of consumed ends of a factor of 1-5 parties, in the ascending
    # order the contraction hands them over, those that consume every party
    # included; on cells with and without sqrt(2) parts and on spectra
    rng = random.Random(1505)
    for n in range(1, 6):
        draw = [rng.randint(-9, 9) for _ in range(3 * 4**n)]
        rat, surd = draw[:4**n], draw[4**n:2 * 4**n]
        columns = {word: (draw[2 * 4**n + (word << n):2 * 4**n + (word + 1 << n)],
                          None if word % 3 else draw[word << n:word + 1 << n])
                   for word in range(2**n)}
        factors = [BoxTable.from_numerators(n, 1, rat), BoxTable.from_numerators(n, 1, rat, surd),
                   BoxTable.from_spectrum(n, 1, columns)]
        for size in range(1, n + 1):
            for ends in combinations(range(1, n + 1), size):
                for f in factors[:2]:
                    total, graded = _grades(_parts({0: (f.rat, f.surd)},
                                                   _reduction(n, ends, True), 0), size)
                    want_total, want_graded = oracle.reduced_cells(n, ends, f.rat, f.surd)
                    assert _pairs(total) == {0: want_total}
                    assert [_pairs(g) for g in graded] == [{0: g} for g in want_graded]
                total, graded = _grades(_parts(factors[2].spectrum[1],
                                               _reduction(n, ends, False), 0), size)
                want_total, want_graded = oracle.reduced_columns(n, ends, factors[2].spectrum[1])
                assert _pairs(total) == want_total
                assert [_pairs(g) for g in graded] == want_graded


@given(seeds, st.lists(st.sampled_from(KINDS), min_size=1, max_size=3))
@settings(max_examples=25, deadline=None)
def test_tensor_and_validate_on_products(seed, kinds):
    rng = random.Random(seed)
    factors = _factors(rng, kinds, 6)
    for k in range(2, len(factors) + 1):
        lazy, want = _products(factors[:k])
        assert lazy == want
    box, want = _products(factors)
    report = validate(box)
    assert (report.normalized, report.nonnegative, report.nonsignaling) == oracle.validate(want)
    # a few shifted cells make the product signal, or lose its normalization
    probs = list(want.probs)
    for i in rng.sample(range(len(probs)), rng.randint(1, 3)):
        probs[i] = probs[i] + rng.choice(NUDGES + (ONE, -ONE))
    shifted = oracle.from_probs(want.n, probs)
    report = validate(shifted)
    assert (report.normalized, report.nonnegative, report.nonsignaling) == oracle.validate(shifted)


def _built_or_lazy(rng, n, kind):
    """An n-party table of ``kind``: built, or a lazy product of two tables."""
    if n > 1 and rng.random() < 0.5:
        k = rng.randint(1, n - 1)
        return tensor(_table(rng, k, kind), _table(rng, n - k, rng.choice(KINDS)))
    return _table(rng, n, kind)


# inputs of ``wired`` beyond SHAPES: lazy products of spectral tables, and
# dense spectra (the oracle's forward transform of a cell table, whose
# columns span every output bit)
JOINED = SHAPES + ("lazy spectral", "dense")


def _joinable(rng, n, shape):
    """An n-party input of ``wired`` of ``shape``; cell tables are built or
    lazy, and a shape with no table of n parties falls back to a valid box."""
    if shape in KINDS:
        return _built_or_lazy(rng, n, shape)
    if shape == "lazy spectral" and n > 1:
        k = rng.randint(1, n - 1)
        return tensor(*(_shaped(rng, size, rng.choice(("family", "branch")))
                        for size in (k, n - k)))
    if shape == "dense":
        return oracle.spectral(_table(rng, n, rng.choice(KINDS)))
    return _shaped(rng, n, shape)


@given(seeds, st.integers(1, 4), st.integers(1, 4), st.integers(1, 3), st.sampled_from(JOINED),
       st.sampled_from(JOINED))
@settings(max_examples=60, deadline=None)
def test_wired_is_the_pairwise_merge_of_the_product(seed, na, nb, k, shape_a, shape_b):
    rng = random.Random(seed)
    nb = min(nb, 7 - na)
    k = min(k, na, nb)
    a, b = _joinable(rng, na, shape_a), _joinable(rng, nb, shape_b)
    pairs = list(zip(rng.sample(range(1, na + 1), k), rng.sample(range(1, nb + 1), k)))
    got = wired(a, b, pairs)
    # merge pair by pair, each time at the slots the earlier merges left
    want, ref, slots = tensor(a, b), oracle.tensor(a, b), list(range(1, na + nb + 1))
    for i, j in pairs:
        hi = slots.index(na + j) + 1
        want, ref = merge_parties(want, i, hi), oracle.merge_parties(ref, i, hi)
        del slots[hi - 1]
    # the join is spectral, and its columns, cells and signs are the oracle's
    assert got.spectrum is not None
    report = validate(got)
    assert (report.normalized, report.nonnegative, report.nonsignaling) == oracle.validate(ref)
    if got.n <= 4:  # the oracle's forward transform takes 8**n Scalar steps
        assert got.spectrum == oracle.spectral(ref).spectrum
    assert got == want == ref
    assert got.to_json() == ref.to_json()


def test_wired_checks_its_pairs_and_the_cap():
    two = isotropic(2, ONE)
    for pairs in ([(3, 1)], [(1, 0)], [], [(1, 1), (1, 2)], [(1, 2), (2, 2)]):
        with pytest.raises(ArityError):
            wired(two, two, pairs)
    # 6 + 6 - 1 parties: refused before a cell is read
    with pytest.raises(PartyCapError):
        wired(isotropic(6, ONE), isotropic(6, ONE), [(1, 1)])


@given(seeds, st.integers(1, 4), st.sampled_from(JOINED))
@settings(max_examples=60, deadline=None)
def test_probs_are_the_canonical_cells_of_the_numerators(seed, n, shape):
    # ``probs`` reduces each cell without ``Scalar.over``'s sign test, as a
    # table's den is positive: its cells must be the triples ``over`` makes
    box = _joinable(random.Random(seed), n, shape)
    cells = zip(box.rat, box.surd or repeat(0))
    want = [Scalar.over(r, s, box.den) for r, s in cells]
    assert [(v.r, v.s, v.d) for v in box.probs] == [(v.r, v.s, v.d) for v in want]
    for v in box.probs:
        assert type(v) is Scalar and v.d > 0 and gcd(v.r, v.s, v.d) == 1


# -- isotropic in closed form, and the two-minimum sign test --------------

_fractions = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 40))
ISO_WEIGHTS = st.one_of(
    st.sampled_from((ONE, ZERO, -ONE, INV_SQRT2, -INV_SQRT2)),
    _fractions.filter(lambda f: abs(f) <= 1).map(Scalar),
    st.builds(Scalar, _fractions, _fractions).filter(lambda x: -ONE <= x <= ONE),
)


@given(ISO_WEIGHTS, st.integers(2, 6))
@settings(max_examples=40, deadline=None)
def test_isotropic_is_the_mix_of_gsb_and_mixed(xi, n):
    terms = [(xi, gsb(n)), (ONE - xi, mixed(n))]
    box = isotropic(n, xi)
    assert box == mix(terms)
    assert box == oracle.mix(terms)


@pytest.mark.parametrize("n", range(2, 11))
def test_isotropic_columns_are_the_weight_times_the_gsb_signs(n):
    # the columns written out word by word, up to the party cap: no 4**n cells
    signs = [(-1) ** comb(x.bit_count(), 2) for x in range(2**n)]
    quarter = Scalar(Fraction(1, 4), Fraction(1, 4))
    for xi in (ZERO, ONE, -ONE, Scalar.rational(1, 3), Scalar.rational(-1, 3), quarter, -quarter,
               -INV_SQRT2):
        p, q, d = xi.r, xi.s, xi.d
        columns = {0: ((d,) * 2**n, None)}
        if xi:
            columns[2**n - 1] = (tuple([p * s for s in signs]),
                                 tuple([q * s for s in signs]) if q else None)
        assert isotropic(n, xi).spectrum == (d * 2**n, columns)


def test_isotropic_checks_weight_arity_and_cap():
    for xi in (Scalar(2), -ONE - INV_SQRT2, ONE + Scalar(0, Fraction(1, 10**6))):
        with pytest.raises(ValidationError):
            isotropic(2, xi)
    with pytest.raises(ArityError):
        isotropic(1, Scalar.rational(1, 2))
    with pytest.raises(PartyCapError):
        isotropic(11, Scalar.rational(1, 2))


def _reference_first_negative(rat, surd):
    cells = zip(rat, surd if surd is not None else repeat(0))
    return next((i for i, (r, s) in enumerate(cells) if qsign(r, s) < 0), None)


def _near_bound(s: int, above: bool, flip: bool) -> tuple:
    """A cell ``(r, s)`` with ``|r|`` next to ``|s|*sqrt(2)``: just below it
    (``isqrt(2s**2)``) or just above it (one more)."""
    r = isqrt(2 * s * s) + above
    return (-r if flip else r), s


_CELLS = st.one_of(
    st.tuples(st.integers(-60, 60), st.integers(-60, 60)),
    st.builds(_near_bound, st.integers(-10**12, 10**12), st.booleans(), st.booleans()),
    st.builds(_near_bound, st.integers(-50, 50), st.booleans(), st.just(False)),
)


@given(st.lists(_CELLS, min_size=1, max_size=12), st.booleans())
@settings(max_examples=200, deadline=None)
def test_first_negative_agrees_with_the_per_cell_sign(cells, with_surd):
    rat = [r for r, _ in cells]
    surd = [s for _, s in cells] if with_surd else None
    assert first_negative(rat, surd) == _reference_first_negative(rat, surd)


def _bound_cells(rng, mode: str, count: int) -> list:
    """``count`` cells (r, s), r next to |s|*sqrt(2), drawn through
    ``_near_bound``.  With (r0, -s0) the cell just above the bound at -s0,
    ``settled`` cells are all at least as large, so the two minima clear
    them; ``bounded`` cells are (r0 + count + 0 or 1, -s0), whose columns
    the column bound of ``spectral_negative`` clears, as every column but
    the empty-set one is a sum of 2**d rational parts 0 or 1, signed, and
    the empty-set column's 2**d * r0 beats its sqrt2 part -2**d * s0;
    ``negative`` cells are those with one cell just past the bound,
    (r0 - 1, -s0) or (-r, s) with r just above s*sqrt(2); ``nonnegative``
    cells all lie on the safe side of the bound, but their least r (2 at
    s = -1, or one below 0) is below r0, so the minima do not settle them."""
    s0 = rng.randint(2, rng.choice((50, 10**12)))
    r0, _ = _near_bound(-s0, True, False)
    if mode == "bounded":
        return [(r0 + count + rng.randint(0, 1), -s0) for _ in range(count)]
    if mode == "nonnegative":
        high = rng.choice((0, s0))
        cells = [_near_bound(s, s < 0, s > 0)
                 for s in (rng.randint(-s0, high) for _ in range(count))]
        low, edge = rng.sample(range(count), 2)
        cells[low], cells[edge] = _near_bound(-1, True, False), (r0, -s0)  # (2, -1) is the low
        return cells
    cells = [(r0 + rng.randint(0, 2), rng.randint(-s0, s0)) for _ in range(count)]
    cells[rng.randrange(count)] = r0, -s0
    if mode == "negative":
        cells[rng.randrange(count)] = rng.choice((_near_bound(-s0, False, False),
                                                  _near_bound(rng.randint(1, s0), True, True)))
    return cells


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@given(st.data())
@settings(max_examples=15, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
def test_spectral_negative_is_the_oracle_sign_at_the_bound(n, data):
    # columns over a span of dimension d whose 2**d pattern sums at each x are
    # 2**d times target cells: column S at coordinates c is
    # sum_q (-1)**popcount(q & c) * target_q.  Every mode is drawn on one
    # span, so each example meets both sides of the column bound.  A failure
    # is reported as drawn: shrinking the many wide draws of ``_bound_cells``
    # took minutes
    rng = data.draw(st.randoms(use_true_random=False))
    d = data.draw(st.integers(1, n), label="d")
    basis, span = [], {0}
    while len(basis) < d:
        word = rng.choice([w for w in range(1, 2**n) if w not in span])
        basis.append(word)
        span |= {w ^ word for w in span}
    for mode in ("bounded", "settled", "nonnegative", "negative"):
        targets = _bound_cells(rng, mode, 2**d * 2**n)  # target q at x: targets[q * 2**n + x]
        columns = {}
        for c in range(2**d):
            word = 0
            for i, b in enumerate(basis):
                if c >> i & 1:
                    word ^= b
            parts = [[sum(-v[k] if (q & c).bit_count() & 1 else v[k]
                          for q, v in enumerate(targets[x::2**n])) for x in range(2**n)]
                     for k in (0, 1)]
            columns[word] = parts[0], parts[1] if any(parts[1]) else None
        # every cell's numerators from the definition, and each distinct
        # one's sign by Scalar, without building a table
        cols = [(word, rat, surd or (0,) * 2**n) for word, (rat, surd) in columns.items()]
        cells = {(sum(-r[x] if (a & w).bit_count() & 1 else r[x] for w, r, _ in cols),
                  sum(-s[x] if (a & w).bit_count() & 1 else s[x] for w, _, s in cols))
                 for x in range(2**n) for a in range(2**n)}
        want = any(Scalar(r, s) < ZERO for r, s in cells)
        assert want == (mode == "negative")
        with pytest.MonkeyPatch.context() as mp:  # count the cells tested one by one
            calls, butterflies = [], []
            mp.setattr(boxes, "qsign", lambda r, s: calls.append(r) or qsign(r, s))
            mp.setattr(boxes, "_pattern_sums", lambda *args, sums=boxes._pattern_sums:
                       butterflies.append(args) or sums(*args))
            got = spectral_negative(n, columns)
        assert got == want
        assert (calls == []) == (mode in ("bounded", "settled"))
        # the column bound is weaker than the two minima of the pattern sums,
        # so it clears no draw they leave open; a settled draw may fall on
        # either side of it
        if mode != "settled":
            assert (butterflies == []) == (mode == "bounded")
