"""Differential tests of the spectral table form against the Scalar oracle.

The isotropic family is built as spectral tables, and a coupler contracts
products of them column by column.  Here products of one to four such boxes
(rational, 1/sqrt(2) and mixed sqrt(2) weights, xi = 1, -1, 0 and -1/2
among them) meet couplers of two to four ends, which may take two ends of
one box.  Everything the library computes on the columns is compared with
``oracle.py``, which works cell by cell on the built tables: branch
probabilities, branch boxes, the branch and message of an invalid
coupler, ``validate`` party by party and ``evaluate``.  Each factor is
compared with the oracle's ``isotropic`` written from its definition, and
each branch box with the oracle's forward transform of its cells, so that
spectral tables compare equal with cell tables in both orders and with
other spectral tables.

Spectral tables of the isotropic family are valid boxes, so random spectral
tables are drawn as well: columns on random output words, with or without
sqrt(2) parts, each depending on its own parties' inputs and on up to three
other parties' inputs, over a denominator that may or may not normalize
them.  They are validated, evaluated, compared and coupled next to the
oracle's cells, which reaches every outcome of every check.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from boxswap import (
    BoxTable,
    INV_SQRT2,
    ONE,
    ZERO,
    Scalar,
    apply_coupler,
    build_coupler,
    evaluate,
    gsi,
    named_box,
    run_scenario,
    tensor,
    validate,
)
from boxswap import boxes
from boxswap.boxes import wired
from boxswap.errors import CouplerInvalidError
from boxswap.scenarios import ScenarioBox, ScenarioCoupler, ScenarioSpec

XIS = (ONE, -ONE, ZERO, Scalar.rational(-1, 2), Scalar.rational(1, 3), Scalar.rational(-3, 4),
       INV_SQRT2, -INV_SQRT2, Scalar(Fraction(1, 4), Fraction(1, 4)),
       Scalar(Fraction(3, 8), Fraction(-1, 8)), Scalar(Fraction(1, 2), Fraction(1, 4)))
seeds = st.integers(min_value=0, max_value=2**32)
MOST = 6  # parties in a product of up to three boxes: the oracle writes every cell
XI_OF = {"gsb": ONE, "pr": ONE, "sb": ONE, "mixed": ZERO, "anti_pr": -ONE,
         "failure": Scalar.rational(-1, 2)}


def _family(rng, n):
    """A random isotropic-family box on n >= 2 parties: (kind, n, xi, table,
    the oracle's table written cell by cell)."""
    kind = rng.choice(["isotropic", "gsb", "mixed", "failure"]
                      + {2: ["pr", "anti_pr"], 3: ["sb"]}.get(n, []))
    xi = rng.choice(XIS) if kind == "isotropic" else None
    table = named_box(kind, n, xi)
    return kind, n, xi, table, oracle.isotropic(n, XI_OF.get(kind, xi))


def _draw(rng):
    """Boxes of a product, its consumed parties (1-based, in coupler order)."""
    count = rng.choice((1, 2, 2, 3, 3, 4))
    sizes = [2] * count
    for _ in range(rng.randint(0, max(0, MOST - 2 * count))):
        sizes[rng.randrange(count)] += 1
    if count == 1:
        sizes[0] = max(sizes[0], 3)  # two ends consumed, one survivor
    boxes = [_family(rng, n) for n in sizes]
    total = sum(sizes)
    arity = rng.randint(2, min(4, total - 1))
    return boxes, rng.sample(range(1, total + 1), arity)


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except CouplerInvalidError as exc:
        return None, exc


def _check_branch_box(got, want):
    """A spectral branch box against the oracle's cell table."""
    assert got.spectrum is not None
    m = got.n
    report = validate(got)
    assert (report.normalized, report.nonnegative, report.nonsignaling) == oracle.validate(want)
    if m >= 2:
        assert evaluate(gsi(m), got) == oracle.evaluate(gsi(m), want)
    if m <= 4:  # the forward transform takes 8**m Scalar steps
        assert got == oracle.spectral(want)  # spectral against spectral: canonical columns
    assert got == want and want == got  # spectral against cells, both orders
    assert got.to_json() == want.to_json()


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_spectral_swaps_match_the_oracle(seed):
    rng = random.Random(seed)
    boxes, consumed = _draw(rng)
    for _, _, _, table, want in boxes:
        assert table.spectrum is not None and table == want and want == table
    joint = want_joint = None
    for _, _, _, table, want in boxes:
        joint = table if joint is None else tensor(joint, table)
        want_joint = want if want_joint is None else oracle.tensor(want_joint, want)
    coupler = build_coupler(len(consumed))
    got, got_err = _outcome(apply_coupler, coupler, joint, consumed)
    want, want_err = _outcome(oracle.apply_coupler, coupler, want_joint, consumed)
    if want_err is not None:
        assert got_err is not None
        assert (got_err.branch, str(got_err)) == (want_err.branch, str(want_err))
    else:
        assert got_err is None
        for g, w in zip(got, want):
            assert (g.branch, g.probability) == (w.branch, w.probability)
            assert (g.box is None) == (w.box is None)
            if g.box is not None:
                _check_branch_box(g.box, w.box)
    if len(boxes) > 1:  # the product's spectrum: outer products of the columns
        if joint.n <= MOST:
            report = validate(joint)
            assert (report.normalized, report.nonnegative, report.nonsignaling) == (
                oracle.validate(want_joint))
            assert evaluate(gsi(joint.n), joint) == oracle.evaluate(gsi(joint.n), want_joint)
        if joint.n <= 4:
            assert joint == oracle.spectral(want_joint)
        assert joint == want_joint and want_joint == joint

    # the same coupler in a scenario, perhaps conditioned on one outcome,
    # when it touches every box: one pool, the survivors in product order
    owner = [i for i, (_, n, *_) in enumerate(boxes) for _ in range(n)]
    if {owner[p - 1] for p in consumed} != set(range(len(boxes))):
        return
    labels = [f"p{k}" for k in range(1, len(owner) + 1)]
    outcome = rng.choice((None, 0, 1))
    spec = ScenarioSpec(
        name="spectral",
        boxes=tuple(ScenarioBox(f"g{i}", kind, n,
                                tuple(labels[k] for k in range(len(owner)) if owner[k] == i), xi)
                    for i, (kind, n, xi, _, _) in enumerate(boxes)),
        couplers=(ScenarioCoupler(len(consumed), tuple(labels[p - 1] for p in consumed),
                                  outcome),),
        reports=("gsi",) if len(owner) - len(consumed) >= 2 else ())
    report, run_err = _outcome(run_scenario, spec)
    if want_err is not None:
        assert run_err is not None and run_err.branch == want_err.branch
        assert str(run_err).endswith(str(want_err))
        return
    kept = want if outcome is None else (want[outcome],)
    assert [r.outcome for r in report.branches] == [(w.branch,) for w in kept]
    for record, w in zip(report.branches, kept):
        assert record.probability == w.probability
        if w.box is None:
            assert record.box is None
            continue
        checked = record.validation
        assert (checked.normalized, checked.nonnegative, checked.nonsignaling) == (
            oracle.validate(w.box))
        if w.box.n >= 2:
            assert record.functionals["gsi"] == oracle.evaluate(gsi(w.box.n), w.box)
        assert record.box.to_json() == w.box.to_json()


def _random_spectrum(rng, n):
    """(den, columns) of a random spectral table on n parties."""
    words = {0} | set(rng.sample(range(1, 2**n), rng.randint(0, min(4, 2**n - 1))))
    den = rng.choice((1, 2, 3)) << n
    columns = {}
    for word in words:
        # a column that follows only its own parties' inputs is nonsignaling;
        # each other party's input it follows, up to three, makes that party signal
        follows = word
        for _ in range(rng.choice((0, 0, 0, 1, 2, 3))):
            follows |= 1 << rng.randrange(n)
        values = {}
        column = []
        for x in range(2**n):
            key = x & follows
            if key not in values:
                values[key] = (rng.randint(-3, 3), rng.choice((0, 0, rng.randint(-2, 2))))
            column.append(values[key])
        rat = [r for r, _ in column]
        surd = [s for _, s in column]
        columns[word] = (rat, surd)
    if rng.random() < 0.7:  # normalized: 2**n times the empty-set column is den
        columns[0] = ([den >> n] * 2**n, [0] * 2**n)
    return den, columns


@given(seeds, st.integers(2, 4))
@settings(max_examples=40, deadline=None)
def test_random_spectral_tables_match_the_oracle(seed, n):
    rng = random.Random(seed)
    den, columns = _random_spectrum(rng, n)
    got, want = BoxTable.from_spectrum(n, den, columns), oracle.from_spectrum(n, den, columns)
    with pytest.MonkeyPatch.context() as mp:  # validation reads the columns whole
        split, splits = boxes._split, []
        mp.setattr(boxes, "_split", lambda *args: splits.append(args) or split(*args))
        report = validate(got)
    assert splits == []
    assert (report.normalized, report.nonnegative, report.nonsignaling) == oracle.validate(want)
    assert evaluate(gsi(n), got) == oracle.evaluate(gsi(n), want)
    assert got == oracle.spectral(want)
    # a coupler on the table beside a box of the family, or on the table alone
    partner = [] if n > 2 and rng.random() < 0.5 else [_family(rng, 2)[3]]
    joint = tensor(got, partner[0]) if partner else got
    want_joint = oracle.tensor(want, partner[0]) if partner else want
    consumed = rng.sample(range(1, joint.n + 1), rng.randint(2, min(4, joint.n - 1)))
    coupler = build_coupler(len(consumed))
    results, err = _outcome(apply_coupler, coupler, joint, consumed)
    want_results, want_err = _outcome(oracle.apply_coupler, coupler, want_joint, consumed)
    if want_err is not None:
        assert err is not None
        assert (err.branch, str(err)) == (want_err.branch, str(want_err))
    else:
        assert err is None
        for g, w in zip(results, want_results):
            assert (g.branch, g.probability, g.box) == (w.branch, w.probability, w.box)
    assert got == want and want == got


def test_validation_takes_the_recorded_sign_verdict(monkeypatch):
    # a coupler tests its branch tables' signs before it divides them by
    # their positive masses, and each branch box records that verdict, on
    # columns and on cells alike; a join of two boxes with the verdict has
    # it too.  Validation reads the record and tests nothing again, and its
    # verdict is the one a test of the same table without the record finds:
    # one sign test per table, on columns ``spectral_negative``, which stops
    # at its bound where that clears the table, on cells ``first_negative``.
    xi = Scalar(Fraction(1, 4), Fraction(1, 4))
    found = []
    for joint in (tensor(named_box("isotropic", 3, xi), named_box("isotropic", 2, INV_SQRT2)),
                  tensor(oracle.isotropic(3, xi), oracle.isotropic(2, INV_SQRT2))):
        for result in apply_coupler(build_coupler(2), joint, (3, 4)):
            found.append(result.box)
    found.append(wired(found[0], found[1], [(1, 2)]))
    tested = []
    for name in ("spectral_negative", "first_negative"):
        test = getattr(boxes, name)
        monkeypatch.setattr(boxes, name,
                            lambda *args, test=test, name=name: tested.append(name) or test(*args))
    reports = [validate(box) for box in found]
    assert tested == []
    for box, report in zip(found, reports):
        assert report.all_ok
        unrecorded = (BoxTable.from_spectrum(box.n, *box.spectrum) if box.spectrum
                      else BoxTable.from_numerators(box.n, box.den, box.rat, box.surd))
        assert validate(unrecorded).to_json() == report.to_json()
        assert tested == (["spectral_negative"] if box.spectrum else ["first_negative"])
        tested.clear()
    # a table with no record is tested, and so is a join with one; the bound
    # clears these two, not the product of two isotropic(2, 1/2) boxes, whose
    # columns the butterfly reads
    for box in (named_box("isotropic", 3, xi), wired(found[0], named_box("pr"), [(3, 1)])):
        assert validate(box).all_ok
    assert tested == ["spectral_negative"] * 2
    tested.clear()
    half = named_box("isotropic", 2, Scalar.rational(1, 2))
    product = BoxTable.from_spectrum(4, *boxes._product_spectrum([half, half]))
    assert validate(product).all_ok
    assert tested == ["spectral_negative", "first_negative"]


@pytest.mark.parametrize("xi", [ONE, INV_SQRT2])
def test_a_negative_branch_cell_past_the_bound_is_named_as_the_oracle_names_it(monkeypatch, xi):
    # a three-end coupler on pr and isotropic(2, xi), consuming both ends of
    # pr and one of the other box: branch 0's mass is positive and shared,
    # but a cell is negative.  The bound on its columns does not clear it,
    # so the butterfly finds the cell; on cells, ``first_negative`` does.
    # Either way the error names the branch and reads as the oracle's.
    butterflies = []
    sums = boxes._pattern_sums
    monkeypatch.setattr(boxes, "_pattern_sums",
                        lambda *args: butterflies.append(args) or sums(*args))
    want_results, want_err = _outcome(oracle.apply_coupler, build_coupler(3),
                                      tensor(oracle.isotropic(2, ONE), oracle.isotropic(2, xi)),
                                      (1, 2, 3))
    assert want_results is None and want_err.branch == 0
    for joint in (tensor(named_box("pr"), named_box("isotropic", 2, xi)),
                  tensor(oracle.isotropic(2, ONE), oracle.isotropic(2, xi))):
        butterflies.clear()
        results, err = _outcome(apply_coupler, build_coupler(3), joint, (1, 2, 3))
        assert results is None
        assert (err.branch, str(err)) == (want_err.branch, str(want_err))
        assert len(butterflies) == (joint.factors[0].spectrum is not None)
