"""Self-contained acceptance checks, runnable from the CLI or the tests.

Each check recomputes a published or derivable fact from scratch through the
public API and compares exactly — no tolerances anywhere.  ``run_checks``
returns one record per check; the CLI's ``reproduce`` verb and the
acceptance test suite are both thin wrappers around it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from .bell import bounds, ch_evaluate, classify, evaluate, gsi
from .boxes import (
    anti_pr,
    deterministic_local,
    failure,
    gsb,
    isotropic,
    mix,
    mixed,
    permute_parties,
    pr,
    sb,
    tensor,
    validate,
)
from .coupler import apply_coupler, build_coupler, is_allowed, success_probability
from .scalar import INV_SQRT2, ONE, ZERO, Scalar
from .scenarios import _Record, efficiency_compare, hybrid_three, swap_many, swap_two

THIRD = Scalar(Fraction(1, 3))


class CheckResult(_Record):
    __slots__ = ("criterion", "name", "passed", "detail")

    def __init__(self, criterion: int, name: str, passed: bool, detail: str):
        self.criterion, self.name, self.passed, self.detail = criterion, name, passed, detail

    def to_json(self) -> dict:
        return dict(zip(self.__slots__, self._fields()))


def _result(criterion, name, problems, ok_detail):
    if problems:
        return CheckResult(criterion, name, False, "; ".join(problems))
    return CheckResult(criterion, name, True, ok_detail)


# -- 1: the bound table ------------------------------------------------------


def check_bound_table():
    expected = {
        2: (Scalar(2), Scalar(0, 2), Scalar(4)),
        3: (Scalar(4), Scalar(0, 4), Scalar(8)),
        4: (Scalar(8), Scalar(0, 8), Scalar(16)),
        5: (Scalar(16), Scalar(0, 16), Scalar(32)),
        6: (Scalar(32), Scalar(0, 32), Scalar(64)),
    }
    problems = []
    for n, (loc, qua, alg) in expected.items():
        b = bounds(n)
        if (b.local, b.quantum, b.algebraic) != (loc, qua, alg):
            problems.append(f"n={n}: got ({b.local}, {b.quantum}, {b.algebraic})")
    return _result(1, "bound-table", problems, "local/quantum/algebraic for n=2..6")


# -- 2: functional extremes --------------------------------------------------


def check_functional_extremes():
    problems = []
    for n in range(2, 7):
        top = evaluate(gsi(n), gsb(n))
        if top != Scalar(2**n):
            problems.append(f"n={n}: gsb value {top} != {2 ** n}")
        flat = evaluate(gsi(n), mixed(n))
        if flat != ZERO:
            problems.append(f"n={n}: mixed value {flat} != 0")
        c = classify(gsb(n))
        if not (c.exceeds_local and c.exceeds_quantum):
            problems.append(f"n={n}: gsb not classified beyond both bounds")
        c = classify(mixed(n))
        if c.exceeds_local or c.exceeds_quantum:
            problems.append(f"n={n}: mixed classified nonlocal")
    return _result(2, "functional-extremes", problems, "gsb -> 2**n, mixed -> 0, n=2..6")


# -- 3: the four-term form ---------------------------------------------------


def _bipartite_pool():
    pool = [pr(), anti_pr(), mixed(2)]
    for bits in product((0, 1), repeat=4):
        pool.append(deterministic_local([(bits[0], bits[1]), (bits[2], bits[3])]))
    return pool


def _random_mixture(rng, pool):
    picks = rng.sample(range(len(pool)), rng.randint(2, 5))
    weights = [rng.randint(1, 9) for _ in picks]
    total = sum(weights)
    return mix(
        (Scalar(Fraction(w, total)), pool[i]) for w, i in zip(weights, picks)
    )


def check_four_term_bridge():
    rng = random.Random(40301)
    pool = _bipartite_pool()
    problems = []
    for case in range(100):
        box = _random_mixture(rng, pool)
        full = evaluate(gsi(2), box)
        four = ch_evaluate(box)
        if full != Scalar(4) * four - Scalar(2):
            problems.append(f"case {case}: {full} != 4*({four}) - 2")
            break
    return _result(3, "four-term-bridge", problems, "100 random nonsignaling mixtures")


# -- 4: the bipartite swap ---------------------------------------------------


def check_bipartite_swap():
    joint = tensor(pr(), pr())
    res0, res1 = apply_coupler(build_coupler(2), joint, (2, 3))
    problems = []
    if res0.probability != THIRD:
        problems.append(f"success probability {res0.probability} != 1/3")
    if res0.box != pr():
        problems.append("success box is not the two-party extremal box")
    if res1.probability != ONE - THIRD:
        problems.append(f"failure probability {res1.probability} != 2/3")
    if res1.box != failure(2):
        problems.append("failure box is not (3*mixed - gsb)/2")
    return _result(4, "bipartite-swap", problems, "branches (1/3, extremal) and (2/3, failure)")


# -- 5: the boundary point ---------------------------------------------------


def check_boundary_point():
    problems = []
    report = swap_two(2, 2, INV_SQRT2, INV_SQRT2)
    success = report.branch((0,))
    if success.box != isotropic(2, Scalar.rational(1, 2)):
        problems.append("weight-1/sqrt(2) inputs do not land on weight 1/2")
    value = evaluate(gsi(2), success.box)
    if value != Scalar(2):
        problems.append(f"output value {value} != 2")
    if classify(success.box).exceeds_local:
        problems.append("output at the boundary classified as beyond-local")
    # output beyond the local bound iff the input was beyond the quantum bound
    for xi in (Scalar(Fraction(7, 10)), INV_SQRT2, Scalar(Fraction(3, 4))):
        rep = swap_two(2, 2, xi, xi)
        out = rep.branch((0,)).box
        input_beyond_quantum = classify(isotropic(2, xi)).exceeds_quantum
        output_beyond_local = classify(out).exceeds_local
        if input_beyond_quantum is not output_beyond_local:
            problems.append(
                f"weight {xi}: input beyond-quantum {input_beyond_quantum} "
                f"but output beyond-local {output_beyond_local}"
            )
    return _result(5, "boundary-point", problems,
                   "quantum-bound inputs land exactly on the local bound")


# -- 6: merging two three-party boxes ----------------------------------------


def check_three_party_merge():
    problems = []
    report = swap_two(3, 3)
    success = report.branch((0,))
    if success.probability != THIRD:
        problems.append(f"success probability {success.probability} != 1/3")
    if success.box != gsb(4):
        problems.append("two maximal three-party boxes do not merge into gsb(4)")
    for xi1, xi2 in ((ONE, Scalar.rational(1, 2)), (INV_SQRT2, INV_SQRT2),
                     (Scalar.rational(1, 2), Scalar.rational(1, 2))):
        rep = swap_two(3, 3, xi1, xi2)
        if rep.branch((0,)).box != isotropic(4, xi1 * xi2):
            problems.append(f"weights {xi1}, {xi2}: output is not the product-weight box")
        if not rep.all_checks_passed:
            problems.append(f"weights {xi1}, {xi2}: scenario cross-checks failed")
    return _result(6, "three-party-merge", problems, "gsb(3) x gsb(3) -> gsb(4) at 1/3")


# -- 7: the six-box network --------------------------------------------------


def check_hybrid_network():
    report = hybrid_three()
    problems = []
    if not report.all_checks_passed:
        problems += [c.name for c in report.crosschecks if not c.passed]
    best = report.branch((0, 0, 0))
    if best.box != sb():
        problems.append("all-success branch is not the three-party extremal box")
    if best.probability != Scalar(Fraction(1, 27)):
        problems.append(f"all-success probability {best.probability} != 1/27")
    expected_gsi = {0: Scalar(8), 1: Scalar(-4), 2: Scalar(2), 3: Scalar(-1)}
    for record in report.branches:
        k = sum(record.outcome)
        if record.functionals["gsi"] != expected_gsi[k]:
            problems.append(
                f"branch {record.outcome}: value {record.functionals['gsi']} "
                f"!= {expected_gsi[k]}"
            )
    total = ZERO
    for record in report.branches:
        total = total + record.probability
    if total != ONE:
        problems.append(f"branch probabilities sum to {total}")
    return _result(7, "hybrid-network", problems,
                   "8 branches, conditional boxes and values by failure count")


# -- 8: one coupler, many ends -----------------------------------------------


def check_multiway_swap():
    problems = []
    rep = swap_many([2, 2, 2])
    if rep.branch((0,)).box != sb():
        problems.append("three bipartite boxes do not swap into the three-party extremal box")
    if rep.branch((0,)).probability != THIRD:
        problems.append("three-way success probability != 1/3")
    rep = swap_many([3, 2, 2])
    if rep.branch((0,)).box != gsb(4):
        problems.append("(3,2,2) swap does not produce gsb(4)")
    if not rep.all_checks_passed:
        problems.append("(3,2,2) scenario cross-checks failed")
    eff = efficiency_compare(3)
    if (eff.pairwise_boxes, eff.coupler_boxes) != (6, 3):
        problems.append(f"box counts ({eff.pairwise_boxes}, {eff.coupler_boxes}) != (6, 3)")
    if eff.pairwise_probability != Scalar(Fraction(1, 27)):
        problems.append(f"pairwise probability {eff.pairwise_probability} != 1/27")
    if eff.coupler_probability != THIRD:
        problems.append(f"coupler probability {eff.coupler_probability} != 1/3")
    return _result(8, "multiway-swap", problems,
                   "single coupler at 1/3 versus pairwise cascade at 1/27")


# -- 9: the success law ------------------------------------------------------


def check_success_law():
    problems = []
    for n in range(2, 6):
        coupler = build_coupler(n)
        cases = (
            (gsb(n), ONE, "maximal"),
            (failure(n), ZERO, "failure"),
            (mixed(n), THIRD, "mixed"),
        )
        for box, want, label in cases:
            if not is_allowed(coupler, box):
                problems.append(f"n={n}: {label} box rejected")
            got = success_probability(coupler, box)
            if got != want:
                problems.append(f"n={n}: {label} box probability {got} != {want}")
    if is_allowed(build_coupler(2), anti_pr()):
        problems.append("anti-correlated extremal box accepted at n=2")
    return _result(9, "success-law", problems,
                   "maximal -> 1, failure -> 0, mixed -> 1/3 for n=2..5")


# -- 10: the noise product law -----------------------------------------------


def check_noise_product():
    problems = []
    rep = swap_many([2, 2, 2], (Scalar.rational(1, 2), THIRD, ONE))
    if rep.branch((0,)).box != isotropic(3, Scalar(Fraction(1, 6))):
        problems.append("weights (1/2, 1/3, 1) do not yield the weight-1/6 box")
    local = bounds(3).local
    for picks in product((ONE, INV_SQRT2), repeat=3):
        rep = swap_many([2, 2, 2], picks)
        out = rep.branch((0,)).box
        value = evaluate(gsi(3), out)
        k = sum(1 for x in picks if x == INV_SQRT2)
        if (value == local) is not (k == 2):
            problems.append(f"{k} damped inputs: value {value} vs bound {local}")
        if classify(out).exceeds_local is not (k <= 1):
            problems.append(f"{k} damped inputs: beyond-local != {k <= 1}")
    return _result(10, "noise-product", problems,
                   "output weight is the product of input weights; boundary iff two damped")


# -- 11: randomized structural properties --------------------------------------


def _unnormalized(result, n_out):
    if result.box is None:
        return [ZERO] * 4**n_out
    return [result.probability * p for p in result.box.probs]


def check_random_properties():
    rng = random.Random(11047)
    pool = _bipartite_pool()
    singles = [deterministic_local([(c, m)]) for c in (0, 1) for m in (0, 1)]
    coupler = build_coupler(2)
    problems = []
    for case in range(200):
        a1, b1 = _random_mixture(rng, pool), _random_mixture(rng, pool)
        a2, b2 = _random_mixture(rng, pool), _random_mixture(rng, pool)
        lam = Scalar(Fraction(rng.randrange(1, 10), 10))
        rest = ONE - lam
        joint1, joint2 = tensor(a1, b1), tensor(a2, b2)
        joint = mix([(lam, joint1), (rest, joint2)])
        consumed = rng.choice(((2, 3), (1, 3), (2, 4), (1, 4)))
        res = apply_coupler(coupler, joint, consumed)
        parts1 = apply_coupler(coupler, joint1, consumed)
        parts2 = apply_coupler(coupler, joint2, consumed)

        # linearity branch by branch, on unnormalized tables
        for branch in (0, 1):
            mixed_table = _unnormalized(res[branch], 2)
            split = [
                lam * p + rest * q
                for p, q in zip(
                    _unnormalized(parts1[branch], 2), _unnormalized(parts2[branch], 2)
                )
            ]
            if mixed_table != split:
                problems.append(f"case {case}: branch {branch} not linear")

        # branch masses are a probability distribution
        if res[0].probability + res[1].probability != ONE:
            problems.append(f"case {case}: branch masses do not sum to 1")

        # both conditional boxes are valid physical boxes
        for branch in (0, 1):
            if res[branch].box is not None and not validate(res[branch].box).all_ok:
                problems.append(f"case {case}: branch {branch} box invalid")

        # the functional does not care how parties are ordered
        tri = tensor(a1, rng.choice(singles))
        perm = [1, 2, 3]
        rng.shuffle(perm)
        if evaluate(gsi(3), tri) != evaluate(gsi(3), permute_parties(tri, perm)):
            problems.append(f"case {case}: functional changed under reordering")

        # scenario-level branch masses stay normalized
        xi_a = Scalar(Fraction(rng.randrange(0, 11), 10))
        xi_b = Scalar(Fraction(rng.randrange(0, 11), 10))
        scenario = swap_two(2, 2, xi_a, xi_b)
        if scenario.total_probability != ONE:
            problems.append(f"case {case}: scenario branch masses do not sum to 1")
        if problems:
            break
    for arities in ((2, 3, 2), (2, 2, 3)):
        if (
            swap_many(arities).branch((0,)).functionals["gsi"]
            != swap_many((3, 2, 2)).branch((0,)).functionals["gsi"]
        ):
            problems.append(f"swap order {arities} changed the reported value")
    return _result(11, "random-properties", problems,
                   "200 randomized linearity/validity/symmetry/normalization cases")


# -- 12: the anti-correlated branch ------------------------------------------


def check_anticorrelated_branch():
    problems = []
    coupler = build_coupler(2)
    for xi in (ONE, Scalar.rational(1, 2)):
        joint = tensor(anti_pr(), isotropic(2, xi))
        res0, _ = apply_coupler(coupler, joint, (2, 3))
        want = isotropic(2, -xi)
        wrong = isotropic(2, ONE - xi)
        if res0.box != want:
            problems.append(f"xi={xi}: success box is not the weight-(-xi) box")
        if res0.box == wrong:
            problems.append(f"xi={xi}: success box collides with weight (1-xi)")
    return _result(12, "anticorrelated-branch", problems,
                   "anti-correlated input flips the sign of the output weight")


REGISTRY = (
    ("bound-table", check_bound_table),
    ("functional-extremes", check_functional_extremes),
    ("four-term-bridge", check_four_term_bridge),
    ("bipartite-swap", check_bipartite_swap),
    ("boundary-point", check_boundary_point),
    ("three-party-merge", check_three_party_merge),
    ("hybrid-network", check_hybrid_network),
    ("multiway-swap", check_multiway_swap),
    ("success-law", check_success_law),
    ("noise-product", check_noise_product),
    ("random-properties", check_random_properties),
    ("anticorrelated-branch", check_anticorrelated_branch),
)


def run_checks(name_filter: str | None = None) -> list:
    """Run every check (or those whose name contains ``name_filter``)."""
    results = []
    for name, fn in REGISTRY:
        if name_filter and name_filter not in name:
            continue
        results.append(fn())
    return results
