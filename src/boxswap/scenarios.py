"""Swap scenarios: boxes wired through couplers, reported exactly.

A scenario is declarative: named boxes over labeled parties, couplers that
consume some of those labels (optionally conditioned on an outcome bit),
wirings that merge pairs of surviving labels into one user (shared input,
XOR of outputs), and the list of functionals to report on the final boxes.

The engine keeps one table per independent group of parties ("pool"),
couples pools together only when a coupler spans them, and tensors whatever
remains at the end — so party counts stay as small as the scenario allows.
Every probability is exact; branch probabilities over all outcome
assignments sum to one (checked and reported as a cross-check).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .bell import BoundTriple, Classification, bounds, ch_evaluate, classify
from .boxes import (
    BoxTable,
    WORD_ORDER,
    isotropic,
    merge_parties,
    mix,
    mixed,
    named_box,
    sb,
    tensor,
    validate,
)
from .coupler import apply_coupler, build_coupler
from .errors import ArityError, CouplerInvalidError, SpecFileError, ValidationError
from .fileio import json_positive_int, json_str
from .scalar import ONE, ZERO, Scalar

REPORT_FUNCTIONALS = ("gsi", "ch")


@dataclass(frozen=True)
class ScenarioBox:
    """One named box in a scenario: either a named family (``kind`` plus the
    family's parameters) or ``kind="inline"`` with an explicit table."""

    name: str
    kind: str
    n: int
    parties: tuple
    xi: Scalar | None = None
    table: BoxTable | None = None

    def to_json(self) -> dict:
        doc = {
            "name": self.name,
            "kind": self.kind,
            "n": self.n,
            "parties": list(self.parties),
            "xi": None if self.xi is None else self.xi.to_json(),
        }
        if self.table is not None:
            doc["table"] = self.table.to_json()
        return doc


@dataclass(frozen=True)
class ScenarioCoupler:
    arity: int
    consumed: tuple
    outcome: int | None = None

    def to_json(self) -> dict:
        return {"arity": self.arity, "consumed": list(self.consumed)}


@dataclass(frozen=True)
class ScenarioWiring:
    pair: tuple
    merged: str

    def to_json(self) -> dict:
        return {"pair": list(self.pair), "merged": self.merged}


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    boxes: tuple
    couplers: tuple = ()
    wirings: tuple = ()
    reports: tuple = ("gsi",)

    def to_json(self) -> dict:
        outcomes = [c.outcome for c in self.couplers]
        return {
            "name": self.name,
            "boxes": [b.to_json() for b in self.boxes],
            "couplers": [c.to_json() for c in self.couplers],
            "wirings": [w.to_json() for w in self.wirings],
            "condition": outcomes if any(o is not None for o in outcomes) else None,
            "reports": list(self.reports),
        }

    @classmethod
    def from_json(cls, data) -> "ScenarioSpec":
        if not isinstance(data, dict):
            raise SpecFileError("scenario document must be a JSON object")
        extra = set(data) - {"name", "boxes", "couplers", "wirings", "condition", "reports"}
        if extra:
            raise SpecFileError(f"scenario document has unknown keys {sorted(extra)}")
        for key in ("boxes", "couplers", "wirings"):
            if not isinstance(data.get(key, []), list):
                raise SpecFileError(f"scenario {key!r} must be a list, got {data[key]!r}")
        boxes = []
        for item in data.get("boxes", []):
            if not isinstance(item, dict):
                raise SpecFileError(f"box entry must be an object: {item!r}")
            bad = set(item) - {"name", "kind", "n", "parties", "xi", "table"}
            if bad:
                raise SpecFileError(f"box entry has unknown keys {sorted(bad)}")
            parties = item.get("parties")
            if not isinstance(parties, list) or not parties:
                raise SpecFileError(f"box entry needs a nonempty 'parties' list: {item!r}")
            xi = item.get("xi")
            table = item.get("table")
            boxes.append(
                ScenarioBox(
                    name=json_str(item.get("name", f"box{len(boxes) + 1}"), "box 'name'"),
                    kind=json_str(item.get("kind", "inline" if table is not None else ""),
                                  "box 'kind'"),
                    n=json_positive_int(item.get("n", len(parties)), "box 'n'"),
                    parties=tuple(json_str(p, "party label") for p in parties),
                    xi=None if xi is None else Scalar.from_json(xi),
                    table=None if table is None else BoxTable.from_json(table),
                )
            )
        couplers = []
        for item in data.get("couplers", []):
            if not isinstance(item, dict):
                raise SpecFileError(f"coupler entry must be an object: {item!r}")
            bad = set(item) - {"arity", "consumed", "outcome"}
            if bad:
                raise SpecFileError(f"coupler entry has unknown keys {sorted(bad)}")
            consumed = item.get("consumed")
            if not isinstance(consumed, list) or len(consumed) < 2:
                raise SpecFileError(f"coupler entry needs >= 2 'consumed' labels: {item!r}")
            outcome = item.get("outcome")
            if outcome not in (None, 0, 1):
                raise SpecFileError(f"coupler outcome must be 0, 1, or null: {outcome!r}")
            couplers.append(
                ScenarioCoupler(
                    arity=json_positive_int(item.get("arity", len(consumed)), "coupler 'arity'"),
                    consumed=tuple(json_str(p, "consumed label") for p in consumed),
                    outcome=outcome,
                )
            )
        condition = data.get("condition")
        if condition is not None:
            if not isinstance(condition, list) or len(condition) != len(couplers):
                raise SpecFileError("'condition' must list one entry per coupler")
            merged = []
            for c, bit in zip(couplers, condition):
                if bit not in (None, 0, 1):
                    raise SpecFileError(f"condition bits must be 0, 1, or null: {bit!r}")
                if c.outcome is not None and bit is not None and c.outcome != bit:
                    raise SpecFileError("coupler 'outcome' and 'condition' disagree")
                merged.append(
                    ScenarioCoupler(c.arity, c.consumed, bit if bit is not None else c.outcome)
                )
            couplers = merged
        wirings = []
        for item in data.get("wirings", []):
            if not isinstance(item, dict):
                raise SpecFileError(f"wiring entry must be an object: {item!r}")
            bad = set(item) - {"pair", "merged"}
            if bad:
                raise SpecFileError(f"wiring entry has unknown keys {sorted(bad)}")
            pair = item.get("pair")
            if not isinstance(pair, list) or len(pair) != 2:
                raise SpecFileError(f"wiring entry needs a 'pair' of two labels: {item!r}")
            wirings.append(
                ScenarioWiring(pair=tuple(json_str(p, "wiring 'pair' label") for p in pair),
                               merged=json_str(item.get("merged", ""), "wiring 'merged'"))
            )
        reports = data.get("reports", ["gsi"])
        if not isinstance(reports, list):
            raise SpecFileError("'reports' must be a list of functional names")
        return cls(
            name=json_str(data.get("name", "scenario"), "scenario 'name'"),
            boxes=tuple(boxes),
            couplers=tuple(couplers),
            wirings=tuple(wirings),
            reports=tuple(json_str(r, "'reports' entry") for r in reports),
        )


@dataclass
class CrossCheck:
    name: str
    passed: bool
    detail: str = ""

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass
class BranchRecord:
    outcome: tuple
    probability: Scalar
    box: BoxTable | None
    functionals: dict
    classification: Classification | None
    bound_triple: BoundTriple | None
    validation: object

    def to_json(self) -> dict:
        return {
            "outcome": list(self.outcome),
            "probability": self.probability.to_json(),
            "probability_decimal": self.probability.decimal(),
            "box": None if self.box is None else self.box.to_json(),
            "functionals": {
                name: {"value": value.to_json(), "decimal": value.decimal()}
                for name, value in sorted(self.functionals.items())
            },
            "classification": None if self.classification is None else self.classification.to_json(),
            "bounds": None if self.bound_triple is None else self.bound_triple.to_json(),
            "validation": None if self.validation is None else self.validation.to_json(),
        }


@dataclass
class ScenarioReport:
    scenario: str
    parties: tuple
    branches: list
    total_probability: Scalar
    crosschecks: list = field(default_factory=list)
    groups: list | None = None

    @property
    def all_checks_passed(self) -> bool:
        return all(c.passed for c in self.crosschecks)

    def branch(self, outcome: Sequence[int]) -> BranchRecord:
        outcome = tuple(outcome)
        for record in self.branches:
            if record.outcome == outcome:
                return record
        raise KeyError(f"no branch with outcome {outcome}")

    def to_json(self) -> dict:
        doc = {
            "scenario": self.scenario,
            "order": WORD_ORDER,
            "parties": list(self.parties),
            "branches": [b.to_json() for b in self.branches],
            "total_probability": self.total_probability.to_json(),
            "total_probability_decimal": self.total_probability.decimal(),
            "crosschecks": [c.to_json() for c in self.crosschecks],
        }
        if self.groups is not None:
            doc["groups"] = [
                {
                    "failures": g["failures"],
                    "probability": g["probability"].to_json(),
                    "probability_decimal": g["probability"].decimal(),
                    "branches": g["branches"],
                }
                for g in self.groups
            ]
        return doc


@dataclass
class _Branch:
    outcome: list
    weight: Scalar
    pools: list  # list of (labels, BoxTable)
    alive: bool = True


def _validate_spec(spec: ScenarioSpec) -> None:
    names = [b.name for b in spec.boxes]
    if len(set(names)) != len(names):
        raise SpecFileError("box names must be unique")
    labels = [p for b in spec.boxes for p in b.parties]
    if len(set(labels)) != len(labels):
        raise SpecFileError("party labels must be unique across boxes")
    label_set = set(labels)
    for b in spec.boxes:
        if len(b.parties) != b.n:
            raise SpecFileError(
                f"box {b.name!r} declares n={b.n} but lists {len(b.parties)} parties"
            )
        if b.kind == "inline":
            if b.table is None:
                raise SpecFileError(f"inline box {b.name!r} needs a 'table'")
            if b.table.n != b.n:
                raise SpecFileError(
                    f"inline box {b.name!r} table has {b.table.n} parties, expected {b.n}"
                )
        elif b.table is not None:
            raise SpecFileError(f"box {b.name!r} has kind {b.kind!r} and an inline table")
    consumed_all = [p for c in spec.couplers for p in c.consumed]
    if len(set(consumed_all)) != len(consumed_all):
        raise SpecFileError("a party label may be consumed by at most one coupler")
    for c in spec.couplers:
        if c.arity != len(c.consumed):
            raise SpecFileError(f"coupler arity {c.arity} != {len(c.consumed)} consumed labels")
        missing = [p for p in c.consumed if p not in label_set]
        if missing:
            raise SpecFileError(f"coupler consumes unknown labels {missing}")
    consumed_set = set(consumed_all)
    wired = []
    for w in spec.wirings:
        if w.pair[0] == w.pair[1]:
            raise SpecFileError(f"wiring pair must name two distinct labels: {w.pair}")
        if not w.merged:
            raise SpecFileError("wiring needs a nonempty merged label")
        for p in w.pair:
            if p not in label_set:
                raise SpecFileError(f"wiring references unknown label {p!r}")
            if p in consumed_set:
                raise SpecFileError(f"wiring references consumed label {p!r}")
        wired.extend(w.pair)
    if len(set(wired)) != len(wired):
        raise SpecFileError("a party label may appear in at most one wiring")
    merged_names = [w.merged for w in spec.wirings]
    if set(merged_names) & label_set or len(set(merged_names)) != len(merged_names):
        raise SpecFileError("merged labels must be fresh and unique")
    for r in spec.reports:
        if r not in REPORT_FUNCTIONALS:
            raise SpecFileError(f"unknown report functional {r!r}; expected {REPORT_FUNCTIONALS}")


def run_scenario(spec: ScenarioSpec) -> ScenarioReport:
    """Execute the scenario and report every (kept) outcome branch exactly."""
    _validate_spec(spec)
    start_pools = []
    for b in spec.boxes:
        if b.table is not None:
            if not validate(b.table).all_ok:
                raise ValidationError(f"inline box {b.name!r} is not a valid box")
            start_pools.append((list(b.parties), b.table))
        else:
            start_pools.append((list(b.parties), named_box(b.kind, b.n, b.xi)))
    branches = [_Branch(outcome=[], weight=ONE, pools=start_pools)]

    for cspec in spec.couplers:
        effect = build_coupler(cspec.arity)
        grown = []
        for br in branches:
            if not br.alive:
                grown.append(
                    _Branch(br.outcome + [None], br.weight, br.pools, alive=False)
                )
                continue
            involved = []
            for idx, (labels, _) in enumerate(br.pools):
                if any(p in labels for p in cspec.consumed):
                    involved.append(idx)
            merged_labels: list = []
            merged_box = None
            for idx in involved:
                labels, box = br.pools[idx]
                merged_labels += labels
                merged_box = box if merged_box is None else tensor(merged_box, box)
            positions = [merged_labels.index(p) + 1 for p in cspec.consumed]
            try:
                results = apply_coupler(effect, merged_box, positions)
            except CouplerInvalidError as exc:
                path = "".join(str(b) for b in br.outcome) or "(root)"
                raise CouplerInvalidError(
                    exc.branch,
                    f"coupler on {list(cspec.consumed)} after branch path {path}: {exc}",
                ) from exc
            surviving = [p for p in merged_labels if p not in cspec.consumed]
            keep = results if cspec.outcome is None else (results[cspec.outcome],)
            for res in keep:
                pools = [
                    pool for idx, pool in enumerate(br.pools) if idx not in involved
                ]
                if res.box is None:
                    grown.append(
                        _Branch(br.outcome + [res.branch], ZERO, pools, alive=False)
                    )
                    continue
                pools.insert(involved[0], (surviving, res.box))
                grown.append(
                    _Branch(
                        br.outcome + [res.branch],
                        br.weight * res.probability,
                        pools,
                    )
                )
        branches = grown

    records = []
    final_parties: tuple = ()
    want_gsi = "gsi" in spec.reports
    for br in branches:
        if not br.alive:
            records.append(
                BranchRecord(tuple(br.outcome), ZERO, None, {}, None, None, None)
            )
            continue
        labels: list = []
        box = None
        for pool_labels, pool_box in br.pools:
            labels += pool_labels
            box = pool_box if box is None else tensor(box, pool_box)
        for w in spec.wirings:
            i = labels.index(w.pair[0]) + 1
            j = labels.index(w.pair[1]) + 1
            box = merge_parties(box, i, j)
            lo, hi = min(i, j), max(i, j)
            labels[lo - 1] = w.merged
            del labels[hi - 1]
        functionals = {}
        classification = None
        bound_triple = None
        for r in spec.reports:
            if r == "gsi":
                classification = classify(box)
                functionals["gsi"] = classification.value
                bound_triple = bounds(box.n)
            elif r == "ch":
                if box.n != 2:
                    raise SpecFileError(
                        f"scenario {spec.name!r} asks for 'ch' on a {box.n}-party box"
                    )
                functionals["ch"] = ch_evaluate(box)
        records.append(
            BranchRecord(
                tuple(br.outcome),
                br.weight,
                box,
                functionals,
                classification,
                bound_triple,
                validate(box),
            )
        )
        final_parties = tuple(labels)

    total = ZERO
    for record in records:
        total = total + record.probability
    report = ScenarioReport(spec.name, final_parties, records, total)

    unconditioned = all(c.outcome is None for c in spec.couplers)
    if unconditioned:
        report.crosschecks.append(
            CrossCheck(
                "branch-probabilities-sum-to-one",
                total == ONE,
                f"total = {total}",
            )
        )
    report.crosschecks.append(
        CrossCheck(
            "branch-boxes-valid",
            all(r.validation is None or r.validation.all_ok for r in records),
            "normalization, nonnegativity, nonsignaling",
        )
    )
    return report


def _box_check(name: str, got: BoxTable | None, expected: BoxTable) -> CrossCheck:
    passed = got is not None and got == expected
    return CrossCheck(name, passed, "exact table comparison")


def _scalar_check(name: str, got: Scalar, expected: Scalar) -> CrossCheck:
    return CrossCheck(name, got == expected, f"expected {expected}, got {got}")


def _coerce_xi(xi) -> Scalar:
    xi = xi if isinstance(xi, Scalar) else Scalar(xi)
    if not (ZERO <= xi <= ONE):
        raise ValidationError(f"swap scenarios need xi in [0, 1], got {xi}")
    return xi


def swap_two(m: int, n: int, xi1=1, xi2=1) -> ScenarioReport:
    """One coupler joining an m-party and an n-party isotropic box.

    Success leaves the surviving m+n-2 parties an isotropic box of weight
    xi1*xi2; failure leaves the isotropic box of weight -xi1*xi2/2.  Both
    facts are attached as cross-checks.
    """
    if m < 2 or n < 2:
        raise ArityError("swap_two needs m, n >= 2")
    xi1, xi2 = _coerce_xi(xi1), _coerce_xi(xi2)
    left = tuple(f"a{i}" for i in range(1, m)) + ("b1",)
    right = ("b2",) + tuple(f"c{i}" for i in range(1, n))
    spec = ScenarioSpec(
        name=f"swap-two-{m}x{n}",
        boxes=(
            ScenarioBox("left", "isotropic", m, left, xi1),
            ScenarioBox("right", "isotropic", n, right, xi2),
        ),
        couplers=(ScenarioCoupler(2, ("b1", "b2")),),
    )
    report = run_scenario(spec)
    product = xi1 * xi2
    out = m + n - 2
    third = Scalar(Fraction(1, 3))
    success = report.branch((0,))
    fail = report.branch((1,))
    report.crosschecks += [
        _scalar_check("success-probability", success.probability, third),
        _box_check("success-box-isotropic-product-weight", success.box, isotropic(out, product)),
        _scalar_check("failure-probability", fail.probability, ONE - third),
        _box_check(
            "failure-box-isotropic-negative-half-weight",
            fail.box,
            isotropic(out, -(product / 2)),
        ),
    ]
    return report


def swap_many(arities: Sequence[int], xis: Sequence | None = None) -> ScenarioReport:
    """One N-end coupler swapping N isotropic boxes in a single shot.

    The success branch carries probability 1/3 and isotropic weight equal to
    the product of the input weights, independent of N — the whole point of
    the multi-end coupler over a cascade of pairwise swaps.
    """
    arities = list(arities)
    if len(arities) < 2:
        raise ArityError("swap_many needs at least two boxes")
    if any(a < 2 for a in arities):
        raise ArityError("every box in swap_many needs n >= 2")
    if xis is None:
        xis = [ONE] * len(arities)
    xis = [_coerce_xi(x) for x in xis]
    if len(xis) != len(arities):
        raise ArityError("swap_many needs one xi per box")
    boxes = []
    consumed = []
    for i, (a, xi) in enumerate(zip(arities, xis), start=1):
        parties = tuple(f"g{i}p{j}" for j in range(1, a)) + (f"b{i}",)
        consumed.append(f"b{i}")
        boxes.append(ScenarioBox(f"g{i}", "isotropic", a, parties, xi))
    spec = ScenarioSpec(
        name=f"swap-many-{'x'.join(str(a) for a in arities)}",
        boxes=tuple(boxes),
        couplers=(ScenarioCoupler(len(arities), tuple(consumed)),),
    )
    report = run_scenario(spec)
    product = ONE
    for xi in xis:
        product = product * xi
    out = sum(arities) - len(arities)
    third = Scalar(Fraction(1, 3))
    success = report.branch((0,))
    fail = report.branch((1,))
    report.crosschecks += [
        _scalar_check("success-probability", success.probability, third),
        _box_check("success-box-isotropic-product-weight", success.box, isotropic(out, product)),
        _scalar_check("failure-probability", fail.probability, ONE - third),
        _box_check(
            "failure-box-isotropic-negative-half-weight",
            fail.box,
            isotropic(out, -(product / 2)),
        ),
    ]
    return report


def hybrid_three() -> ScenarioReport:
    """Three users build a tripartite box out of six bipartite PR boxes.

    Each neighboring pair shares two PR boxes whose inner ends meet in a
    two-end coupler; the outer ends are wired (shared input, XOR output)
    into one user each.  Grouped by the number k of failed couplers, the
    conditional boxes interpolate between the Svetlichny box (k=0) and
    ever more washed-out mixtures, each attached as a cross-check.
    """
    spec = ScenarioSpec(
        name="hybrid-three",
        boxes=(
            ScenarioBox("g1", "pr", 2, ("a1", "b1")),
            ScenarioBox("g2", "pr", 2, ("c2", "b2")),
            ScenarioBox("g3", "pr", 2, ("c1", "b3")),
            ScenarioBox("g4", "pr", 2, ("d2", "b4")),
            ScenarioBox("g5", "pr", 2, ("d1", "b5")),
            ScenarioBox("g6", "pr", 2, ("a2", "b6")),
        ),
        couplers=(
            ScenarioCoupler(2, ("b1", "b2")),
            ScenarioCoupler(2, ("b3", "b4")),
            ScenarioCoupler(2, ("b5", "b6")),
        ),
        wirings=(
            ScenarioWiring(("a1", "a2"), "a"),
            ScenarioWiring(("c1", "c2"), "c"),
            ScenarioWiring(("d1", "d2"), "d"),
        ),
    )
    report = run_scenario(spec)
    base = mixed(3)
    svet = sb()
    expected_box = {
        0: svet,
        1: mix([(Scalar(Fraction(3, 2)), base), (Scalar(Fraction(-1, 2)), svet)]),
        2: mix([(Scalar(Fraction(3, 4)), base), (Scalar(Fraction(1, 4)), svet)]),
        3: mix([(Scalar(Fraction(9, 8)), base), (Scalar(Fraction(-1, 8)), svet)]),
    }
    group_probability = {
        0: Scalar(Fraction(1, 27)),
        1: Scalar(Fraction(6, 27)),
        2: Scalar(Fraction(12, 27)),
        3: Scalar(Fraction(8, 27)),
    }
    groups = []
    for k in range(4):
        members = [r for r in report.branches if sum(r.outcome) == k]
        mass = ZERO
        for r in members:
            mass = mass + r.probability
        per_branch = Scalar(Fraction(1, 3**3)) * Scalar(2) ** k
        for r in members:
            report.crosschecks.append(
                _scalar_check(
                    f"branch-{''.join(map(str, r.outcome))}-probability",
                    r.probability,
                    per_branch,
                )
            )
            report.crosschecks.append(
                _box_check(
                    f"branch-{''.join(map(str, r.outcome))}-box",
                    r.box,
                    expected_box[k],
                )
            )
        report.crosschecks.append(
            _scalar_check(f"group-{k}-failures-probability", mass, group_probability[k])
        )
        groups.append(
            {
                "failures": k,
                "probability": mass,
                "branches": [list(r.outcome) for r in members],
            }
        )
    report.groups = groups
    return report


@dataclass
class EfficiencyComparison:
    """Resource count for building an n-party box: pairwise cascade vs one
    n-end coupler."""

    n: int
    pairwise_boxes: int
    pairwise_probability: Scalar
    coupler_boxes: int
    coupler_probability: Scalar


def efficiency_compare(n: int) -> EfficiencyComparison:
    if n < 2:
        raise ArityError("efficiency comparison needs n >= 2")
    pairs = n * (n - 1) // 2
    return EfficiencyComparison(
        n=n,
        pairwise_boxes=n * (n - 1),
        pairwise_probability=Scalar(Fraction(1, 3**pairs)),
        coupler_boxes=n,
        coupler_probability=Scalar(Fraction(1, 3)),
    )
