"""Swap scenarios: boxes wired through couplers, reported exactly.

A scenario is declarative: named boxes over labeled parties, couplers that
consume some of those labels (optionally conditioned on an outcome bit),
wirings that merge pairs of surviving labels into one user (shared input,
XOR of outputs), and the list of functionals to report on the final boxes.

The engine keeps one table per independent group of parties ("pool") and
couples pools together only when a coupler spans them.  At the end each
branch folds its pools left to right, all the wirings between the fold and
the next pool in one ``wired`` join, so a ring of N users peaks at N
parties.  One store per run keeps each coupler application, fold step and
report under the values (``content_key``) of the tables it is made from:
each coupler is applied once per distinct value of the pools it spans, and
each fold step runs once per distinct value of the fold and the pool,
whichever branches reach them.  The shape work (validation, the party cap
of every product a run would build, where each coupler's pools lie, the
fold's steps) is planned once per spec shape (``_plan``), and a run handles
only values.  Every probability is exact; branch
probabilities over all outcome assignments sum to one (a cross-check).

The builders (``swap_two``, ``swap_many``, ``hybrid_three``) check their
reports against one closed form, the swap law on isotropic boxes: each
coupler succeeds with probability 1/3 and multiplies the weights, or fails
with probability 2/3 and leaves weight -xi1*xi2/2 (``_swap_law``).
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import accumulate
from math import comb
from typing import Sequence

from .bell import BoundTriple, Classification, bounds, ch_evaluate, classify
from .boxes import (PARTY_CAP, WORD_ORDER, BoxTable, _check_cap, _isotropic, merge_parties,
                    named_box, tensor, validate, wired)
from .coupler import apply_coupler, build_coupler
from .errors import ArityError, CouplerInvalidError, SpecFileError, ValidationError
from .fileio import json_bit, json_positive_int, json_str
from .scalar import ONE, ZERO, Scalar, _reduced, qsign

REPORT_FUNCTIONALS = ("gsi", "ch")
BRANCH_CAP = 2**16  # the most branches a scenario may run: 2 per coupler without an outcome


class _Record:
    """A record whose fields are its ``__slots__``, in order, compared and shown field by
    field; a record class that is immutable by convention hashes with ``_Record._hash``."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def _hash(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"


class ScenarioBox(_Record):
    """One named box in a scenario: either a named family (``kind`` plus the
    family's parameters) or ``kind="inline"`` with an explicit table."""

    __slots__ = ("name", "kind", "n", "parties", "xi", "table")
    __hash__ = _Record._hash

    def __init__(self, name: str, kind: str, n: int, parties: tuple,
                 xi: Scalar | None = None, table: BoxTable | None = None):
        self.name, self.kind, self.n, self.parties = name, kind, n, parties
        self.xi, self.table = xi, table

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


class ScenarioCoupler(_Record):
    __slots__ = ("arity", "consumed", "outcome")
    __hash__ = _Record._hash

    def __init__(self, arity: int, consumed: tuple, outcome: int | None = None):
        self.arity, self.consumed, self.outcome = arity, consumed, outcome

    def to_json(self) -> dict:
        return {"arity": self.arity, "consumed": list(self.consumed)}


class ScenarioWiring(_Record):
    __slots__ = ("pair", "merged")
    __hash__ = _Record._hash

    def __init__(self, pair: tuple, merged: str):
        self.pair, self.merged = pair, merged

    def to_json(self) -> dict:
        return {"pair": list(self.pair), "merged": self.merged}


class ScenarioSpec(_Record):
    __slots__ = ("name", "boxes", "couplers", "wirings", "reports")
    __hash__ = _Record._hash

    def __init__(self, name: str, boxes: tuple, couplers: tuple = (), wirings: tuple = (),
                 reports: tuple = ("gsi",)):
        self.name, self.boxes, self.couplers = name, boxes, couplers
        self.wirings, self.reports = wirings, reports

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
            n = json_positive_int(item.get("n", len(parties)), "box 'n'")
            if n > PARTY_CAP:
                raise SpecFileError(f"box entry has n={n} parties; the cap is {PARTY_CAP}")
            xi = item.get("xi")
            table = item.get("table")
            boxes.append(
                ScenarioBox(
                    name=json_str(item.get("name", f"box{len(boxes) + 1}"), "box 'name'"),
                    kind=json_str(item.get("kind", "inline" if table is not None else ""),
                                  "box 'kind'"),
                    n=n,
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
            couplers.append(
                ScenarioCoupler(
                    arity=json_positive_int(item.get("arity", len(consumed)), "coupler 'arity'"),
                    consumed=tuple(json_str(p, "consumed label") for p in consumed),
                    outcome=json_bit(item.get("outcome"), "coupler 'outcome'"),
                )
            )
        condition = data.get("condition")
        if condition is not None:
            if not isinstance(condition, list) or len(condition) != len(couplers):
                raise SpecFileError("'condition' must list one entry per coupler")
            merged = []
            for c, bit in zip(couplers, condition):
                bit = json_bit(bit, "'condition' entry")
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


class CrossCheck(_Record):
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = ""):
        self.name, self.passed, self.detail = name, passed, detail

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


class BranchRecord(_Record):
    __slots__ = ("outcome", "probability", "box", "functionals", "classification",
                 "bound_triple", "validation")

    def __init__(self, outcome: tuple, probability: Scalar, box: BoxTable | None,
                 functionals: dict, classification: Classification | None,
                 bound_triple: BoundTriple | None, validation: object):
        self.outcome, self.probability, self.box = outcome, probability, box
        self.functionals, self.classification = functionals, classification
        self.bound_triple, self.validation = bound_triple, validation

    def to_json(self) -> dict:
        """The branch document.  Its box document shares its value dicts
        across its cells, so treat it as read-only."""
        return self._json(_Fragments())

    def _json(self, f: "_Fragments") -> dict:
        return {
            "outcome": list(self.outcome),
            "probability": self.probability.to_json(),
            "probability_decimal": self.probability.decimal(),
            "box": f.shared(self.box),
            "functionals": f.shared(self.functionals, lambda values: {
                name: {"value": value.to_json(), "decimal": value.decimal()}
                for name, value in sorted(values.items())
            }),
            "classification": f.shared(self.classification),
            "bounds": f.shared(self.bound_triple),
            "validation": f.shared(self.validation),
        }


class _Fragments(dict):
    """The documents of one report's boxes, functionals dicts,
    classifications, bound triples and validations by object identity,
    each built once and placed wherever it recurs (``_report`` gives
    branches whose boxes are equal one box and one set of results, and
    ``writer.report_text`` shares their texts alike).  The report holds
    every object keyed by identity while it is built, so no id is reused."""

    def shared(self, obj, build=None) -> dict | None:
        """``build(obj)``, by default ``obj.to_json()``, once per object;
        None for None."""
        if obj is None:
            return None
        doc = self.get(id(obj))
        if doc is None:
            doc = self[id(obj)] = obj.to_json() if build is None else build(obj)
        return doc


class ScenarioReport(_Record):
    __slots__ = ("scenario", "parties", "branches", "total_probability", "crosschecks",
                 "groups")

    def __init__(self, scenario: str, parties: tuple, branches: list, total_probability: Scalar,
                 crosschecks: list | None = None, groups: list | None = None):
        self.scenario, self.parties, self.branches = scenario, parties, branches
        self.total_probability, self.groups = total_probability, groups
        # a list of its own: the swap builders extend it in place
        self.crosschecks = [] if crosschecks is None else crosschecks

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
        """The report document.  Each distinct box document, functionals
        dict, classification, bound triple and validation dict is built
        once and is one object wherever it recurs (as a box document's
        value dicts are), so treat the document as read-only."""
        f = _Fragments()
        doc = {
            "scenario": self.scenario,
            "order": WORD_ORDER,
            "parties": list(self.parties),
            "branches": [b._json(f) for b in self.branches],
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


def _validate_spec(boxes: tuple, couplers: tuple, wirings: tuple, reports: tuple) -> None:
    """Check a spec's shape, given as ``_plan``'s key."""
    if not boxes:
        raise SpecFileError("scenario needs at least one box")
    names = [box[0] for box in boxes]
    if len(set(names)) != len(names):
        raise SpecFileError("box names must be unique")
    labels = [p for box in boxes for p in box[3]]
    if len(set(labels)) != len(labels):
        raise SpecFileError("party labels must be unique across boxes")
    label_set = set(labels)
    for name, kind, n, parties, table_n in boxes:
        if len(parties) != n:
            raise SpecFileError(f"box {name!r} declares n={n} but lists {len(parties)} parties")
        if kind == "inline":
            if table_n is None:
                raise SpecFileError(f"inline box {name!r} needs a 'table'")
            if table_n != n:
                raise SpecFileError(
                    f"inline box {name!r} table has {table_n} parties, expected {n}"
                )
        elif table_n is not None:
            raise SpecFileError(f"box {name!r} has kind {kind!r} and an inline table")
    consumed_all = [p for coupler in couplers for p in coupler[1]]
    if len(set(consumed_all)) != len(consumed_all):
        raise SpecFileError("a party label may be consumed by at most one coupler")
    for arity, consumed, outcome, _ in couplers:
        if arity > PARTY_CAP:
            raise SpecFileError(f"coupler arity {arity} is over the party cap {PARTY_CAP}")
        if arity != len(consumed):
            raise SpecFileError(f"coupler arity {arity} != {len(consumed)} consumed labels")
        missing = [p for p in consumed if p not in label_set]
        if missing:
            raise SpecFileError(f"coupler consumes unknown labels {missing}")
        json_bit(outcome, "coupler 'outcome'")
    consumed_set = set(consumed_all)
    wired = []
    for pair, merged in wirings:
        if pair[0] == pair[1]:
            raise SpecFileError(f"wiring pair must name two distinct labels: {pair}")
        if not merged:
            raise SpecFileError("wiring needs a nonempty merged label")
        for p in pair:
            if p not in label_set:
                raise SpecFileError(f"wiring references unknown label {p!r}")
            if p in consumed_set:
                raise SpecFileError(f"wiring references consumed label {p!r}")
        wired.extend(pair)
    if len(set(wired)) != len(wired):
        raise SpecFileError("a party label may appear in at most one wiring")
    merged_names = [merged for _, merged in wirings]
    if set(merged_names) & label_set or len(set(merged_names)) != len(merged_names):
        raise SpecFileError("merged labels must be fresh and unique")
    for r in reports:
        if r not in REPORT_FUNCTIONALS:
            raise SpecFileError(f"unknown report functional {r!r}; expected {REPORT_FUNCTIONALS}")


def _shape(spec: ScenarioSpec) -> tuple:
    """``_plan``'s key: the spec's boxes, couplers, wirings and reports as
    tuples, with no value (no ``xi``, of a table its party count only); an
    outcome goes with its type, so True or 1.0 never finds the plan for 1."""
    return (tuple([(b.name, b.kind, b.n, tuple(b.parties), None if b.table is None else b.table.n)
                   for b in spec.boxes]),
            tuple([(c.arity, tuple(c.consumed), c.outcome, type(c.outcome))
                   for c in spec.couplers]),
            tuple([(tuple(w.pair), w.merged) for w in spec.wirings]),
            tuple(spec.reports))


@lru_cache(maxsize=256)
def _plan(boxes: tuple, couplers: tuple, wirings: tuple, reports: tuple) -> tuple:
    """A run's shape work, once per ``_shape``: the spec validated, then per
    coupler (its effect, consumed labels, kept outcome or None, the pools it
    spans, its positions in their joint, the surviving pool's slot and the
    other pools after it), and ``_fold_plan``'s final labels and steps.
    The branch count goes through ``BRANCH_CAP``, then each product of pools
    that a coupler's joint and the fold would build through the party cap, in
    run order, so an over-cap spec is refused, as the run would, unbuilt."""
    _validate_spec(boxes, couplers, wirings, reports)
    free = sum(c[2] is None for c in couplers)  # the couplers without an outcome
    if 2**free > BRANCH_CAP:
        raise SpecFileError(f"{free} couplers without an outcome make 2**{free} branches; "
                            f"the cap is {BRANCH_CAP}")
    layout, coupled = [list(box[3]) for box in boxes], []
    for arity, consumed, outcome, _ in couplers:
        effect, ends = build_coupler(arity), set(consumed)
        involved = tuple([i for i, group in enumerate(layout) if not ends.isdisjoint(group)])
        for n in list(accumulate([len(layout[i]) for i in involved]))[1:]:  # reduce(tensor, ...)
            _check_cap(n)
        labels = [p for i in involved for p in layout[i]]
        at = involved[0]
        coupled.append((effect, consumed, outcome, involved,
                        tuple([labels.index(p) + 1 for p in consumed]), at,
                        tuple([i for i in range(at + 1, len(layout)) if i not in involved])))
        layout = [group for i, group in enumerate(layout) if i not in involved]
        layout.insert(at, [p for p in labels if p not in ends])
    return tuple(coupled), *_fold_plan(layout, wirings)


def _recalled(store: dict | None, what, tables, build, *args):
    """``build(*args)``, kept in the run's ``store`` under ``what`` else it
    depends on (consumed labels, fold position and pairs, or None) and its
    ``tables``' ``content_key``s; the store is None for one branch: no key."""
    if store is None:
        return build(*args)
    key = (what, *map(BoxTable.content_key, tables))
    found = store.get(key)
    if found is None:
        found = store[key] = build(*args)
    return found


def _coupled(effect, consumed: tuple, pools, positions, outcome: tuple) -> tuple:
    """Apply one coupler at ``positions`` of the joint of the boxes ``pools``:
    one (branch, probability, survivors' box or None) per coupler outcome.
    ``outcome`` is the branch path that first reached these pools, named if
    the coupler fails."""
    try:
        results = apply_coupler(effect, reduce(tensor, pools), positions)
    except CouplerInvalidError as exc:
        path = "".join(str(b) for b in outcome) or "(root)"
        raise CouplerInvalidError(
            exc.branch,
            f"coupler on {list(consumed)} after branch path {path}: {exc}",
        ) from exc
    return tuple((r.branch, r.probability, r.box) for r in results)


def _fold_plan(layout: list, wirings: tuple) -> tuple[tuple, tuple]:
    """The labels after folding the pools of ``layout`` left to right and,
    per pool, the (fold, pool) parties of the wirings, each a (pair, merged
    label), it closes with the fold and the pairs of those then inside the
    fold, each merged into its earlier slot.  Each join's party count goes
    through the party cap, as ``wired`` and ``tensor`` would check it."""
    labels, steps = [], []
    for pool in layout:
        ends = [(labels.index(p) + 1, pool.index(q) + 1, merged)
                for pair, merged in wirings for p, q in (pair, pair[::-1])
                if p in labels and q in pool]
        if ends:
            names = {labels[i - 1]: name for i, _, name in ends}
            gone = {pool[j - 1] for _, j, _ in ends}
            labels = [names.get(p, p) for p in labels] + [q for q in pool if q not in gone]
        else:
            labels = labels + pool
        if steps:  # the first pool joins nothing
            _check_cap(len(labels))
        inside = []
        for (p, q), merged in wirings:
            if p in labels and q in labels:
                i, j = labels.index(p) + 1, labels.index(q) + 1
                inside.append((i, j))
                labels[min(i, j) - 1] = merged
                del labels[max(i, j) - 1]
        steps.append((tuple([(i, j) for i, j, _ in ends]), tuple(inside)))
    return tuple(labels), tuple(steps)


def _assembled(pools, steps: tuple, store: dict | None) -> BoxTable:
    """The fold of the boxes ``pools`` by ``_fold_plan``'s steps, each but a
    bare first pool recalled by its position and pairs and the fold's and
    pool's values."""
    box = None
    for k, (pool, (pairs, inside)) in enumerate(zip(pools, steps)):
        box = pool if box is None and not inside else _recalled(
            store, (k, pairs), (pool,) if box is None else (box, pool),
            _folded, box, pool, pairs, inside)
    return box


def _folded(box, other: BoxTable, pairs: tuple, inside: tuple) -> BoxTable:
    """One step: one ``wired`` join takes every wiring that ``other`` closes
    with the fold (so a ring of N users peaks at N parties), or ``other`` is
    tensored on; a wiring inside goes through ``merge_parties``."""
    box = other if box is None else wired(box, other, pairs) if pairs else tensor(box, other)
    for i, j in inside:
        box = merge_parties(box, i, j)
    return box


def run_scenario(spec: ScenarioSpec) -> ScenarioReport:
    """Execute the scenario and report every (kept) outcome branch exactly."""
    coupled, labels, steps = _plan(*_shape(spec))
    start_pools = []
    for b in spec.boxes:
        if b.table is not None and not validate(b.table).all_ok:
            raise ValidationError(f"inline box {b.name!r} is not a valid box")
        start_pools.append(b.table if b.table is not None else named_box(b.kind, b.n, b.xi))
    # a branch is (outcome, weight, pools), each pool the box of one group of
    # parties in the plan's layout, and pools is None once it had zero mass
    branches = [((), ONE, start_pools)]
    store: dict = {}  # the run's results, keyed by value (``_recalled``)

    for effect, consumed, kept, involved, positions, at, after in coupled:
        shared = store if len(branches) > 1 else None
        grown = []
        for outcome, weight, pools in branches:
            if pools is None:
                grown.append((outcome + (None,), weight, None))
                continue
            joint = [pools[i] for i in involved]
            results = _recalled(shared, consumed, joint, _coupled, effect, consumed, joint,
                                positions, outcome)
            for branch, probability, pool in results if kept is None else (results[kept],):
                if pool is None:
                    grown.append((outcome + (branch,), ZERO, None))
                else:
                    grown.append((outcome + (branch,), weight * probability,
                                  pools[:at] + [pool] + [pools[i] for i in after]))
        branches = grown

    shared = store if len(branches) > 1 else None
    return _report(spec, ((outcome, ZERO, (), None) if pools is None
                          else (outcome, weight, labels, _assembled(pools, steps, shared))
                          for outcome, weight, pools in branches), shared)


def _report(spec: ScenarioSpec, finals, store: dict | None = None) -> ScenarioReport:
    """Evaluate the spec's reports on each final branch, given in order as
    (outcome, probability, labels, box), with box None where an outcome had
    zero mass, and attach the cross-checks every scenario gets.  With a
    ``store``, branches whose boxes are equal (in either form) share one box
    and one set of results (``_recalled``): each is evaluated once."""
    records = []
    final_parties: tuple = ()
    for outcome, weight, labels, box in finals:
        if box is None:
            records.append(BranchRecord(outcome, ZERO, None, {}, None, None, None))
            continue
        found = _recalled(store, None, (box,), _evaluated, spec, box)
        records.append(BranchRecord(outcome, weight, *found))
        final_parties = tuple(labels)

    total = sum((r.probability for r in records), ZERO)
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


def _evaluated(spec: ScenarioSpec, box: BoxTable) -> tuple:
    """(box, functionals, classification, bound triple, validation) of one
    final box under the spec's reports."""
    functionals, classification, bound_triple = {}, None, None
    for r in spec.reports:
        if r == "gsi":
            classification = classify(box)
            functionals["gsi"] = classification.value
            bound_triple = bounds(box.n)
        elif r == "ch":
            if box.n != 2:
                raise SpecFileError(f"scenario {spec.name!r} asks for 'ch' on a {box.n}-party box")
            functionals["ch"] = ch_evaluate(box)
    return box, functionals, classification, bound_triple, validate(box)


def _box_check(name: str, got: BoxTable | None, expected: BoxTable) -> CrossCheck:
    passed = got is not None and got == expected
    return CrossCheck(name, passed, "exact table comparison")


def _scalar_check(name: str, got: Scalar, expected: Scalar) -> CrossCheck:
    return CrossCheck(name, got == expected, f"expected {expected}, got {got}")


@lru_cache(maxsize=256)
def _law(outcome: tuple) -> tuple:
    """(k failures, both check names, 2**k / 3**c) of an outcome of c couplers."""
    k, label = sum(outcome), "".join(map(str, outcome))
    return (k, f"branch-{label}-probability", f"branch-{label}-box",
            _reduced(2**k, 0, 3 ** len(outcome)))


def _swap_law(report: ScenarioReport, out: int, weight: Scalar) -> list:
    """The swap law on isotropic boxes, checked branch by branch: each
    coupler succeeds with probability 1/3 and multiplies the weights, or
    fails with probability 2/3 and halves them with a sign flip.  A branch
    with k failures among c couplers therefore has probability
    2**k / 3**c and leaves ``isotropic(out, weight * (-1/2)**k)``.  The
    weights lie in [-1, 1], so the boxes are built without the range check,
    and both values are reduced straight from their integers (``_reduced``:
    their denominators are positive)."""
    checks = []
    for r in report.branches:
        k, probability_name, box_name, expected = _law(r.outcome)
        checks += [
            _scalar_check(probability_name, r.probability, expected),
            _box_check(box_name, r.box,
                       _isotropic("isotropic", out,
                                  _reduced((-1) ** k * weight.r, (-1) ** k * weight.s,
                                           weight.d << k))),
        ]
    return checks


def _coerce_xi(xi) -> Scalar:
    xi = xi if isinstance(xi, Scalar) else Scalar(xi)
    # 0 <= xi <= 1 by two signs: of xi and of 1 - xi, both over xi.d > 0
    if qsign(xi.r, xi.s) < 0 or qsign(xi.d - xi.r, -xi.s) < 0:
        raise ValidationError(f"swap scenarios need xi in [0, 1], got {xi}")
    return xi


def _isotropic_swap(name: str, boxes: Sequence[ScenarioBox], consumed: tuple) -> ScenarioReport:
    """One coupler on the ``consumed`` ends of labelled isotropic boxes,
    reported with the swap law attached."""
    spec = ScenarioSpec(name=name, boxes=tuple(boxes),
                        couplers=(ScenarioCoupler(len(consumed), consumed),))
    report = run_scenario(spec)
    weight = ONE
    for b in boxes:
        weight = weight * b.xi
    report.crosschecks += _swap_law(report, sum(b.n for b in boxes) - len(consumed), weight)
    return report


def swap_two(m: int, n: int, xi1=1, xi2=1) -> ScenarioReport:
    """One coupler joining an m-party and an n-party isotropic box.

    Success leaves the surviving m+n-2 parties an isotropic box of weight
    xi1*xi2; failure leaves the isotropic box of weight -xi1*xi2/2.  Both
    facts are attached as cross-checks.
    """
    if m < 2 or n < 2:
        raise ArityError("swap_two needs m, n >= 2")
    left = tuple(f"a{i}" for i in range(1, m)) + ("b1",)
    right = ("b2",) + tuple(f"c{i}" for i in range(1, n))
    boxes = (ScenarioBox("left", "isotropic", m, left, _coerce_xi(xi1)),
             ScenarioBox("right", "isotropic", n, right, _coerce_xi(xi2)))
    return _isotropic_swap(f"swap-two-{m}x{n}", boxes, ("b1", "b2"))


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
    xis = [ONE] * len(arities) if xis is None else [_coerce_xi(x) for x in xis]
    if len(xis) != len(arities):
        raise ArityError("swap_many needs one xi per box")
    boxes = []
    for i, (a, xi) in enumerate(zip(arities, xis), start=1):
        parties = tuple(f"g{i}p{j}" for j in range(1, a)) + (f"b{i}",)
        boxes.append(ScenarioBox(f"g{i}", "isotropic", a, parties, xi))
    consumed = tuple(f"b{i}" for i in range(1, len(arities) + 1))
    return _isotropic_swap(f"swap-many-{'x'.join(map(str, arities))}", boxes, consumed)


def hybrid_three() -> ScenarioReport:
    """Three users build a tripartite box out of six bipartite PR boxes.

    Each neighboring pair shares two PR boxes whose inner ends meet in a
    two-end coupler; the outer ends are wired (shared input, XOR output)
    into one user each.  Grouped by the number k of failed couplers, the
    conditional boxes follow the swap law, from the Svetlichny box (k=0)
    to ever more washed-out isotropic boxes; the law and the group
    probabilities C(3, k) * 2**k / 27 are attached as cross-checks.
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
    report.crosschecks += _swap_law(report, 3, ONE)
    report.groups = []
    for k in range(4):
        members = [r for r in report.branches if sum(r.outcome) == k]
        mass = sum((r.probability for r in members), ZERO)
        report.crosschecks.append(_scalar_check(f"group-{k}-failures-probability", mass,
                                                Scalar.rational(comb(3, k) * 2**k, 27)))
        report.groups.append({"failures": k, "probability": mass,
                              "branches": [list(r.outcome) for r in members]})
    return report


class EfficiencyComparison(_Record):
    """Resource count for building an n-party box: pairwise cascade vs one
    n-end coupler."""

    __slots__ = ("n", "pairwise_boxes", "pairwise_probability", "coupler_boxes",
                 "coupler_probability")

    def __init__(self, n: int, pairwise_boxes: int, pairwise_probability: Scalar,
                 coupler_boxes: int, coupler_probability: Scalar):
        self.n, self.pairwise_boxes = n, pairwise_boxes
        self.pairwise_probability = pairwise_probability
        self.coupler_boxes, self.coupler_probability = coupler_boxes, coupler_probability


def efficiency_compare(n: int) -> EfficiencyComparison:
    if n < 2:
        raise ArityError("efficiency comparison needs n >= 2")
    pairs = n * (n - 1) // 2
    return EfficiencyComparison(
        n=n,
        pairwise_boxes=n * (n - 1),
        pairwise_probability=Scalar.rational(1, 3**pairs),
        coupler_boxes=n,
        coupler_probability=Scalar.rational(1, 3),
    )
