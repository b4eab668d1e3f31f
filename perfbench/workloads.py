"""Seeded request rounds for the benchmark workloads, with their output checks.

A round is a fixed list of requests.  The seed picks the weights inside each
request's fixed weight class and shuffles the order of each round; it never
changes what a round contains.  Every request is checked after it returns,
outside its timed interval: ``check`` returns None when the output is right
and a one-line problem otherwise.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "reference_digests.json"

# Weight classes as (rational part, sqrt(2) part).  Every value lies strictly
# inside (0, 1), so isotropic tables are fully dense whatever the pick; every
# sqrt(2)-bearing value has both parts nonzero, so products of two picks keep
# a nonzero sqrt(2) part.  The cost of a request then depends on its class,
# not on the seed.
WEIGHT_CLASSES = {
    "dyadic": ((Fraction(1, 2), 0), (Fraction(1, 4), 0), (Fraction(3, 4), 0),
               (Fraction(3, 8), 0), (Fraction(5, 8), 0)),
    "rational": ((Fraction(2, 3), 0), (Fraction(7, 10), 0), (Fraction(3, 5), 0),
                 (Fraction(5, 7), 0), (Fraction(4, 9), 0)),
    "sqrt2": ((Fraction(1, 2), Fraction(1, 4)), (Fraction(1, 4), Fraction(1, 4)),
              (Fraction(1, 8), Fraction(1, 4)), (Fraction(3, 8), Fraction(1, 4)),
              (Fraction(1, 4), Fraction(1, 8))),
}
WIDE_SHAPES = (("swap_two", (3, 3)), ("swap_two", (3, 4)), ("swap_many", (2, 2, 3)))
# single-coupler documents: (shape, arities, weight class)
DOCUMENT_SWAPS = (("swap_two", (2, 2), "dyadic"), ("swap_two", (2, 3), "rational"),
                  ("swap_many", (2, 2, 2), "sqrt2"))


class CliRequest:
    """``boxswap.cli.main(argv)`` writing its report to ``output``."""

    def __init__(self, label, cli, argv, output: Path, expect):
        self.label, self.cli, self.argv, self.output = label, cli, argv, output
        self.expect = expect  # bytes -> problem or None
        self.nbytes = 0

    def prepare(self) -> None:
        self.output.unlink(missing_ok=True)
        self.nbytes = 0

    def __call__(self):
        return self.cli.main(self.argv)  # looked up per call, so the tracer sees it

    def check(self, rc) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        data = self.output.read_bytes()
        self.nbytes = len(data)
        return self.expect(data)


class CallRequest:
    """One library call returning a scenario report."""

    nbytes = 0

    def __init__(self, label, fn, args, expect):
        self.label, self.fn, self.args, self.expect = label, fn, args, expect

    def prepare(self) -> None:
        pass

    def __call__(self):
        return self.fn(*self.args)

    def check(self, report) -> str | None:
        return self.expect(report)


def reference() -> dict:
    """sha256 of the JSON report of every ``reproduce`` check and every
    bundled scenario document, as produced by ``run.py --print-digests``."""
    return json.loads(DIGESTS.read_text())


def _digest(expected: str):
    def expect(data: bytes):
        got = hashlib.sha256(data).hexdigest()
        return None if got == expected else f"sha256 {got[:12]} != reference {expected[:12]}"
    return expect


def _weights(boxswap, rng, cls: str, count: int) -> list:
    return [boxswap.Scalar(*rng.choice(WEIGHT_CLASSES[cls])) for _ in range(count)]


def _product(boxswap, weights):
    product = boxswap.ONE
    for w in weights:
        product = product * w
    return product


def _success_is_isotropic(boxswap, out_parties: int, weights):
    """The swap law: success at 1/3, leaving isotropic(out, product of weights)."""
    third = boxswap.Scalar(Fraction(1, 3))
    expected = []  # computed on first use, outside the timed interval

    def expect(probability, box) -> str | None:
        if not expected:
            expected.append(boxswap.isotropic(out_parties, _product(boxswap, weights)))
        if probability != third:
            return f"success probability {probability} != 1/3"
        if box != expected[0]:
            return "success box is not isotropic at the product weight"
        return None
    return expect


def _checks(boxswap, rng, workdir: Path) -> list:
    digests = reference()["checks"]
    output = workdir / "out.json"
    return [
        CliRequest(f"check:{name}", boxswap.cli,
                   ["reproduce", "--filter", name, "--format", "json", "--output", str(output)],
                   output, _digest(digest))
        for name, digest in digests.items()
    ]


def _ring(boxswap, name, weights):
    """Three users, six isotropic boxes, three couplers: the hybrid_three shape."""
    S = boxswap
    parties = (("a1", "b1"), ("c2", "b2"), ("c1", "b3"), ("d2", "b4"), ("d1", "b5"), ("a2", "b6"))
    return S.ScenarioSpec(
        name=name,
        boxes=tuple(S.ScenarioBox(f"g{i}", "isotropic", 2, p, w)
                    for i, (p, w) in enumerate(zip(parties, weights), start=1)),
        couplers=tuple(S.ScenarioCoupler(2, (f"b{i}", f"b{i + 1}")) for i in (1, 3, 5)),
        wirings=tuple(S.ScenarioWiring((f"{u}1", f"{u}2"), u) for u in "acd"),
    )


def _swap_doc(boxswap, name, arities, weights):
    """One coupler consuming the last party of each isotropic box."""
    S = boxswap
    boxes = []
    for i, (n, w) in enumerate(zip(arities, weights), start=1):
        parties = tuple(f"g{i}p{j}" for j in range(1, n)) + (f"b{i}",)
        boxes.append(S.ScenarioBox(f"g{i}", "isotropic", n, parties, w))
    consumed = tuple(f"b{i}" for i in range(1, len(arities) + 1))
    return S.ScenarioSpec(name=name, boxes=tuple(boxes),
                          couplers=(S.ScenarioCoupler(len(arities), consumed),))


def _generated_check(success=None):
    """Exit code 0 is checked by the request; here every cross-check must pass,
    and for a single-coupler swap the success branch must obey the swap law."""
    def expect(data: bytes) -> str | None:
        report = json.loads(data)
        failed = [c["name"] for c in report["crosschecks"] if not c["passed"]]
        if failed:
            return f"cross-checks failed: {failed}"
        return None if success is None else success(report)
    return expect


def _documents(boxswap, rng, workdir: Path) -> list:
    root = HERE.parent
    digests = reference()["documents"]
    output = workdir / "out.json"

    def request(label, doc: Path, expect):
        argv = ["run", str(doc), "--format", "json", "--output", str(output)]
        return CliRequest(label, boxswap.cli, argv, output, expect)

    requests = [request(f"doc:{name}", root / "scenarios" / f"{name}.json", _digest(digest))
                for name, digest in digests.items()]
    for cls in WEIGHT_CLASSES:
        name = f"ring-{cls}"
        path = workdir / f"{name}.json"
        boxswap.save_json(path, _ring(boxswap, name, _weights(boxswap, rng, cls, 6)).to_json())
        requests.append(request(f"doc:{name}", path, _generated_check()))
    for shape, arities, cls in DOCUMENT_SWAPS:
        name = f"{shape}-{'x'.join(map(str, arities))}-{cls}"
        weights = _weights(boxswap, rng, cls, len(arities))
        path = workdir / f"{name}.json"
        boxswap.save_json(path, _swap_doc(boxswap, name, arities, weights).to_json())
        law = _success_is_isotropic(boxswap, sum(arities) - len(arities), weights)

        def swap_law(report, law=law, S=boxswap):
            branch = next(b for b in report["branches"] if b["outcome"] == [0])
            box = None if branch["box"] is None else S.BoxTable.from_json(branch["box"])
            return law(S.Scalar.from_json(branch["probability"]), box)
        requests.append(request(f"doc:{name}", path, _generated_check(swap_law)))
    return requests


def _wide(boxswap, rng, workdir: Path) -> list:
    requests = []
    for shape, arities in WIDE_SHAPES:
        for cls in WEIGHT_CLASSES:
            if shape == "swap_two":
                weights = _weights(boxswap, rng, cls, 2)
                args = (*arities, *weights)
            else:
                weights = _weights(boxswap, rng, cls, len(arities))
                args = (arities, weights)
            law = _success_is_isotropic(boxswap, sum(arities) - len(arities), weights)

            def expect(report, law=law):
                if not report.all_checks_passed:
                    return "scenario cross-checks failed"
                success = report.branch((0,))
                return law(success.probability, success.box)
            label = f"wide:{shape}({','.join(map(str, arities))})/{cls}"
            requests.append(CallRequest(label, getattr(boxswap, shape), args, expect))
    return requests


BUILDERS = {"checks": _checks, "documents": _documents, "wide": _wide}


def build(name: str, seed: int, boxswap, workdir: Path):
    """The workload's round of requests, plus the generator that shuffles
    each round's order.  Documents are written into ``workdir``."""
    rng = random.Random(f"{name}:{seed}")
    return BUILDERS[name](boxswap, rng, workdir), rng
