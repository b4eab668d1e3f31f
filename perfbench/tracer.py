"""Span recorder for the traced benchmark run.

``Tracer.install`` wraps boxswap's public functions in every boxswap module
that holds a reference to them, so each call made by the library itself,
by the CLI or by the benchmark becomes a span.  ``Scalar`` arithmetic is
counted, not timed: every operator that builds its result directly is
wrapped.  Spans stay in memory; ``per_layer`` turns them into the per-layer
metrics and ``write`` dumps them as canonical JSON, one span per line.

Nothing here runs while the tracer is not installed: the untraced run never
imports or touches this module's wrappers.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# span name -> (module, attribute) of a function wrapped wherever it is referenced
FUNCTIONS = (
    ("boxes.tensor", "boxes", "tensor"),
    ("boxes.validate", "boxes", "validate"),
    ("boxes.merge_parties", "boxes", "merge_parties"),
    ("boxes.marginalize", "boxes", "marginalize"),
    ("boxes.mix", "boxes", "mix"),
    ("boxes.named", "boxes", "named_box"),
    ("bell.classify", "bell", "classify"),
    ("bell.evaluate", "bell", "evaluate"),
    ("coupler.apply_coupler", "coupler", "apply_coupler"),
    ("scenarios.run_scenario", "scenarios", "run_scenario"),
    ("fileio.load_json", "fileio", "load_json"),
    ("fileio.canonical_dumps", "fileio", "canonical_dumps"),
    ("cli.main", "cli", "main"),
)
# span name -> (module, class, method) of a method wrapped on its class
METHODS = (
    ("scenarios.from_json", "scenarios", "ScenarioSpec", "from_json"),
    ("output.to_json", "scenarios", "ScenarioReport", "to_json"),
    ("output.to_json", "checks", "CheckResult", "to_json"),
)
# Scalar operators that build their result directly; __rsub__, __rtruediv__
# and __pow__ only combine these, so counting them too would count twice.
SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__neg__", "__mul__", "__rmul__",
              "__truediv__", "inverse")

COUNTED = ("boxes.tensor", "boxes.validate", "boxes.merge_parties", "boxes.marginalize",
           "boxes.mix", "boxes.named", "bell.classify", "bell.evaluate",
           "coupler.apply_coupler", "scenarios.run_scenario")
SELF_TIMED = COUNTED + ("scenarios.from_json", "fileio.load_json", "fileio.canonical_dumps",
                        "output.to_json", "cli.main")


class Tracer:
    def __init__(self, boxswap):
        self.boxswap = boxswap
        self.spans = []  # dicts; a span's id is its index, a request's id is its root span's
        self.coupler_inputs = []  # (request id, args) of every apply_coupler call
        self.ops = self.surd_ops = self.den_bits_max = 0
        self._stack = []
        self._request = None
        self._restore = []

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        """Wrap what exists; a function a later version of boxswap drops
        simply records no spans."""
        modules = [m for name, m in sys.modules.items()
                   if name == "boxswap" or name.startswith("boxswap.")]
        for span_name, module, attr in FUNCTIONS:
            target = getattr(getattr(self.boxswap, module, None), attr, None)
            if target is None:
                continue
            wrapped = self._wrap(span_name, target)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is target:
                        self._patch(m, key, wrapped)
        for span_name, module, cls_name, attr in METHODS:
            cls = getattr(getattr(self.boxswap, module, None), cls_name, None)
            raw = vars(cls).get(attr) if cls is not None else None
            if isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(span_name, raw.__func__)))
            elif raw is not None:
                self._patch(cls, attr, self._wrap(span_name, raw))
        checks = self.boxswap.checks
        self._patch(checks, "REGISTRY", tuple(
            (name, self._wrap(f"checks.{name}", fn)) for name, fn in checks.REGISTRY))
        scalar = self.boxswap.Scalar
        for attr in SCALAR_OPS:
            if attr in vars(scalar):
                self._patch(scalar, attr, self._counter(scalar, vars(scalar)[attr]))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _patch(self, owner, key, value) -> None:
        self._restore.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    # -- recording ----------------------------------------------------------

    def request(self, label: str, fn):
        """Run one benchmark request as a root span and return its result."""
        self._request = len(self.spans)
        try:
            return self._call("request", fn, (), {}, label)
        finally:
            self._request = None

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)
        traced.__wrapped__ = fn
        return traced

    def _call(self, name, fn, args, kwargs, label=None):
        sid = len(self.spans)
        span = {"id": sid, "name": name, "request": self._request,
                "parent": self._stack[-1] if self._stack else None}
        if label is not None:
            span["label"] = label
        self.spans.append(span)
        self._stack.append(sid)
        span["start"] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span["error"] = True
            raise
        finally:
            span["end"] = perf_counter()
            self._stack.pop()
        self._sizes(span, args, result)
        if name == "coupler.apply_coupler":
            self.coupler_inputs.append((self._request, (*args, *kwargs.values())[:3]))
        return result

    def _sizes(self, span, args, result) -> None:
        box = self.boxswap.BoxTable
        tables = [a for a in args if isinstance(a, box)]
        if tables:
            span["in_parties"] = sum(t.n for t in tables)
            span["in_cells"] = sum(4**t.n for t in tables)
        if isinstance(result, tuple):  # apply_coupler's branch results
            tables = [getattr(r, "box", None) for r in result]
            tables = [t for t in tables if isinstance(t, box)]
        else:
            tables = [result] if isinstance(result, box) else []
        if tables:
            span["out_parties"] = sum(t.n for t in tables)
            span["out_cells"] = sum(4**t.n for t in tables)
        branches = getattr(result, "branches", None)
        if isinstance(branches, list):
            span["branches"] = len(branches)

    def _counter(self, scalar, op):
        def counted(*args):
            result = op(*args)
            if result.__class__ is scalar:
                self.ops += 1
                if result.surd:
                    self.surd_ops += 1
                bits = max(result.rat.denominator.bit_length(),
                           result.surd.denominator.bit_length())
                if bits > self.den_bits_max:
                    self.den_bits_max = bits
            return result
        return counted

    # -- reporting ----------------------------------------------------------

    def self_times(self) -> list:
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        return [s["end"] - s["start"] - c for s, c in zip(self.spans, covered)]

    def per_layer(self, check_names) -> dict:
        """Per-layer metrics of everything recorded so far (one round)."""
        calls = dict.fromkeys(SELF_TIMED, 0)
        self_s = dict.fromkeys(SELF_TIMED, 0.0)
        check_s = dict.fromkeys(check_names, 0.0)
        tensor_cells = joint_cells = coupler_errors = branches = joint_max = 0
        requests = 0
        couplers_per_request = {}
        for span, own in zip(self.spans, self.self_times()):
            name = span["name"]
            if name in calls:
                calls[name] += 1
                self_s[name] += own
            elif name.startswith("checks.") and name[7:] in check_s:
                check_s[name[7:]] += span["end"] - span["start"]
            if name == "request":
                requests += 1
            elif name == "boxes.tensor":
                tensor_cells += span.get("out_cells", 0)
                joint_max = max(joint_max, span.get("out_parties", 0))
            elif name == "coupler.apply_coupler":
                joint_cells += span.get("in_cells", 0)
                joint_max = max(joint_max, span.get("in_parties", 0))
                coupler_errors += span.get("error", False)
                request = span["request"]
                couplers_per_request[request] = couplers_per_request.get(request, 0) + 1
            elif name == "scenarios.run_scenario":
                branches += span.get("branches", 0)
        # inputs of apply_coupler, kept by reference, are compared only now,
        # after the round, so that no span pays for it
        distinct, sqrt2_requests = set(), set()
        for request, (coupler, joint, consumed) in self.coupler_inputs:
            distinct.add((request, coupler.n, json.dumps(joint.to_json(), sort_keys=True),
                          tuple(consumed)))
            if request not in sqrt2_requests and any(v.surd for _, _, v in joint.entries()):
                sqrt2_requests.add(request)
        applied = calls["coupler.apply_coupler"]
        multi = sum(1 for n in couplers_per_request.values() if n > 1)

        metrics = {
            "scalar.ops": (self.ops, "count"),
            "scalar.surd_share": (self.surd_ops / self.ops if self.ops else 0.0, "ratio"),
            "scalar.den_bits_max": (self.den_bits_max, "bits"),
        }
        for name in COUNTED:
            metrics[f"{name}.calls"] = (calls[name], "count")
        for name in SELF_TIMED:
            metrics[f"{name}.self_s"] = (self_s[name], "s")
        metrics["boxes.tensor.cells"] = (tensor_cells, "count")
        metrics["coupler.apply_coupler.joint_cells"] = (joint_cells, "count")
        metrics["coupler.apply_coupler.errors"] = (coupler_errors, "count")
        metrics["scenarios.branches"] = (branches, "count")
        metrics["scenarios.coupler_distinct"] = (len(distinct), "count")
        metrics["scenarios.coupler_reuse"] = (len(distinct) / applied if applied else 1.0,
                                              "ratio")
        for name, seconds in check_s.items():
            metrics[f"checks.{name}.s"] = (seconds, "s")
        metrics["inputs.sqrt2_share"] = (len(sqrt2_requests) / requests, "ratio")
        metrics["inputs.multi_coupler_share"] = (multi / requests, "ratio")
        metrics["inputs.joint_parties_max"] = (joint_max, "count")
        return metrics

    def write(self, path, meta) -> None:
        """Canonical JSON (sorted keys, one span per line), times relative to
        the first span, so that two traces diff line by line."""
        origin = self.spans[0]["start"] if self.spans else 0.0
        lines = []
        for span, own in zip(self.spans, self.self_times()):
            span = dict(span, start=span["start"] - origin, end=span["end"] - origin,
                        self=own)
            lines.append(json.dumps(span, sort_keys=True))
        head = json.dumps({"meta": meta}, sort_keys=True)[:-1]
        path.write_text(head + ',\n"spans": [\n' + ",\n".join(lines) + "\n]}\n")
