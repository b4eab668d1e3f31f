"""Canonical JSON of reports and box documents, as ``canonical_dumps``
(``json.dumps``) writes their ``to_json``: ``report_text`` yields a report's
one branch at a time, in bounded memory.  Each text is made once, at its
line's indent: a ``Scalar``'s and its decimal per value, a box's rows in one
pass, and a box's, functionals', classification's, bound triple's or
validation's per object, while it recurs."""

from collections import Counter
from functools import lru_cache
from itertools import chain
from json.encoder import encode_basestring_ascii as _quoted

from .boxes import WORD_ORDER, word_to_str
from .scalar import _reduced, scalar_json

_SCALAR = '{\n  "r": [\n    "%s",\n    "%s"\n  ],\n  "s": [\n    "%s",\n    "%s"\n  ]\n}'
_JSON = {True: "true", False: "false", None: "null"}


def _listed(texts: list, newline: str, ends: str = "[]") -> str:
    inner = newline + "  "
    return ends[0] + inner + ("," + inner).join(texts) + newline + ends[1] if texts else ends


def _object(fields: dict, newline: str) -> str:
    """The object of ``fields``' texts, given in key order; no key needs an escape."""
    return _listed([f'"{key}": {text}' for key, text in fields.items()], newline, "{}")


@lru_cache(maxsize=32)
def _words(n: int, leaf: str) -> tuple:
    return tuple([_quoted(word_to_str(w, n)) + "," + leaf for w in range(2**n)])


class _Texts:
    """The texts of one document, whose branches are ``records``."""

    def __init__(self, records=()):
        self.left = Counter([id(obj) for r in records for obj in (
            r.box, r.functionals, r.classification, r.bound_triple, r.validation)])
        self.kept, self.texts = {}, {}

    def once(self, obj, build, newline: str) -> str:
        """``build(obj, newline)``, kept while the document holds ``obj`` again."""
        if obj is None:
            return "null"
        text = self.kept.pop(id(obj), None) or build(obj, newline)
        self.left[id(obj)] -= 1
        if self.left[id(obj)] > 0:
            self.kept[id(obj)] = text
        return text

    def value(self, x, newline: str = "", decimal: bool = False) -> str:
        """A ``Scalar``'s text, or with ``decimal`` its decimal's, once per value."""
        key = (x.r, x.s, x.d, decimal)
        if key not in self.texts:
            self.texts[key] = _quoted(x.decimal()) if decimal else _SCALAR % tuple(
                chain(*scalar_json(x.r, x.s, x.d).values()))
        return self.texts[key].replace("\n", newline)

    def valued(self, key: str, x, newline: str) -> dict:
        return {key: self.value(x, newline + "  "), key + "_decimal": self.value(x, decimal=True)}

    def box(self, box, newline: str) -> str:
        """A table's document, each row one piece, each distinct value's text made once."""
        n, mask, den, item = box.n, 2**box.n - 1, box.den, newline + "    "
        words = _words(n, item + "  ")
        cells = box.rat if box.surd is None else list(zip(box.rat, box.surd))
        values = {c: self.value(_reduced(*c, den) if box.surd else _reduced(c, 0, den), item + "  ")
                  for c in set(cells)}
        rows = [f"[{item}  {words[i >> n]}{words[i & mask]}{values[c]}{item}]"
                for i, c in enumerate(cells) if c and c != (0, 0)]
        return _object({"n": str(n), "order": _quoted(WORD_ORDER),
                        "probs": _listed(rows, newline + "  ")}, newline)

    def functionals(self, values: dict, newline: str) -> str:
        inner = newline + "  "
        return _object({name: _object({"decimal": self.value(x, decimal=True), "value": self.value(
            x, inner + "  ")}, inner) for name, x in sorted(values.items())}, newline)

    def classification(self, c, newline: str) -> str:
        return _object({"exceeds_local": _JSON[c.exceeds_local], "exceeds_quantum": _JSON[
            c.exceeds_quantum], **self.valued("value", c.value, newline)}, newline)

    def bounds(self, t, newline: str) -> str:
        return _object({key: self.value(getattr(t, key), newline + "  ")
                        for key in ("algebraic", "local", "quantum")}, newline)

    def validation(self, v, newline: str) -> str:
        signals = dict(sorted([(str(p), _JSON[ok]) for p, ok in v.nonsignaling.items()]))
        return _object({"all_ok": _JSON[v.all_ok], "nonnegative": _JSON[v.nonnegative],
                        "nonsignaling": _object(signals, newline + "  "),
                        "normalized": _JSON[v.normalized]}, newline)


def report_text(report):
    """The text of ``report.to_json()``: its head, each branch, its tail."""
    t, item, inner = _Texts(report.branches), "\n    ", "\n      "
    yield '{\n  "branches": ' + ("[" if report.branches else "[]")
    for k, r in enumerate(report.branches):
        yield ("," if k else "") + item + _object({
            "bounds": t.once(r.bound_triple, t.bounds, inner), "box": t.once(r.box, t.box, inner),
            "classification": t.once(r.classification, t.classification, inner),
            "functionals": t.once(r.functionals, t.functionals, inner),
            "outcome": _listed([_JSON[b] if b is None else str(b) for b in r.outcome], inner),
            **t.valued("probability", r.probability, item),
            "validation": t.once(r.validation, t.validation, inner)}, item)
    checks = [_object({"detail": _quoted(c.detail), "name": _quoted(c.name),
                       "passed": _JSON[c.passed]}, item) for c in report.crosschecks]
    groups = {} if report.groups is None else {"groups": _listed([_object({
        "branches": _listed([_listed([*map(str, b)], inner + "  ") for b in g["branches"]], inner),
        "failures": str(g["failures"]), **t.valued("probability", g["probability"], item)}, item)
        for g in report.groups], "\n  ")}
    yield ("\n  ]," if report.branches else ",") + _object({
        "crosschecks": _listed(checks, "\n  "), **groups, "order": _quoted(WORD_ORDER),
        "parties": _listed(list(map(_quoted, report.parties)), "\n  "),
        "scenario": _quoted(report.scenario),
        **t.valued("total_probability", report.total_probability, "\n")}, "\n")[1:] + "\n"


def show_text(box, validation) -> str:
    """The text of ``show``'s document, ``{"box": ..., "validation": ...}``."""
    t = _Texts()
    return _object({"box": t.box(box, "\n  "), "validation": t.validation(validation, "\n  ")},
                   "\n") + "\n"
