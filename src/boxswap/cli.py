"""Command-line front end.

Verbs:
  run FILE         execute a scenario document, report every branch
  reproduce        recompute the built-in checks, print the pass/fail table
  eval FILE NAME   evaluate a functional (gsi or ch) on a box document
  show FILE        pretty-print a box table with its validation report

Every verb takes ``--format {table,json}`` (default table) and ``--output
PATH`` (default stdout); ``reproduce`` also takes ``--filter NAME``.  Exit
codes: 0 success, 2 validation/input failure, 3 coupler invalid on its
input, 1 internal error.  All numbers in table output are exact, with a
12-digit decimal annotation in parentheses.
"""

from __future__ import annotations

import argparse
import sys

from .bell import bounds, ch_evaluate, classify
from .boxes import BoxTable, validate, word_to_str
from .checks import run_checks
from .errors import BoxSwapError, CouplerInvalidError, SpecFileError
from .fileio import canonical_dumps, load_json
from .scenarios import ScenarioSpec, run_scenario


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _annotated(value) -> str:
    return f"{value} ({value.decimal()})"


def _render_table(header: list, rows: list) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(row):
        return "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
    lines = [fmt(header), fmt(["-" * w for w in widths])]
    lines += [fmt(row) for row in rows]
    return "\n".join(lines) + "\n"


def _verdict(classification) -> str:
    if classification is None:
        return "-"
    if classification.exceeds_quantum:
        return "beyond quantum"
    if classification.exceeds_local:
        return "beyond local"
    return "within local"


# -- run ---------------------------------------------------------------------


def _scenario_table(report) -> str:
    functional_names = sorted(
        {name for record in report.branches for name in record.functionals}
    )
    header = ["outcome", "probability"] + functional_names + ["verdict", "valid"]
    rows = []
    for record in report.branches:
        outcome = "".join("-" if b is None else str(b) for b in record.outcome)
        row = [outcome or "(none)", _annotated(record.probability)]
        for name in functional_names:
            value = record.functionals.get(name)
            row.append("-" if value is None else _annotated(value))
        row.append(_verdict(record.classification))
        row.append(
            "-" if record.validation is None else ("yes" if record.validation.all_ok else "NO")
        )
        rows.append(row)
    lines = [
        f"scenario: {report.scenario}",
        f"parties:  {', '.join(report.parties) if report.parties else '(none)'}",
        "",
        _render_table(header, rows).rstrip(),
        "",
        f"total probability: {_annotated(report.total_probability)}",
    ]
    if report.groups is not None:
        lines.append("")
        lines.append(
            _render_table(
                ["failures", "probability", "branches"],
                [
                    [
                        str(g["failures"]),
                        _annotated(g["probability"]),
                        str(len(g["branches"])),
                    ]
                    for g in report.groups
                ],
            ).rstrip()
        )
    failed = [c for c in report.crosschecks if not c.passed]
    lines.append(
        f"cross-checks: {len(report.crosschecks) - len(failed)}/{len(report.crosschecks)} passed"
    )
    for check in failed:
        lines.append(f"  FAILED {check.name}: {check.detail}")
    return "\n".join(lines) + "\n"


def cmd_run(args) -> int:
    spec = ScenarioSpec.from_json(load_json(args.scenario))
    report = run_scenario(spec)
    if args.format == "json":
        _emit(canonical_dumps(report.to_json()), args.output)
    else:
        _emit(_scenario_table(report), args.output)
    return 0 if report.all_checks_passed else 2


# -- reproduce ---------------------------------------------------------------


def cmd_reproduce(args) -> int:
    results = run_checks(args.filter)
    if not results:
        print(f"error: no check matches filter {args.filter!r}", file=sys.stderr)
        return 2
    if args.format == "json":
        doc = {
            "checks": [r.to_json() for r in results],
            "all_passed": all(r.passed for r in results),
        }
        _emit(canonical_dumps(doc), args.output)
    else:
        rows = [
            [str(r.criterion), r.name, "pass" if r.passed else "FAIL", r.detail]
            for r in results
        ]
        table = _render_table(["#", "check", "result", "detail"], rows)
        passed = sum(1 for r in results if r.passed)
        _emit(table + f"\n{passed}/{len(results)} checks passed\n", args.output)
    return 0 if all(r.passed for r in results) else 2


# -- eval --------------------------------------------------------------------


def cmd_eval(args) -> int:
    box = BoxTable.from_json(load_json(args.box))
    if args.n is not None and args.n != box.n:
        raise SpecFileError(f"box has {box.n} parties, --n says {args.n}")
    if args.functional == "gsi":
        classification = classify(box)
        triple = bounds(box.n)
        if args.format == "json":
            doc = {
                "functional": "gsi",
                "n": box.n,
                "value": classification.value.to_json(),
                "value_decimal": classification.value.decimal(),
                "bounds": triple.to_json(),
                "classification": classification.to_json(),
            }
            _emit(canonical_dumps(doc), args.output)
        else:
            lines = [
                f"functional: gsi on {box.n} parties",
                f"value: {_annotated(classification.value)}",
                f"local bound {triple.local}: "
                + ("exceeded" if classification.exceeds_local else "not exceeded"),
                f"quantum bound {triple.quantum}: "
                + ("exceeded" if classification.exceeds_quantum else "not exceeded"),
                f"algebraic maximum: {triple.algebraic}",
            ]
            _emit("\n".join(lines) + "\n", args.output)
    else:
        value = ch_evaluate(box)
        if args.format == "json":
            doc = {
                "functional": "ch",
                "n": box.n,
                "value": value.to_json(),
                "value_decimal": value.decimal(),
            }
            _emit(canonical_dumps(doc), args.output)
        else:
            _emit(f"functional: ch on 2 parties\nvalue: {_annotated(value)}\n", args.output)
    return 0


# -- show --------------------------------------------------------------------


def _box_grid(box: BoxTable) -> str:
    n = box.n
    header = ["in\\out"] + [word_to_str(a, n) for a in range(2**n)]
    rows = []
    for x in range(2**n):
        row = [word_to_str(x, n)]
        for a in range(2**n):
            p = box.prob(x, a)
            row.append(str(p) if p else "·")
        rows.append(row)
    return _render_table(header, rows)


def cmd_show(args) -> int:
    box = BoxTable.from_json(load_json(args.box))
    report = validate(box)
    if args.format == "json":
        _emit(
            canonical_dumps({"box": box.to_json(), "validation": report.to_json()}),
            args.output,
        )
    else:
        lines = [
            f"{box.n}-party box",
            "",
            _box_grid(box).rstrip(),
            "",
            f"normalized: {'yes' if report.normalized else 'NO'}",
            f"nonnegative: {'yes' if report.nonnegative else 'NO'}",
            "nonsignaling: "
            + ", ".join(
                f"party {party} {'ok' if ok else 'SIGNALS'}"
                for party, ok in sorted(report.nonsignaling.items())
            ),
        ]
        _emit("\n".join(lines) + "\n", args.output)
    return 0 if report.all_ok else 2


# -- dispatch ----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxswap",
        description="Exact nonsignaling boxes, Bell-type functionals, and swap couplers.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--format", choices=("table", "json"), default="table")
        p.add_argument("--output", default=None, help="write the report here (default stdout)")

    p_run = sub.add_parser("run", help="execute a scenario document")
    p_run.add_argument("scenario", help="path to a scenario JSON document")
    common(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_rep = sub.add_parser("reproduce", help="recompute every built-in check")
    p_rep.add_argument("--filter", default=None, help="only run checks whose name contains this")
    common(p_rep)
    p_rep.set_defaults(fn=cmd_reproduce)

    p_eval = sub.add_parser("eval", help="evaluate a functional on a box document")
    p_eval.add_argument("box", help="path to a box JSON document")
    p_eval.add_argument("functional", choices=("gsi", "ch"))
    p_eval.add_argument("--n", type=int, default=None, help="assert the box has this many parties")
    common(p_eval)
    p_eval.set_defaults(fn=cmd_eval)

    p_show = sub.add_parser("show", help="pretty-print a box document")
    p_show.add_argument("box", help="path to a box JSON document")
    common(p_show)
    p_show.set_defaults(fn=cmd_show)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CouplerInvalidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SpecFileError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BoxSwapError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
