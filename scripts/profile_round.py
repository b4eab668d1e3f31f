"""Where one benchmark round spends its time, request by request, in-process.

    python3 scripts/profile_round.py --workload {checks,documents,wide} \\
        [--seed S] [--repeat R] [--phases] [--profile N]
    python3 scripts/profile_round.py --workload {checks,documents,wide} --against PATH|REV \\
        [--seed S] [--repeat R]
    python3 scripts/profile_round.py --imports [--repeat R]

The workload's round of requests is built by ``perfbench/workloads.py``
(imported as it is) against this checkout's ``src/``, with documents written
to a temporary directory.  One untimed round warms the library's caches;
then each request runs R times (default 5), and its best time and that
time's share of the round (the sum of the best times) are printed, slowest
first.  Every output is checked after its call, outside the timed interval;
a failed check is printed and the exit code is 1.  ``--phases`` runs
each ``run`` and ``reproduce`` request R more times through the verb of
``boxswap.cli``, timed from outside: for those runs the calls that end a
phase are wrapped, as ``perfbench/tracer.py`` wraps functions, and then
restored.  A phase ends where its call returns: load (``load_json``), spec
(``ScenarioSpec.from_json``), run (``run_scenario`` or ``run_checks``) and
write (``_emit``, which makes the report's text as it writes it, or is
given the text of a ``reproduce`` document that ``canonical_dumps`` made
before the call).  It prints each phase's best time per request
and summed over those requests (a ``reproduce`` request has no load or
spec phase); the output of every such run is checked as the request's
own.  ``--profile N`` runs one more round under cProfile and prints the N
functions with the most self time.  Times are wall-clock times of this
host, with no correction for its speed: compare two checkouts by
alternating runs on one machine.

``--against PATH`` compares this checkout with the one at PATH in one
process: PATH's ``src/boxswap`` is copied without bytecode into a temporary
directory as the package ``boxswap_against`` (as ``--imports`` copies the
source) and imported beside this checkout's.  ``--against REV`` takes a git
revision of this repository instead, whose committed files are exported
with ``git archive`` first, as ``scripts/bench_pairs.py`` exports its base:
``--against HEAD`` compares the working tree with its last commit.  The
same seeded round is built for both trees by ``perfbench/workloads.py``;
after one untimed round each, R rounds per side run interleaved, this
checkout first in even rounds and the other one first in odd ones, and
every output is checked outside the timed intervals.  A round's time is the sum of its requests'
times.  It prints each side's best and 10th-percentile round (at index
``(R - 1) // 10`` of its sorted times) and their ratio, this checkout over
PATH's, then one row per request, slowest first on this checkout: its best
time on each side and their ratio, so a change's saving can be traced to
the requests that carry it, and its call count on each side.  A call count
is the number of Python and builtin function calls one run of the request
makes (as ``cProfile`` counts them), taken once per side with
``sys.setprofile`` after the timed rounds; with the caches warm it repeats
exactly, so a change's saved work reads as a count as well as a time.
Two processes of one tree can differ by more than a change does; two
trees in one process share the interpreter, its allocator and the host's
moment, so the ratio of rounds run side by side is the steadier reading.

``--imports`` times the benchmark's import instead: in R fresh processes,
run under ``-X importtime`` with PYTHONDONTWRITEBYTECODE=1 on a copy of
``src/boxswap`` without bytecode (so each compiles the source, as a fresh
checkout does), it imports the standard-library modules that
``perfbench/run.py`` and its workloads import, then ``boxswap`` and
``boxswap.cli``.  It prints the best self and cumulative time of each module
that only the second import loads, slowest self time first.
"""

from __future__ import annotations

import argparse
import cProfile
import importlib
import io
import os
import pstats
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def _imports():
    """boxswap from this checkout's ``src/`` and the benchmark's workloads."""
    for path in (ROOT / "perfbench", ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import boxswap
    import boxswap.cli  # noqa: F401  (the workloads call the CLI)
    import workloads
    return boxswap, workloads


def _checked(request) -> str | None:
    """Run one request untimed and check its output."""
    request.prepare()
    return request.check(request())


def best_times(requests, repeat: int) -> list:
    """(label, best seconds, problem or None) per request, in round order."""
    rows = []
    for request in requests:
        best, problem = float("inf"), None
        for _ in range(repeat):
            request.prepare()
            start = perf_counter()
            out = request()
            best = min(best, perf_counter() - start)
            problem = problem or request.check(out)
        rows.append((request.label, best, problem))
    return rows


# what perfbench/run.py and perfbench/workloads.py import before boxswap
BENCH_STDLIB = ("argparse", "fractions", "gc", "hashlib", "json", "os", "pathlib", "platform",
                "random", "resource", "shutil", "signal", "statistics", "subprocess", "sys",
                "time", "typing")


def import_times(repeat: int) -> list:
    """(module, best self seconds, best cumulative seconds) of each module
    that importing ``boxswap`` and ``boxswap.cli`` loads after
    BENCH_STDLIB, over ``repeat`` fresh processes, slowest self time first."""
    code = f"import {', '.join(BENCH_STDLIB)}; import boxswap, boxswap.cli"
    best = {}
    with tempfile.TemporaryDirectory() as src:
        shutil.copytree(ROOT / "src" / "boxswap", Path(src) / "boxswap",
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
        for _ in range(repeat):
            err = subprocess.run([sys.executable, "-X", "importtime", "-c", code], env=env,
                                 capture_output=True, text=True, check=True).stderr
            pending = []  # an import is printed after the imports it caused, indented
            for line in err.splitlines():
                if not line.startswith("import time:") or "self [us]" in line:
                    continue
                own, total, name = line.removeprefix("import time:").split("|")
                module = name.strip()
                pending.append((module, int(own) / 1e6, int(total) / 1e6))
                if not name[1:].startswith(" "):  # a top-level import
                    if module in ("boxswap", "boxswap.cli"):
                        for module, own_s, total_s in pending:
                            own_best, total_best = best.get(module, (own_s, total_s))
                            best[module] = (min(own_best, own_s), min(total_best, total_s))
                    pending = []
    return sorted(((m, *times) for m, times in best.items()), key=lambda row: -row[1])


PHASES = ("load", "spec", "run", "write")


def phase_times(boxswap, request, repeat: int) -> tuple | None:
    """(best seconds per phase, None where a phase does not apply, problem
    or None) for a ``run`` or ``reproduce`` request, timed between the
    ends of its phases, whose calls are wrapped for these runs only; None
    for any other request."""
    argv = getattr(request, "argv", None)
    if not argv or argv[0] not in ("run", "reproduce"):
        return None
    cli = boxswap.cli
    args = cli._build_parser().parse_args(argv)
    # (owner, attribute, the phase that ends where the call returns)
    ends = ((cli, "load_json", "load"),
            (boxswap.scenarios.ScenarioSpec, "from_json", "spec"),
            (cli, "run_scenario", "run"),
            (boxswap.checks, "run_checks", "run"),
            (cli, "_emit", "write"))
    marks = []

    def marking(fn, at_end):
        def timed(*call_args, **kwargs):
            out = fn(*call_args, **kwargs)
            marks.append((at_end, perf_counter()))
            return out
        return timed

    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in ends]
    best, problem = {}, None
    try:
        for owner, attr, at_end in ends:
            setattr(owner, attr, marking(getattr(owner, attr), at_end))
        for _ in range(repeat):
            request.prepare()
            marks[:] = [("start", perf_counter())]
            rc = args.fn(args)
            for (_, start), (step, end) in zip(marks, marks[1:]):
                best[step] = min(end - start, best.get(step, end - start))
            problem = problem or request.check(rc)
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
    return [best.get(step) for step in PHASES], problem


AGAINST = "boxswap_against"


def _import_against(path: Path, into: Path):
    """boxswap of the checkout at ``path``, copied without bytecode into
    ``into`` as the package AGAINST and imported with its ``cli``."""
    shutil.copytree(path / "src" / "boxswap", into / AGAINST,
                    ignore=shutil.ignore_patterns("__pycache__"))
    for name in [m for m in sys.modules if m == AGAINST or m.startswith(AGAINST + ".")]:
        del sys.modules[name]  # a copy imported by an earlier call
    sys.path.insert(0, str(into))
    try:
        module = importlib.import_module(AGAINST)
        importlib.import_module(AGAINST + ".cli")
    finally:
        sys.path.remove(str(into))
    return module


def interleaved_rounds(sides: list, repeat: int) -> tuple:
    """Each side's times of each request over ``repeat`` rounds (one list
    per request, in round order), the sides taking turns to go first, and
    the (side, label, problem) of each failed check."""
    times, problems = [[[] for _ in side] for side in sides], []
    for r in range(repeat):
        for i in (range(len(sides)) if r % 2 == 0 else reversed(range(len(sides)))):
            for request, spent in zip(sides[i], times[i]):
                request.prepare()
                start = perf_counter()
                out = request()
                spent.append(perf_counter() - start)
                problem = request.check(out)
                if problem is not None:
                    problems.append((i, request.label, problem))
    return times, problems


def call_count(request) -> int:
    """The Python and builtin function calls of one run of ``request``,
    counted by a profile function (untimed)."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    request.prepare()
    sys.setprofile(count)
    try:
        request()
    finally:
        sys.setprofile(None)
    return calls - 2  # the request's own call and the one that ends the count


def _is_revision(name: str) -> bool:
    """True iff ``name`` is a commit of the git repository holding this checkout."""
    found = subprocess.run(["git", "rev-parse", "--verify", "--quiet", name + "^{commit}"],
                           cwd=ROOT, capture_output=True, check=False)
    return found.returncode == 0


def _checkout(against: str, into: Path) -> Path:
    """The checkout ``--against`` names: a directory holding ``src/boxswap``
    as it is, or else a git revision, whose committed files are exported
    into ``into`` with ``git archive`` (``scripts/bench_pairs.py``'s export)."""
    path = Path(against)
    if (path / "src" / "boxswap").is_dir():
        return path.resolve()
    if str(ROOT / "scripts") not in sys.path:
        sys.path.insert(0, str(ROOT / "scripts"))
    from bench_pairs import export
    return export(against, into / "export")


def compare(workload: str, seed: int, repeat: int, against: str) -> int:
    """The ``--against`` comparison: prints both sides' rounds and their
    ratio, then each request's best time on each side and their ratio."""
    boxswap, workloads = _imports()
    with tempfile.TemporaryDirectory() as workdir:
        workdir = Path(workdir)
        path = _checkout(against, workdir)
        theirs = f"{against} (git archive)" if path.is_relative_to(workdir) else path
        other = _import_against(path, workdir)
        sides = []
        for module, name in ((boxswap, "this"), (other, "against")):
            (workdir / name).mkdir()
            requests, _ = workloads.build(workload, seed, module, workdir / name)
            sides.append(requests)
        problems = [(i, r.label, _checked(r)) for i, side in enumerate(sides) for r in side]
        times, failed = interleaved_rounds(sides, repeat)
        counts = [[call_count(request) for request in side] for side in sides]
    rounds = [[sum(spent) for spent in zip(*side)] for side in times]
    rows = [(min(t), sorted(t)[(len(t) - 1) // 10]) for t in rounds]
    print(f"{workload} seed {seed}: {len(sides[0])} requests, "
          f"{repeat} interleaved rounds per side")
    print(f"{'best ms':>9}  {'p10 ms':>9}  side")
    for (best, p10), label in zip(rows, (f"this checkout ({ROOT})", f"against {theirs}")):
        print(f"{best * 1e3:9.3f}  {p10 * 1e3:9.3f}  {label}")
    print(f"ratio this/against: best {rows[0][0] / rows[1][0]:.3f}, "
          f"p10 {rows[0][1] / rows[1][1]:.3f}")
    print(f"{'this ms':>9}  {'against ms':>10}  {'ratio':>6}  {'this calls':>10}  "
          f"{'against calls':>13}  request")
    requests = [(min(mine), min(theirs), *calls, request.label)
                for request, mine, theirs, *calls in zip(sides[0], *times, *counts)]
    for mine, theirs, my_calls, their_calls, label in sorted(requests, key=lambda row: -row[0]):
        print(f"{mine * 1e3:9.3f}  {theirs * 1e3:10.3f}  {mine / theirs:6.3f}  {my_calls:10d}  "
              f"{their_calls:13d}  {label}")
    failed += [problem for problem in problems if problem[2] is not None]
    for i, label, problem in failed:
        print(f"FAILED {('this', 'against')[i]} {label}: {problem}", file=sys.stderr)
    return 1 if failed else 0


def _total(times) -> float:
    return sum(t for t in times if t is not None)


def _phase_table(rows: list) -> list:
    """The lines of the ``--phases`` table: one per request, slowest first,
    then the round's sum of each phase."""
    def line(times, label):
        cells = ["-" if t is None else f"{t * 1e3:.3f}" for t in times]
        return "  ".join(f"{c:>8}" for c in cells) + f"  {label}"
    lines = ["  ".join(f"{name:>8}" for name in PHASES + ("total",)) + "  request"]
    for label, times in sorted(rows, key=lambda row: -_total(row[1])):
        lines.append(line(times + [_total(times)], label))
    sums = [sum(times[i] or 0 for _, times in rows) for i in range(len(PHASES))]
    lines.append(line(sums + [sum(sums)], "(round)"))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload", choices=("checks", "documents", "wide"))
    what.add_argument("--imports", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--phases", action="store_true")
    parser.add_argument("--profile", type=int, default=0, metavar="N")
    parser.add_argument("--against", metavar="PATH|REV")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    if args.against is not None:
        if args.imports or args.phases or args.profile:
            parser.error("--against takes only --workload, --seed and --repeat")
        checkout = (Path(args.against) / "src" / "boxswap").is_dir()
        if not checkout and not _is_revision(args.against):
            parser.error(f"{args.against} is neither a checkout with src/boxswap nor a git revision")
        return compare(args.workload, args.seed, args.repeat, args.against)
    if args.imports:
        rows = import_times(args.repeat)
        print(f"import boxswap, boxswap.cli: {len(rows)} modules, best of {args.repeat} "
              f"processes, self {sum(row[1] for row in rows) * 1e3:.3f} ms")
        print(f"{'self ms':>9}  {'cum ms':>9}  module")
        for module, own, total in rows:
            print(f"{own * 1e3:9.3f}  {total * 1e3:9.3f}  {module}")
        return 0
    boxswap, workloads = _imports()
    with tempfile.TemporaryDirectory() as workdir:
        requests, _ = workloads.build(args.workload, args.seed, boxswap, Path(workdir))
        problems = [(r.label, _checked(r)) for r in requests]  # the warm-up round
        rows = best_times(requests, args.repeat)
        problems += [(label, problem) for label, _, problem in rows]
        phases = []
        if args.phases:
            for request in requests:
                split = phase_times(boxswap, request, args.repeat)
                if split is not None:
                    phases.append((request.label, split[0]))
                    problems.append((request.label, split[1]))
        if args.profile:
            profiler = cProfile.Profile()
            for request in requests:
                request.prepare()
                profiler.runcall(request)
    total = sum(best for _, best, _ in rows)
    print(f"{args.workload} seed {args.seed}: {len(rows)} requests, best of {args.repeat}, "
          f"round {total * 1e3:.3f} ms")
    print(f"{'ms':>9}  {'share':>6}  request")
    for label, best, _ in sorted(rows, key=lambda row: -row[1]):
        print(f"{best * 1e3:9.3f}  {best / total:6.1%}  {label}")
    if args.phases:
        print(f"phases of {len(phases)} run/reproduce requests, best of {args.repeat} each, ms")
        print("\n".join(_phase_table(phases)))
    if args.profile:
        text = io.StringIO()
        pstats.Stats(profiler, stream=text).sort_stats("tottime").print_stats(args.profile)
        print(text.getvalue().rstrip())
    failed = [(label, problem) for label, problem in problems if problem is not None]
    for label, problem in failed:
        print(f"FAILED {label}: {problem}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
