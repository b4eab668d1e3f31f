"""How the scenario engine scales on repeater chains and rings, one fresh process per run.

    python3 scripts/scaling.py [--chain K ...] [--ring N ...] [--report DIR]

A repeater chain of K couplers (``chain``) is K + 1 PR boxes in a line;
coupler i consumes the right end of box i and the left end of box i + 1,
so two users survive.  A ring of N users (``ring``) is the shape of
``scenarios/hybrid_three.json`` on N users: each edge is two PR boxes whose
inner ends meet in a two-end coupler, and each user wires the outer ends it
holds.  Each run goes through ``run_scenario`` in a child process of its
own, with ``scenarios.apply_coupler`` and ``scenarios.wired`` wrapped to
count their calls (as the tests count them), and prints its wall time, the
child's peak RSS (``ru_maxrss``, which includes the interpreter and the
import) and both counts.  With ``--report DIR`` each child writes the
scenario document to ``DIR/<shape>-<size>.scenario.json`` and runs it as
``boxswap run`` does, through ``boxswap.cli.main(["run", DOC, "--format",
"json", "--output", DIR/<shape>-<size>.json])``, so its wall time and peak
RSS include writing the JSON report, whose size is printed too.  No
benchmark workload reaches these paths, so this is how their cost is
measured; compare two checkouts by running each one's copy of the script
on one machine.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def chain(k: int):
    """k + 1 PR boxes (l_i, r_i) in a line, coupler i consuming r_i and l_{i+1}."""
    from boxswap import ScenarioBox, ScenarioCoupler, ScenarioSpec
    boxes = tuple(ScenarioBox(f"g{i}", "pr", 2, (f"l{i}", f"r{i}")) for i in range(1, k + 2))
    couplers = tuple(ScenarioCoupler(2, (f"r{i}", f"l{i + 1}")) for i in range(1, k + 1))
    return ScenarioSpec(f"chain-{k}", boxes, couplers)


def ring(n: int):
    """n users on a cycle, two PR boxes and one two-end coupler per edge."""
    from boxswap import ScenarioBox, ScenarioCoupler, ScenarioSpec, ScenarioWiring
    users = "acdefghijk"[:n]
    boxes, couplers = [], []
    for k, (left, right) in enumerate(zip(users, users[1:] + users[:1])):
        boxes += [ScenarioBox(f"g{2 * k + 1}", "pr", 2, (f"{left}1", f"b{2 * k + 1}")),
                  ScenarioBox(f"g{2 * k + 2}", "pr", 2, (f"{right}2", f"b{2 * k + 2}"))]
        couplers.append(ScenarioCoupler(2, (f"b{2 * k + 1}", f"b{2 * k + 2}")))
    wirings = tuple(ScenarioWiring((f"{u}1", f"{u}2"), u) for u in users)
    return ScenarioSpec(f"ring-{n}", tuple(boxes), tuple(couplers), wirings)


SHAPES = {"chain": chain, "ring": ring}


def measure(shape: str, size: int, report: str | None = None) -> dict:
    """Run one scenario in this process: wall seconds, peak RSS in MB, and
    the calls of the engine's ``apply_coupler`` and ``wired``; with a
    ``report`` directory, run its document through the CLI, writing the
    JSON report there, and add the report's size in MB."""
    from boxswap import cli, run_scenario, save_json, scenarios
    spec = SHAPES[shape](size)
    calls = dict.fromkeys(("apply_coupler", "wired"), 0)
    saved = {name: getattr(scenarios, name) for name in calls}
    runs = []

    def run(spec):
        runs.append(run_scenario(spec))
        return runs[-1]

    def counting(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    try:
        for name, fn in saved.items():
            setattr(scenarios, name, counting(name, fn))
        if report is None:
            start = perf_counter()
            run(spec)
        else:
            doc, output = (Path(report) / f"{shape}-{size}{end}"
                           for end in (".scenario.json", ".json"))
            save_json(doc, spec.to_json())
            cli.run_scenario = run
            start = perf_counter()
            cli.main(["run", str(doc), "--format", "json", "--output", str(output)])
        wall = perf_counter() - start
    finally:
        for name, fn in saved.items():
            setattr(scenarios, name, fn)
        cli.run_scenario = run_scenario
    row = {"shape": shape, "size": size, "wall_s": wall, "branches": len(runs[0].branches),
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, **calls}
    if report is not None:
        row["report_mb"] = output.stat().st_size / 1e6
    return row


def run_child(shape: str, size: int, report: str | None = None) -> dict:
    """``measure`` in a fresh interpreter, so that its peak RSS is its own."""
    argv = [sys.executable, __file__, "--child", shape, str(size)] + ([report] if report else [])
    return json.loads(subprocess.run(argv, capture_output=True, text=True, check=True).stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--chain", type=int, nargs="*", default=[], metavar="K")
    parser.add_argument("--ring", type=int, nargs="*", default=[], metavar="N")
    parser.add_argument("--report", metavar="DIR",
                        help="write each run's document and JSON report into DIR")
    parser.add_argument("--child", nargs="+", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        sys.path.insert(0, str(ROOT / "src"))
        shape, size, *report = args.child
        print(json.dumps(measure(shape, int(size), *report)))
        return 0
    runs = [("chain", k) for k in args.chain] + [("ring", n) for n in args.ring]
    if not runs:
        parser.error("name at least one --chain or --ring size")
    # a run holds all 2**K (or 2**N) branches at once, about 60 MB at K = 16,
    # and a scenario runs at most BRANCH_CAP = 2**16 branches
    if any(not 1 <= k <= 16 for k in args.chain) or any(not 3 <= n <= 10 for n in args.ring):
        parser.error("a chain takes 1 to 16 couplers and a ring 3 to 10 users")
    if args.report:
        Path(args.report).mkdir(parents=True, exist_ok=True)
    print(f"{'run':>9}  {'branches':>8}  {'wall s':>8}  {'peak MB':>8}  "
          f"{'apply_coupler':>13}  {'wired':>6}" + (f"  {'report MB':>9}" if args.report else ""))
    for shape, size in runs:
        row = run_child(shape, size, args.report)
        print(f"{shape + f'({size})':>9}  {row['branches']:>8}  {row['wall_s']:8.3f}  "
              f"{row['peak_rss_mb']:8.1f}  {row['apply_coupler']:>13}  {row['wired']:>6}"
              + (f"  {row['report_mb']:9.1f}" if args.report else ""))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
