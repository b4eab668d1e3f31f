"""Compare this checkout with an earlier commit on the benchmark, in
alternating pairs of runs.

    python3 scripts/bench_pairs.py --base REV --output BENCH_N.json [--seed S] \\
        [--claim WORKLOAD:METRIC:MIN_GAIN] [--traced-seconds 10] [--description TEXT]

The base commit is exported with ``git archive`` into a temporary
directory (no worktree is registered in the repository), and the change is
copied there from this checkout's working tree (tracked and unignored
files only), so that neither side finds bytecode or benchmark state left by
earlier runs; both copies are removed afterwards.  The workloads and the
run length are BENCHMARK.json's.  For each workload, pair i of ``PAIRS``
runs ``perfbench/run.py`` in the base first when i is even and in the
change first when i is odd, one run at a time, with
PYTHONDONTWRITEBYTECODE=1 so that every run compiles the package source.
``summarize`` turns the runs into the layout of the ``BENCH_*.json``
files: per end-to-end metric the median, quartiles and runs of each side,
the pairs the change wins, and the median's relative worsening against the
metric's bound in BENCHMARK.json.  ``--traced-seconds`` adds one traced run
(``--trace 1``) per side and workload, whose per-layer metrics are recorded
as they come.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10  # the fewest pairs a claimed gain is judged on


def quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "runs": list(values)}


def summarize(runs: dict, end_to_end: list) -> dict:
    """The per-workload summary of ``runs``: workload -> side -> list of the
    result objects ``perfbench/run.py`` prints, one per pair, in pair order.
    ``end_to_end`` is BENCHMARK.json's list of end-to-end metrics."""
    out = {}
    for workload, sides in runs.items():
        pairs = min(len(sides[side]) for side in SIDES)
        entry = {
            "attempted": {side: sum(r["attempted"] for r in sides[side]) for side in SIDES},
            "correct": {side: all(r["correct"] for r in sides[side]) for side in SIDES},
            "failed": {side: sum(r["failed"] for r in sides[side]) for side in SIDES},
            "pairs_complete": pairs,
            "metrics": {},
        }
        for metric in end_to_end:
            name, lower = metric["name"], metric["better"] == "lower"
            values = {side: [r["metrics"][name]["value"] for r in sides[side][:pairs]]
                      for side in SIDES}
            parent, change = (statistics.median(values[side]) for side in SIDES)
            worse = (change - parent if lower else parent - change) / parent if parent else 0.0
            wins = sum(1 for p, c in zip(values["parent"], values["change"])
                       if (c < p if lower else c > p))
            entry["metrics"][name] = {
                "better": metric["better"],
                "bound": metric["bound"],
                "parent": quartiles(values["parent"]),
                "change": quartiles(values["change"]),
                "change_wins_pairs": wins,
                "relative_worsening_of_median": worse,
                "within_bound": worse <= metric["bound"],
            }
        out[workload] = entry
    return out


def claim(summary: dict, workload: str, metric: str, min_gain: float) -> dict:
    """Whether the change gains at least ``min_gain`` on the median, wins at
    least nine pairs in ten, and moves the median by more than the parent's
    interquartile range."""
    entry = summary[workload]["metrics"][metric]
    parent, change = entry["parent"], entry["change"]
    lower = entry["better"] == "lower"
    gain = (parent["median"] / change["median"] if lower
            else change["median"] / parent["median"]) - 1
    iqr = parent["q3"] - parent["q1"]
    pairs = summary[workload]["pairs_complete"]
    return {
        "workload": workload,
        "metric": metric,
        "min_gain": min_gain,
        "gain_of_median": gain,
        "parent_iqr": iqr,
        "met": (gain >= min_gain and 10 * entry["change_wins_pairs"] >= 9 * pairs
                and abs(change["median"] - parent["median"]) > iqr),
    }


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The result object of one ``perfbench/run.py`` run in ``checkout``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"error: run in {checkout} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def export(rev: str, into: Path) -> Path:
    """The committed files of ``rev`` under ``into``."""
    into.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout, check=True)
    return into


def copy_worktree(into: Path) -> Path:
    """The working tree's tracked and unignored files under ``into``."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, capture_output=True, check=True).stdout
    for name in listed.decode().split("\0"):
        source = ROOT / name
        if name and source.is_file():
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, into / name)
    return into


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the commit to compare against")
    parser.add_argument("--output", required=True, type=Path)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--claim", default=None, help="WORKLOAD:METRIC:MIN_GAIN")
    parser.add_argument("--traced-seconds", type=float, default=0.0)
    parser.add_argument("--description", default="")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    scratch = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        checkouts = {"parent": export(args.base, scratch / "parent"),
                      "change": copy_worktree(scratch / "change")}
        runs = {w: {side: [] for side in SIDES} for w in workloads}
        for workload in workloads:
            for i in range(PAIRS):
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    runs[workload][side].append(run_once(
                        checkouts[side], workload, args.seed, seconds, 0))
                print(f"{workload}: pair {i + 1}/{PAIRS}", file=sys.stderr)
        traced = {}
        if args.traced_seconds:
            for workload in workloads:
                traced[workload] = {
                    side: {name: m["value"] for name, m in run_once(
                        checkouts[side], workload, args.seed, args.traced_seconds,
                        1)["metrics"].items()}
                    for side in SIDES}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    summary = summarize(runs, bench["end_to_end"])
    doc = {
        "description": args.description,
        "command": (f"python3 perfbench/run.py --workload W --seed {args.seed} "
                    f"--seconds {seconds:g} --trace 0"),
        "order": "pair i runs parent first when i is even, change first when odd",
        "pairs": PAIRS,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "workloads": summary,
    }
    if args.claim:
        workload, metric, min_gain = args.claim.split(":")
        doc["claim"] = claim(summary, workload, metric, float(min_gain))
    if traced:
        doc["per_layer_traced"] = {
            "command": (f"python3 perfbench/run.py --workload W --seed {args.seed} "
                        f"--seconds {args.traced_seconds:g} --trace 1"),
            "note": "one traced round each; self times are unscaled wall seconds",
            "workloads": traced,
        }
    args.output.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
