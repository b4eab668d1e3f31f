"""Where one benchmark round spends its time, request by request, in-process.

    python3 scripts/profile_round.py --workload {checks,documents,wide} \\
        [--seed S] [--repeat R] [--profile N]

The workload's round of requests is built by ``perfbench/workloads.py``
(imported as it is) against this checkout's ``src/``, with documents written
to a temporary directory.  One untimed round warms the library's caches;
then each request runs R times (default 5), and its best time and that
time's share of the round (the sum of the best times) are printed, slowest
first.  Every output is checked after its call, outside the timed interval;
a failed check is printed and the exit code is 1.  ``--profile N`` runs one
more round under cProfile and prints the N functions with the most self
time.  Times are wall-clock times of this host, with no correction for its
speed: compare two checkouts by alternating runs on one machine.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("checks", "documents", "wide"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--profile", type=int, default=0, metavar="N")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    boxswap, workloads = _imports()
    with tempfile.TemporaryDirectory() as workdir:
        requests, _ = workloads.build(args.workload, args.seed, boxswap, Path(workdir))
        problems = [(r.label, _checked(r)) for r in requests]  # the warm-up round
        rows = best_times(requests, args.repeat)
        problems += [(label, problem) for label, _, problem in rows]
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
