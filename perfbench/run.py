"""End-to-end and per-layer benchmark of boxswap.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {checks,documents,wide} --seed N \\
        --seconds S --trace {0,1}

One closed-loop client in one process and one thread: each request starts
when the previous one has returned.  boxswap is imported from this
checkout's ``src/``; the workload's round of requests is generated from the
seed (see ``workloads.py``).  After one untimed warm-up round, which fills
the library's caches, whole rounds run for about ``--seconds``.  Every
output is checked after its request returns, outside the timed interval,
and a failed check counts the request as failed.

Host speed.  The shared machines this runs on change speed by tens of
percent within a second and from one minute to the next, which no
affordable run length averages away.  So the host's speed is sampled with
``host_probe``, a fixed pure-Python ``Fraction`` kernel (the kind of work
boxswap does): before and after each request and set-up, and every
``PROBE_INTERVAL_S`` during a request, from a timer signal whose time is
taken out of the request's.  Each wall time is scaled to the host speed at
which the probe takes ``PROBE_REFERENCE_S``.  The end-to-end times are
these scaled times; the stamp line also gives the unscaled wall-clock
figures.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
warm-up and timed phase untraced, as the baseline of ``trace.overhead``,
then one traced round, without the timer signal; it prints that round's
per-layer metrics (times in them are unscaled wall time) and writes its
spans to
``.perfbench/trace-<workload>-seed<N>.json``.  The last line of standard
output is the result object; the line before it stamps the run.

``--print-digests`` prints the sha256 of every reference output as the
current program produces it, in the layout of ``reference_digests.json``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_PROBES = 4  # fresh processes that time set-up, besides this one
PROBE_REFERENCE_S = 0.0015  # host_probe's time at the reference host speed
PROBE_INTERVAL_S = 0.1


class Sample(NamedTuple):
    label: str
    wall: float  # seconds
    problem: str | None
    nbytes: int  # size of the written report, for CLI requests
    scale: float  # reference host speed over measured host speed

    @property
    def scaled(self) -> float:
        return self.wall * self.scale


def host_probe() -> float:
    """Fastest of three runs of a fixed Fraction kernel, in seconds."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        acc = Fraction(0)
        for i in range(1, 200):
            acc += Fraction(i, 2 * i + 1) * Fraction(3, i + 2)
        best = min(best, perf_counter() - start)
    return best


class HostSpeed:
    """Host probes taken every PROBE_INTERVAL_S by a timer signal while armed."""

    def __init__(self):
        self.probes = []
        self.ticks = []  # (start, end) of each probe taken from the timer

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        self.probes.append(host_probe())
        self.ticks.append((start, perf_counter()))

    def arm(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def disarm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def spent(self, until: float) -> float:
        """Seconds of probing that ended before ``until``."""
        return sum(end - start for start, end in self.ticks if end <= until)


def import_boxswap():
    """boxswap from this checkout's sources, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import boxswap
    import boxswap.cli  # noqa: F401  (the package does not import its CLI)
    if Path(boxswap.__file__).resolve().parent != SRC / "boxswap":
        raise SystemExit(f"error: imported boxswap from {boxswap.__file__}, not from {SRC}")
    return boxswap


def setup(workload: str, seed: int, workdir: Path):
    """Import boxswap and build the workload's inputs.  Returns the package,
    the round of requests, the order generator and a (wall seconds, scale)
    pair for the time this took."""
    before = host_probe()
    start = perf_counter()
    boxswap = import_boxswap()
    requests, rng = workloads.build(workload, seed, boxswap, workdir)
    wall = perf_counter() - start
    scale = 2 * PROBE_REFERENCE_S / (before + host_probe())
    return boxswap, requests, rng, (wall, scale)


def probe_setup(workload: str, seed: int) -> tuple:
    """(wall seconds, scale) of set-up in a fresh process."""
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--probe-setup"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    except subprocess.CalledProcessError as exc:
        raise SystemExit(f"error: set-up failed in a fresh process:\n{exc.stderr}") from exc
    return tuple(json.loads(proc.stdout.splitlines()[-1]))


def run_round(requests, rng, tracer=None) -> list:
    """Run the round once in a shuffled order; one Sample per request."""
    order = list(range(len(requests)))
    rng.shuffle(order)
    samples = []
    for i in order:
        req = requests[i]
        req.prepare()
        call = req if tracer is None else (lambda req=req: tracer.request(req.label, req))
        speed = HostSpeed()
        speed.probes.append(host_probe())
        if tracer is None:
            speed.arm()
        start = perf_counter()
        try:
            out, problem = call(), None
        except (Exception, SystemExit) as exc:
            out, problem = None, f"raised {type(exc).__name__}: {exc}"
        finally:
            end = perf_counter()
            speed.disarm()
        wall = end - start - speed.spent(end)
        speed.probes.append(host_probe())
        scale = PROBE_REFERENCE_S * len(speed.probes) / sum(speed.probes)
        if problem is None:
            try:
                problem = req.check(out)
            except Exception as exc:
                problem = f"output check raised {type(exc).__name__}: {exc}"
        if problem is not None:
            print(f"FAILED {req.label}: {problem}", file=sys.stderr)
        samples.append(Sample(req.label, wall, problem, req.nbytes, scale))
    return samples


def run_phase(requests, rng, seconds: float) -> list:
    """Whole rounds, so every request kind keeps its share of the samples; a
    round starts while it would end, by the last round's length, closer to
    ``seconds`` than stopping now would.  Returns one list of Samples per
    round."""
    rounds, last = [], 0.0
    start = perf_counter()
    while not rounds or perf_counter() - start + last / 2 < seconds:
        round_start = perf_counter()
        rounds.append(run_round(requests, rng))
        last = perf_counter() - round_start
    return rounds


def round_figures(rounds, scaled: bool = True) -> dict:
    """Median over rounds of each round's median latency, 90th-percentile
    latency and throughput (requests per second of request time; output
    checks and host probes excluded).  Every round holds the same requests,
    so a slow stretch of the host or one outlier moves one round's figures,
    not the medians; this was measured to halve the run-to-run spread of
    the median latency on checks and documents against pooling all samples."""
    figures = {"latency_p50_s": [], "latency_p90_s": [], "throughput_rps": []}
    for samples in rounds:
        times = [s.scaled if scaled else s.wall for s in samples]
        figures["latency_p50_s"].append(statistics.median(times))
        figures["latency_p90_s"].append(
            statistics.quantiles(times, n=10, method="inclusive")[8])
        figures["throughput_rps"].append(len(times) / sum(times))
    return {name: statistics.median(values) for name, values in figures.items()}


def end_to_end(rounds, setups) -> dict:
    samples = [s for r in rounds for s in r]
    failed = sum(1 for s in samples if s.problem is not None)
    figures = round_figures(rounds)
    return {
        "setup_s": (statistics.median(wall * scale for wall, scale in setups), "s"),
        "latency_p50_s": (figures["latency_p50_s"], "s"),
        "latency_p90_s": (figures["latency_p90_s"], "s"),
        "throughput_rps": (figures["throughput_rps"], "1/s"),
        "success_ratio": (1 - failed / len(samples), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced(boxswap, requests, rng, untraced_rounds) -> tuple:
    import tracer as tracing

    tracer = tracing.Tracer(boxswap)
    gc.collect()
    tracer.install()
    try:
        samples = run_round(requests, rng, tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.per_layer(workloads.reference()["checks"])
    metrics["output.bytes"] = (sum(s.nbytes for s in samples), "bytes")
    overhead = (round_figures([samples])["throughput_rps"]
                / round_figures(untraced_rounds)["throughput_rps"])
    metrics["trace.overhead"] = (overhead, "ratio")
    return samples, metrics, tracer


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "boxswap").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def print_digests(workdir: Path) -> None:
    boxswap = import_boxswap()
    out = workdir / "out.json"
    digests = {"checks": {}, "documents": {}}
    argvs = [("checks", name, ["reproduce", "--filter", name])
             for name, _ in boxswap.checks.REGISTRY]
    argvs += [("documents", doc.stem, ["run", str(doc)])
              for doc in sorted((ROOT / "scenarios").glob("*.json"))]
    for kind, name, argv in argvs:
        if boxswap.cli.main(argv + ["--format", "json", "--output", str(out)]) != 0:
            raise SystemExit(f"error: {kind} {name} failed")
        digests[kind][name] = hashlib.sha256(out.read_bytes()).hexdigest()
    print(json.dumps(digests, indent=2, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.BUILDERS), default="checks")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--print-digests", action="store_true")
    args = parser.parse_args(argv)

    workdir = STATE / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.print_digests:
            print_digests(workdir)
            return 0
        if args.probe_setup:
            print(json.dumps(setup(args.workload, args.seed, workdir)[3]))
            return 0
        return bench(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def bench(args, workdir: Path) -> int:
    setups = [] if args.trace else [probe_setup(args.workload, args.seed)
                                    for _ in range(SETUP_PROBES)]
    boxswap, requests, rng, own_setup = setup(args.workload, args.seed, workdir)
    setups.append(own_setup)

    warmup = run_round(requests, rng)
    gc.collect()
    rounds = run_phase(requests, rng, args.seconds)
    samples = [s for r in rounds for s in r]
    checked = warmup + samples
    if args.trace:
        traced_samples, metrics, tracer = traced(boxswap, requests, rng, rounds)
        checked += traced_samples
        samples += traced_samples
    else:
        metrics = end_to_end(rounds, setups)

    failed = sum(1 for s in samples if s.problem is not None)
    wall = round_figures(rounds, scaled=False)
    if setups:
        wall["setup_s"] = statistics.median(w for w, _ in setups)
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "round": sorted(req.label for req in requests),
        "timed_rounds": len(rounds),
        "timed_samples": sum(len(r) for r in rounds),
        "fail_ratio": failed / len(samples),
        "host_speed_scale": statistics.median(s.scale for s in samples),
        "wall": wall,
    }
    if args.trace:
        trace_path = STATE / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path, stamp)
        stamp["trace_file"] = str(trace_path.relative_to(ROOT))
    print(json.dumps({"stamp": stamp}, sort_keys=True))
    result = {
        "correct": all(s.problem is None for s in checked),
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
