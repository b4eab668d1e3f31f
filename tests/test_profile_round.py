"""Smoke tests for ``scripts/profile_round.py``: one ``wide`` round, one
``documents`` round split into phases, one ``reproduce`` request's phases,
and this checkout's ``wide`` rounds and requests against a copy of itself,
in-process, and against its last commit, exported by ``git archive``."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _script():
    spec = importlib.util.spec_from_file_location("profile_round",
                                                  ROOT / "scripts" / "profile_round.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_profile_round_times_and_checks_each_wide_request(capsys):
    script = _script()
    assert script.main(["--workload", "wide", "--repeat", "1", "--profile", "3"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.splitlines()
    assert lines[0].startswith("wide seed 1: 9 requests, best of 1, round ")
    total = float(lines[0].split("round ")[1].removesuffix(" ms"))
    rows = [line.split() for line in lines[2:11]]
    assert sorted(row[2] for row in rows) == sorted(
        f"wide:{shape}/{cls}" for shape in ("swap_two(3,3)", "swap_two(3,4)", "swap_many(2,2,3)")
        for cls in ("dyadic", "rational", "sqrt2"))
    # ms are printed to 0.001 and shares to 0.1%, so each printed share is
    # within 0.1 points of its printed ms over the printed round, and the ten
    # printed times (nine rows, one round) are each within 0.0005 ms
    for ms, share, _ in rows:
        assert abs(float(share.rstrip("%")) - 100 * float(ms) / total) < 0.1
    assert abs(sum(float(ms) for ms, _, _ in rows) - total) <= 0.005 + 1e-9
    assert "Ordered by: internal time" in out


def test_profile_round_splits_each_document_run_into_phases(capsys):
    script = _script()
    assert script.main(["--workload", "documents", "--repeat", "1", "--phases"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.splitlines()
    labels = sorted(line.split()[2] for line in lines[2:14])
    at = lines.index("phases of 12 run/reproduce requests, best of 1 each, ms")
    assert lines[at + 1].split() == list(script.PHASES) + ["total", "request"]
    rows = [line.split() for line in lines[at + 2:at + 14]]
    assert sorted(row[-1] for row in rows) == labels
    # five values to 0.001 ms per row, and thirteen per column
    for row in rows + [lines[at + 14].split()]:
        times = [float(t) for t in row[:4]]
        assert abs(sum(times) - float(row[4])) <= 0.0025 + 1e-9
    assert lines[at + 14].endswith("(round)") and len(lines) == at + 15
    for i in range(5):
        column = sum(float(row[i]) for row in rows)
        assert abs(column - float(lines[at + 14].split()[i])) <= 0.0065 + 1e-9


def test_a_reproduce_request_has_no_load_or_spec_phase(tmp_path):
    script = _script()
    boxswap, workloads = script._imports()
    requests, _ = workloads.build("checks", 1, boxswap, tmp_path)
    request = next(r for r in requests if r.label == "check:bound-table")
    times, problem = script.phase_times(boxswap, request, 2)
    assert problem is None
    assert times[:2] == [None, None] and all(t >= 0 for t in times[2:])


def test_imports_lists_what_only_boxswap_loads(capsys):
    script = _script()
    assert script.main(["--imports", "--repeat", "2"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.splitlines()
    assert lines[0].startswith("import boxswap, boxswap.cli: ")
    assert "best of 2 processes" in lines[0]
    assert lines[1].split() == ["self", "ms", "cum", "ms", "module"]
    rows = {line.split()[2]: [float(t) for t in line.split()[:2]] for line in lines[2:]}
    assert len(rows) == len(lines) - 2
    assert {"boxswap", "boxswap.scenarios", "boxswap.cli"} <= set(rows)
    assert "dataclasses" not in rows and "json" not in rows  # json: perfbench/run.py's
    assert all(0 <= own <= total for own, total in rows.values())
    own = [own for own, _ in rows.values()]
    assert own == sorted(own, reverse=True)


def test_against_runs_both_trees_interleaved_and_prints_their_ratio(capsys):
    script = _script()
    assert script.main(["--workload", "wide", "--against", str(ROOT), "--repeat", "3"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "wide seed 1: 9 requests, 3 interleaved rounds per side"
    assert lines[1].split() == ["best", "ms", "p10", "ms", "side"]
    sides = [line.split() for line in lines[2:4]]
    assert [row[2:4] for row in sides] == [["this", "checkout"], ["against", str(ROOT)]]
    for best, p10, *_ in sides:
        assert 0 < float(best) <= float(p10)
    assert lines[4].startswith("ratio this/against: best ")
    # then one row per request: its best time on each side and their ratio,
    # slowest first on this checkout, and its call count on each side
    assert lines[5].split() == ["this", "ms", "against", "ms", "ratio", "this", "calls",
                                "against", "calls", "request"]
    rows = [line.split() for line in lines[6:]]
    assert len(rows) == 9 and sorted(row[5] for row in rows) == sorted(
        f"wide:{shape}/{cls}" for shape in ("swap_two(3,3)", "swap_two(3,4)", "swap_many(2,2,3)")
        for cls in ("dyadic", "rational", "sqrt2"))
    mine = [float(row[0]) for row in rows]
    assert mine == sorted(mine, reverse=True)
    # one tree against a copy of itself: a warm request makes the same calls
    for *_, this_calls, against_calls, _ in rows:
        assert int(this_calls) == int(against_calls) > 100
    for this, against, ratio, *_ in rows:
        # each printed to 0.001, so the ratio lies within those roundings
        this, against, ratio = float(this), float(against), float(ratio)
        assert 0 < this and 0.0005 < against
        assert (this - 0.0005) / (against + 0.0005) - 0.0005 <= ratio
        assert ratio <= (this + 0.0005) / (against - 0.0005) + 0.0005
    # a request's best is at most its time in the best round, so the bests
    # sum to at most each side's best round (all printed to 0.001 ms)
    for side, column in zip(sides, (0, 1)):
        assert sum(float(row[column]) for row in rows) <= float(side[0]) + 0.005


def _in_git_checkout() -> bool:
    found = subprocess.run(["git", "rev-parse", "--verify", "--quiet", "HEAD^{commit}"], cwd=ROOT,
                           capture_output=True, check=False)
    return found.returncode == 0


@pytest.mark.skipif(not _in_git_checkout(), reason="needs a git checkout with a commit")
def test_against_takes_a_git_revision_exported_with_git_archive(capsys):
    script = _script()
    assert script.main(["--workload", "wide", "--against", "HEAD", "--repeat", "2"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "wide seed 1: 9 requests, 2 interleaved rounds per side"
    assert lines[3].endswith("  against HEAD (git archive)")
    assert lines[4].startswith("ratio this/against: best ")
    assert len(lines) == 6 + 9


def test_against_refuses_what_is_neither_a_checkout_nor_a_revision(capsys, tmp_path):
    script = _script()
    with pytest.raises(SystemExit) as exit_:
        script.main(["--workload", "wide", "--against", str(tmp_path / "no-such-revision")])
    assert exit_.value.code == 2
    assert "is neither a checkout with src/boxswap nor a git revision" in capsys.readouterr().err
