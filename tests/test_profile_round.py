"""Smoke test for ``scripts/profile_round.py``: one ``wide`` round, in-process."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_profile_round_times_and_checks_each_wide_request(capsys):
    spec = importlib.util.spec_from_file_location("profile_round",
                                                  ROOT / "scripts" / "profile_round.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
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
