"""``scripts/bench_pairs.py``: the summary of paired benchmark runs, on
synthetic results (no benchmark is run here)."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "throughput_rps", "unit": "1/s", "better": "higher", "bound": 0.15},
    {"name": "latency_p50_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def _result(rps, p50, failed=0):
    return {"attempted": 100, "correct": not failed, "failed": failed,
            "metrics": {"throughput_rps": {"value": rps, "unit": "1/s"},
                        "latency_p50_s": {"value": p50, "unit": "s"}}}


def test_summary_of_pairs():
    parent = [_result(100 + i, 0.010) for i in range(10)]
    change = [_result(250 + i, 0.011 if i < 3 else 0.009) for i in range(9)]
    change.append(_result(90, 0.012, failed=1))
    summary = bench_pairs.summarize({"wide": {"parent": parent, "change": change}}, END_TO_END)
    wide = summary["wide"]
    assert wide["pairs_complete"] == 10
    assert wide["attempted"] == {"parent": 1000, "change": 1000}
    assert wide["correct"] == {"parent": True, "change": False}
    assert wide["failed"] == {"parent": 0, "change": 1}

    rps = wide["metrics"]["throughput_rps"]
    assert rps["parent"]["median"] == 104.5 and rps["parent"]["runs"][0] == 100
    assert (rps["parent"]["q1"], rps["parent"]["q3"]) == (101.75, 107.25)
    assert rps["change"]["median"] == 253.5
    assert rps["change_wins_pairs"] == 9
    assert rps["relative_worsening_of_median"] == (104.5 - 253.5) / 104.5
    assert rps["within_bound"] and rps["bound"] == 0.15 and rps["better"] == "higher"

    p50 = wide["metrics"]["latency_p50_s"]
    assert p50["change_wins_pairs"] == 6  # lower wins; ties and losses do not
    assert abs(p50["relative_worsening_of_median"] + 0.1) < 1e-12
    assert p50["within_bound"]

    verdict = bench_pairs.claim(summary, "wide", "throughput_rps", 0.75)
    assert verdict["met"] and abs(verdict["gain_of_median"] - (253.5 / 104.5 - 1)) < 1e-12
    assert verdict["parent_iqr"] == 107.25 - 101.75
    assert not bench_pairs.claim(summary, "wide", "throughput_rps", 2.0)["met"]
    assert not bench_pairs.claim(summary, "wide", "latency_p50_s", 0.05)["met"]  # 6 wins
    json.dumps(summary)  # the layout is plain JSON


def test_worsening_beyond_the_bound_is_flagged():
    parent = [_result(100, 0.010) for _ in range(4)]
    change = [_result(80, 0.014) for _ in range(4)]
    summary = bench_pairs.summarize({"checks": {"parent": parent, "change": change}}, END_TO_END)
    metrics = summary["checks"]["metrics"]
    assert abs(metrics["throughput_rps"]["relative_worsening_of_median"] - 0.2) < 1e-12
    assert not metrics["throughput_rps"]["within_bound"]
    assert not metrics["latency_p50_s"]["within_bound"]
    assert metrics["latency_p50_s"]["change_wins_pairs"] == 0


def _setups(parent, change):
    """A summary of setup_s alone (lower is better), one run per pair."""
    metric = {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
    runs = {side: [{"attempted": 1, "correct": True, "failed": 0,
                    "metrics": {"setup_s": {"value": value, "unit": "s"}}} for value in values]
            for side, values in (("parent", parent), ("change", change))}
    return bench_pairs.summarize({"checks": runs}, [metric])


def test_a_claim_on_a_lower_is_better_metric():
    spread = [-0.004, 0.002, -0.003, 0.001, 0.0, 0.0, 0.003, -0.001, 0.004, -0.002]
    parent = [0.075 + d for d in spread]
    change = [0.060 + d for d in spread]
    verdict = bench_pairs.claim(_setups(parent, change), "checks", "setup_s", 0.18)
    assert abs(verdict["gain_of_median"] - 0.25) < 1e-12  # 0.075 / 0.060 - 1
    assert verdict["met"] and verdict["parent_iqr"] < 0.015
    assert _setups(parent, change)["checks"]["metrics"]["setup_s"]["change_wins_pairs"] == 10

    # the two pairs of the change's slowest runs lost: the medians stay, 8 wins
    lost = [0.090 if d >= 0.003 else c for c, d in zip(change, spread)]
    summary = _setups(parent, lost)
    assert summary["checks"]["metrics"]["setup_s"]["change_wins_pairs"] == 8
    verdict = bench_pairs.claim(summary, "checks", "setup_s", 0.18)
    assert abs(verdict["gain_of_median"] - 0.25) < 1e-12 and not verdict["met"]

    # every pair won, but the parent's runs spread by more than the shift
    wide = [0.075 + 10 * d for d in spread]
    summary = _setups(wide, [p - 0.015 for p in wide])
    assert summary["checks"]["metrics"]["setup_s"]["change_wins_pairs"] == 10
    verdict = bench_pairs.claim(summary, "checks", "setup_s", 0.18)
    assert verdict["parent_iqr"] > 0.015 and not verdict["met"]
