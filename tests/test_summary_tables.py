"""Smoke test for ``scripts/summary_tables.py``, the one reader of
``ScenarioReport.groups`` outside the CLI."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_summary_tables_print_the_hybrid_groups(capsys):
    script = ROOT / "scripts" / "summary_tables.py"
    spec = importlib.util.spec_from_file_location("summary_tables", script)
    tables = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tables)
    tables.main()
    out = capsys.readouterr().out
    hybrid = out.split("== hybrid three-user network, grouped by failed couplers\n")[1]
    rows = [line.split() for line in hybrid.splitlines()[2:] if line]
    assert [(r[0], r[1], r[2], r[4]) for r in rows] == [
        ("0", "1", "1/27", "8"),
        ("1", "3", "2/9", "-4"),
        ("2", "3", "4/9", "2"),
        ("3", "1", "8/27", "-1"),
    ]
