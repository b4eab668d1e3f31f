"""Golden outputs: ``boxswap run --format json`` on every bundled scenario
document must reproduce the recorded report byte for byte, and
``scripts/generate_scenarios.py`` must rebuild the documents themselves.

The sha256 digests live in ``perfbench/reference_digests.json``, the file
the benchmark checks its outputs against; this test only reads it.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from boxswap.cli import main
from boxswap.fileio import canonical_dumps

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = json.loads((ROOT / "perfbench" / "reference_digests.json").read_text())["documents"]


def test_every_bundled_scenario_has_a_digest():
    assert sorted(p.stem for p in (ROOT / "scenarios").glob("*.json")) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_bundled_scenario_report_is_byte_identical(tmp_path, name):
    out = tmp_path / "report.json"
    doc = ROOT / "scenarios" / f"{name}.json"
    assert main(["run", str(doc), "--format", "json", "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[name]


def test_generator_rebuilds_the_bundled_documents_byte_for_byte():
    script = ROOT / "scripts" / "generate_scenarios.py"
    spec = importlib.util.spec_from_file_location("generate_scenarios", script)
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    built = {}
    for build in generator.BUILDERS:
        scenario = build()
        built[scenario.name.replace("-", "_")] = canonical_dumps(scenario.to_json())
    assert sorted(built) == sorted(DIGESTS)
    for name, text in built.items():
        assert (ROOT / "scenarios" / f"{name}.json").read_text() == text
