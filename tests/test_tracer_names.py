"""The names ``perfbench/tracer.py`` wraps must exist in ``boxswap``.

The tracer skips a name it cannot find without a word, so a function
renamed or deleted in ``boxswap`` would leave ``perfbench/run.py --trace 1``
blind to its layer.  This test reads the tracer's lists as they are."""

import importlib.util
from pathlib import Path

import boxswap
import boxswap.cli  # noqa: F401  (the benchmark imports the CLI as well)

ROOT = Path(__file__).resolve().parent.parent


def _tracer():
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_name_resolves_on_boxswap():
    tracer = _tracer()
    for _, module, attr in tracer.FUNCTIONS:
        assert callable(getattr(getattr(boxswap, module), attr)), (module, attr)
    for _, module, cls, attr in tracer.METHODS:
        assert attr in vars(getattr(getattr(boxswap, module), cls)), (module, cls, attr)
    for attr in tracer.SCALAR_OPS:
        assert attr in vars(boxswap.Scalar), attr
    assert ("boxes.merge_parties", "boxes", "merge_parties") in tracer.FUNCTIONS
