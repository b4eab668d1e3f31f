"""Exact nonsignaling boxes, Bell-type functionals, and swap couplers.

Everything is computed over the field of rationals extended by sqrt(2);
there is not a single floating-point number on any code path that decides
a probability, a functional value, or a bound comparison.
"""

from .scalar import INV_SQRT2, ONE, SQRT2, ZERO, Scalar
from .errors import (
    ArityError,
    BoxSwapError,
    CouplerInvalidError,
    DigitLimitError,
    PartyCapError,
    SignalingError,
    SpecFileError,
    ValidationError,
)
from .boxes import (
    BoxTable,
    PARTY_CAP,
    WORD_ORDER,
    anti_pr,
    deterministic_local,
    failure,
    gsb,
    isotropic,
    marginalize,
    merge_parties,
    mix,
    mixed,
    named_box,
    permute_parties,
    pr,
    sb,
    tensor,
    validate,
)
from .bell import (
    BellFunctional,
    BoundTriple,
    Classification,
    bounds,
    ch_evaluate,
    classify,
    evaluate,
    gsi,
)
from .coupler import (
    BranchResult,
    CouplerEffect,
    apply_coupler,
    build_coupler,
    is_allowed,
    success_probability,
)
from .scenarios import (
    EfficiencyComparison,
    ScenarioBox,
    ScenarioCoupler,
    ScenarioReport,
    ScenarioSpec,
    ScenarioWiring,
    efficiency_compare,
    hybrid_three,
    run_scenario,
    swap_many,
    swap_two,
)
from .fileio import canonical_dumps, load_json, save_json

__version__ = "0.1.0"


def __getattr__(name):
    """``checks`` and its ``run_checks`` and ``CheckResult``, imported on
    first use: a run or a library call does not load the twelve checks."""
    if name in ("checks", "run_checks", "CheckResult"):
        from importlib import import_module

        checks = import_module(".checks", __name__)
        return checks if name == "checks" else getattr(checks, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
