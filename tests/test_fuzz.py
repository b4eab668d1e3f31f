"""Fuzz the document boundary.

Every JSON document, valid or not, either loads or fails with a
``BoxSwapError``.  The documents are arbitrary JSON values (keyed with the
loaders' own keys now and then), and documents in the loaders' grammar
(scalars, box documents, generated and bundled scenarios) with up to three
random edits.  They go to ``Scalar.from_json``, ``BoxTable.from_json`` plus
``validate``, ``ScenarioSpec.from_json`` plus ``run_scenario``, and every
CLI verb.  Anything else that comes out, and any example over its
deadline, fails the test.  Long repeater chains and wide fans of swaps,
which would run for hours, must be refused by a cap at once.
"""

import contextlib
import copy
import io
import json
import random
import tempfile
from pathlib import Path
from time import perf_counter

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from boxswap import (INV_SQRT2, BoxTable, Scalar, deterministic_local, failure, isotropic, pr,
                     sb, validate)
from boxswap.cli import main
from boxswap.errors import BoxSwapError
from boxswap.scenarios import ScenarioSpec, run_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
BUNDLED = [json.loads(path.read_text()) for path in sorted(SCENARIOS.glob("*.json"))]

KEYS = ("n", "order", "probs", "r", "s", "name", "boxes", "kind", "parties", "xi", "table",
        "couplers", "consumed", "arity", "outcome", "wirings", "pair", "merged",
        "condition", "reports")
WORDS = ("party1-lsb", "0", "1", "00", "01", "10", "11", "pr", "anti_pr", "sb", "gsb",
         "mixed", "failure", "isotropic", "inline", "gsi", "ch", "a", "b", "c", "d")
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.sampled_from(WORDS)
    | st.text(max_size=6),
    lambda kids: (st.lists(kids, max_size=4)
                  | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), kids,
                                    max_size=5)),
    max_leaves=16,
)

# documents in the loaders' grammar, nearly all of them valid, so that edits reach every field;
# now and then an integer of 4,299 to 4,301 digits, around the most that Python converts
# between int and text: two of them differ by less than 1,000, so their gcd is small, and a
# sum of two values has a denominator about twice as long
LONG = st.builds(lambda k, tail: "9" * (k - 3) + f"{tail:03d}", st.integers(4299, 4301),
                 st.integers(0, 999))
INTS = st.integers(-3, 12) | st.integers(-999, 999).map(str) | LONG
DENS = st.integers(0, 12) | st.integers(1, 999).map(str) | LONG
SCALARS = st.fixed_dictionaries({"r": st.tuples(INTS, DENS).map(list),
                                 "s": st.tuples(INTS, DENS).map(list)})
# valid inline tables: a scenario refuses any other
TABLES = {n: [box.to_json() for box in boxes] for n, boxes in {
    1: [deterministic_local([(0, 1)]), deterministic_local([(1, 0)])],
    2: [pr(), isotropic(2, INV_SQRT2), deterministic_local([(0, 1), (1, 1)])],
    3: [sb(), failure(3), deterministic_local([(1, 1), (0, 0), (1, 0)])]}.items()}
KINDS = {1: ("inline",),
         2: ("pr", "anti_pr", "gsb", "mixed", "failure", "isotropic", "inline"),
         3: ("sb", "gsb", "mixed", "failure", "isotropic", "inline")}


@st.composite
def box_docs(draw, n=None):
    """A box document of up to six cells over one to three parties (or ``n``)."""
    n = draw(st.sampled_from((1, 2, 3))) if n is None else n
    word = st.integers(0, 2**n - 1).map(lambda w: format(w, f"0{n}b"))
    cells = st.tuples(word, word, SCALARS).map(list)
    probs = draw(st.lists(cells, max_size=6, unique_by=lambda cell: tuple(cell[:2])))
    return {"n": n, "order": "party1-lsb", "probs": probs}


@st.composite
def scenario_docs(draw):
    """Up to three boxes over at most six labels, with couplers and wirings
    on disjoint labels."""
    labels = draw(st.permutations("abcdef"))
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)
                 .filter(lambda s: sum(s) <= 6))
    boxes, start = [], 0
    for size in sizes:
        box = {"parties": labels[start:start + size], "kind": draw(st.sampled_from(KINDS[size]))}
        start += size
        if box["kind"] == "isotropic":
            box["xi"] = draw(SCALARS)
        elif box["kind"] == "inline":
            box["table"] = draw(st.sampled_from(TABLES[size]))
        if draw(st.booleans()):
            box["n"] = size
        boxes.append(box)
    free = draw(st.permutations(labels[:start]))
    couplers, wirings = [], []
    for arity in draw(st.lists(st.integers(2, 3), max_size=2)):
        if len(free) >= arity:
            coupler = {"consumed": free[:arity]}
            if draw(st.booleans()):
                coupler["outcome"] = draw(st.sampled_from((0, 1)))
            couplers.append(coupler)
            free = free[arity:]
    for merged in draw(st.lists(st.sampled_from("mn"), max_size=2, unique=True)):
        if len(free) >= 2:
            wirings.append({"pair": free[:2], "merged": merged})
            free = free[2:]
    return {"boxes": boxes, "couplers": couplers, "wirings": wirings,
            "reports": draw(st.lists(st.sampled_from(("gsi", "ch")), max_size=2, unique=True))}


def _paths(doc, path=()):
    """The path to every value inside ``doc``, containers and leaves."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


@st.composite
def edited(draw, documents):
    """A document with up to three edits, each at a value inside it: the
    value replaced by arbitrary JSON, dropped, or (in a list) doubled.  The
    value is found by a depth chosen uniformly, then a path of that depth,
    so that a document's few entries are hit as often as its many leaves.
    The choices follow a drawn seed, since hypothesis favours the first
    choice at every step."""
    doc = copy.deepcopy(draw(documents))
    rng = random.Random(draw(st.integers(0, 2**32)))
    for _ in range(rng.randint(0, 3)):
        by_depth = {}
        for path in _paths(doc):
            by_depth.setdefault(len(path), []).append(path)
        if not by_depth:
            break
        *route, key = rng.choice(by_depth[rng.choice(list(by_depth))])
        parent = doc
        for step in route:
            parent = parent[step]
        action = rng.choice(("replace", "drop", "double"))
        if action == "replace":
            parent[key] = draw(JSON)
        elif action == "drop":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
    return doc


@st.composite
def with_stray_entry(draw, documents):
    """A scenario document with arbitrary JSON put in one of its lists as
    one more entry: edits reach a list's entries only now and then."""
    doc = copy.deepcopy(draw(documents))
    entries = doc.setdefault(draw(st.sampled_from(("boxes", "couplers", "wirings", "reports"))), [])
    entries.insert(draw(st.integers(0, len(entries))), draw(JSON))
    return doc


SCENARIO_DOCS = scenario_docs() | st.sampled_from(BUNDLED)
# a box document at the cap, which an edit can make, takes about 2.3 s over all the verbs
FUZZ = settings(deadline=10000, suppress_health_check=[HealthCheck.too_slow])


def _loads_or_refuses(fn, doc) -> None:
    try:
        fn(doc)
    except BoxSwapError:
        pass


@given(JSON | edited(SCALARS))
@settings(FUZZ, max_examples=200)
def test_scalar_loader_raises_only_boxswap_errors(doc):
    _loads_or_refuses(Scalar.from_json, doc)


@given(JSON | edited(box_docs()))
@settings(FUZZ, max_examples=100)
def test_box_loader_raises_only_boxswap_errors(doc):
    _loads_or_refuses(lambda doc: validate(BoxTable.from_json(doc)), doc)


@given(JSON | edited(SCENARIO_DOCS) | with_stray_entry(SCENARIO_DOCS))
@settings(FUZZ, max_examples=100)
def test_scenario_loader_and_engine_raise_only_boxswap_errors(doc):
    _loads_or_refuses(lambda doc: run_scenario(ScenarioSpec.from_json(doc)), doc)


@st.composite
def long_chains(draw):
    """A repeater chain of k + 1 PR boxes in a line, coupler i on the right
    end of box i and the left end of box i + 1, with more than 16 of its k
    couplers free of an ``outcome``: more than ``BRANCH_CAP`` branches."""
    k = draw(st.integers(17, 64))
    kept = draw(st.sets(st.integers(1, k), max_size=k - 17))
    return {"name": "chain",
            "boxes": [{"name": f"g{i}", "kind": "pr", "parties": [f"l{i}", f"r{i}"]}
                      for i in range(1, k + 2)],
            "couplers": [{"consumed": [f"r{i}", f"l{i + 1}"], "outcome": 0 if i in kept else None}
                         for i in range(1, k + 1)]}


@st.composite
def wide_fans(draw):
    """k PR-pair swaps that share no party: the fold tensors 2k parties,
    over the party cap from k = 6, and past k = 16 the swaps' branches are
    over ``BRANCH_CAP`` too."""
    k = draw(st.integers(6, 48))
    boxes = [{"name": f"{side}{i}", "kind": "pr", "parties": [f"{side}{i}x", f"{side}{i}y"]}
             for i in range(k) for side in "pq"]
    return {"name": "fan", "boxes": boxes,
            "couplers": [{"consumed": [f"p{i}y", f"q{i}x"]} for i in range(k)]}


@given(long_chains() | wide_fans())
@settings(FUZZ, max_examples=40)
def test_a_document_past_a_cap_is_refused_at_once(doc):
    """Refused with a BoxSwapError before any table of its run is built:
    in well under the 0.5 s allowed here, where running it would take
    hours or all memory."""
    start = perf_counter()
    try:
        run_scenario(ScenarioSpec.from_json(doc))
    except BoxSwapError:
        assert perf_counter() - start < 0.5
    else:
        raise AssertionError("a document past a cap ran")


def _cli(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@given(box_docs(2) | JSON | edited(box_docs() | SCENARIO_DOCS), st.text(min_size=3, max_size=8),
       st.none() | st.tuples(st.integers(0, 2**16), st.integers(0, 255)))
@settings(FUZZ, max_examples=80)
def test_every_cli_verb_exits_cleanly(doc, name_filter, garble):
    """Exit 0, 2 or 3, and an error is one line.  With ``garble`` one byte
    of the file is replaced, which may leave bytes that are not UTF-8.
    Unedited two-party box documents come first, as hypothesis draws its
    first alternative most: they are the ones that reach ``eval``'s values."""
    text = bytearray(json.dumps(doc).encode())
    if garble:
        text[garble[0] % len(text)] = garble[1]
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "doc.json")
        Path(path).write_bytes(bytes(text))
        for argv in (["run", path], ["run", path, "--format", "json"], ["show", path],
                     ["eval", path, "gsi"], ["eval", path, "ch", "--format", "json"],
                     ["reproduce", f"--filter={name_filter}"]):
            code, err = _cli(argv)
            assert code in (0, 2, 3), (argv, code, err)
            assert not err or (err.startswith("error: ") and err.count("\n") == 1), (argv, err)
