"""The report writer (``boxswap.writer``) against its reference: the text of
every report and box document it writes equals ``canonical_dumps`` of the
document's ``to_json``, byte for byte, and a report comes one branch at a
time, holding a fragment's text only while the report holds it again."""

import os
import random
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import boxswap
from boxswap import (INV_SQRT2, ONE, ZERO, BoxTable, Scalar, deterministic_local, failure, gsb,
                     isotropic, mix, mixed, pr, tensor, validate)
from boxswap.boxes import ValidationReport
from boxswap.cli import main
from boxswap.errors import BoxSwapError
from boxswap.fileio import canonical_dumps, save_json
from boxswap.scenarios import (ScenarioBox, ScenarioCoupler, ScenarioSpec, ScenarioWiring,
                               hybrid_three, run_scenario, swap_many, swap_two)
from boxswap.writer import _Texts, report_text, show_text

# rational, sqrt(2)-bearing, 0 and 1 weights
WEIGHTS = (ZERO, ONE, Scalar.rational(1, 3), Scalar.rational(2, 3), INV_SQRT2,
           Scalar.rational(1, 4) + INV_SQRT2 / 2)
# labels and names that JSON must escape: quote, backslash, control and non-ASCII characters
TEXTS = st.text(st.sampled_from('ab"\\\n\t\x00\x7fé√ 😀'), min_size=1, max_size=4)


def _text(report) -> str:
    pieces = list(report_text(report))
    assert len(pieces) == len(report.branches) + 2  # the head, each branch, the tail
    return "".join(pieces)


@st.composite
def _inline(draw, n: int) -> BoxTable:
    """A valid table held as cells, with zero cells, and sqrt(2) parts now and then."""
    words = draw(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=n,
                          max_size=n))
    local, other = (deterministic_local([(x, a ^ flip) for x, a in words]) for flip in (0, 1))
    weight = draw(st.sampled_from((WEIGHTS[2], WEIGHTS[4], WEIGHTS[5])))
    return draw(st.sampled_from([local, mix([(weight, local), (ONE - weight, other)])]))


@st.composite
def _specs(draw) -> ScenarioSpec:
    """One to three boxes over at most six labels, named and labelled with
    text to escape, up to two couplers (some conditioned) and a wiring.  A
    box of three parties may be a failure box beside a local party, with a
    first coupler on the failure box's ends: its success has no mass."""
    sizes = draw(st.lists(st.sampled_from((1, 2, 2, 3)), min_size=1, max_size=3)
                 .filter(lambda s: sum(s) <= 6))
    labels = draw(st.lists(TEXTS, min_size=sum(sizes) + 1, max_size=sum(sizes) + 1, unique=True))
    boxes, at = [], 0
    for k, n in enumerate(sizes):
        parties, at = tuple(labels[at:at + n]), at + n
        kind = draw(st.sampled_from(("dead",) * (n == 3) + (
            ("inline",) if n == 1 else ("inline", "pr", "isotropic", "gsb"))))
        if kind == "dead":
            dead = tensor(deterministic_local([(0, 1)]), failure(2))
            boxes.insert(0, ScenarioBox(f"g{k}", "inline", n, parties, table=dead))
        elif kind == "inline":
            boxes.append(ScenarioBox(f"g{k}", kind, n, parties, table=draw(_inline(n))))
        elif kind == "isotropic":
            boxes.append(ScenarioBox(f"g{k}", kind, n, parties, draw(st.sampled_from(WEIGHTS))))
        else:
            boxes.append(ScenarioBox(f"g{k}", "pr" if n == 2 else "gsb", n, parties))
    free, pools, couplers = list(labels[:at]), [set(b.parties) for b in boxes], []
    for c in range(draw(st.integers(0, 2))):
        dead = c == 0 and boxes[0].table is not None and boxes[0].table.factors is not None
        consumed = boxes[0].parties[1:] if dead else draw(st.permutations(free))[:2]
        involved = [pool for pool in pools if pool & set(consumed)]
        survivors = set().union(*involved) - set(consumed)
        if len(consumed) < 2 or not survivors:
            continue
        pools = [pool for pool in pools if pool not in involved] + [survivors]
        free = [p for p in free if p not in consumed]
        couplers.append(ScenarioCoupler(2, tuple(consumed), draw(st.sampled_from((None, 0, 1)))))
    wirings = ()
    if len(free) >= 3 and draw(st.booleans()):
        wirings = (ScenarioWiring(tuple(draw(st.permutations(free))[:2]), labels[-1]),)
    final = at - 2 * len(couplers) - len(wirings)  # the parties of each final box
    reports = draw(st.sampled_from([(), ("gsi",), ("ch",), ("gsi", "ch")][:1 + (final >= 2) +
                                                                        2 * (final == 2)]))
    return ScenarioSpec(draw(TEXTS), tuple(boxes), tuple(couplers), wirings, reports)


@settings(max_examples=150, deadline=None)
@given(_specs())
def test_a_drawn_scenario_report_is_written_as_its_document(spec):
    try:
        report = run_scenario(spec)
    except BoxSwapError:  # a ch report on a box of other than two parties, an invalid coupler
        return
    assert _text(report) == canonical_dumps(report.to_json())


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(((2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 2, 3))),
       st.lists(st.sampled_from(WEIGHTS), min_size=3, max_size=3))
def test_a_swap_report_is_written_as_its_document(arities, weights):
    if len(arities) == 2:
        report = swap_two(*arities, *weights[:2])
    else:
        report = swap_many(arities, weights)
    assert _text(report) == canonical_dumps(report.to_json())


def test_a_branch_without_mass_is_written_as_its_document():
    # both ends of a failure box consumed: the success branch has no mass,
    # no box and a null outcome at the coupler that no longer runs
    doomed = tensor(deterministic_local([(0, 1)]), failure(2))
    spec = ScenarioSpec("dead\tbranch \"é\"", (
        ScenarioBox("doomed", "inline", 3, ("k", "b1", "b2"), table=doomed),
        ScenarioBox("left", "pr", 2, ("a", "c1")), ScenarioBox("right", "pr", 2, ("c2", "d"))),
        (ScenarioCoupler(2, ("b1", "b2")), ScenarioCoupler(2, ("c1", "c2"))), (), ("gsi",))
    report = run_scenario(spec)
    assert report.branch((0, None)).box is None
    assert _text(report) == canonical_dumps(report.to_json())


def test_the_groups_of_hybrid_three_are_written_as_its_document():
    report = hybrid_three()
    assert report.groups is not None
    assert _text(report) == canonical_dumps(report.to_json())


def _tables(n: int, seed: int) -> list:
    """Cell and spectral tables of n parties, valid or not, with zero cells
    and sqrt(2) parts."""
    rng = random.Random(seed)
    sparse = [rng.choice((0, 0, 0, 1, 2, -1)) for _ in range(4**n)]
    surd = [rng.choice((0, 0, 1, -3)) for _ in range(4**n)]
    columns = {0: ([1] * 2**n, None), 2**n - 1: (sparse[:2**n], surd[:2**n])}
    tables = [BoxTable.from_numerators(n, rng.randint(1, 40), sparse),
              BoxTable.from_numerators(n, rng.randint(1, 40), sparse, surd),
              BoxTable.from_spectrum(n, 2**n, columns),
              deterministic_local([(rng.randint(0, 1), rng.randint(0, 1)) for _ in range(n)])]
    return tables + [isotropic(n, INV_SQRT2), mixed(n), failure(n), gsb(n)] if n >= 2 else tables


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2**32))
def test_a_box_is_written_as_its_document(n, seed):
    for box in _tables(n, seed):
        assert _Texts().box(box, "\n") + "\n" == canonical_dumps(box.to_json())
        doc = {"box": box.to_json(), "validation": validate(box).to_json()}
        assert show_text(box, validate(box)) == canonical_dumps(doc)


def test_a_validation_of_ten_parties_lists_them_in_key_order():
    # the keys "1" ... "10" sort as text: "1", "10", "2", ...
    report = ValidationReport(True, True, {p: p != 7 for p in range(1, 11)})
    assert _Texts().validation(report, "\n") + "\n" == canonical_dumps(report.to_json())


def test_a_table_of_zero_cells_has_no_rows():
    box = BoxTable.from_numerators(2, 1, [0] * 16)
    assert _Texts().box(box, "\n") + "\n" == canonical_dumps(box.to_json())
    assert '"probs": []' in show_text(box, validate(box))


def test_a_fragment_text_is_kept_only_while_the_report_holds_it_again():
    report = run_scenario(_ring3())
    texts = _Texts(report.branches)
    boxes = [record.box for record in report.branches]
    for k, box in enumerate(boxes):
        texts.once(box, texts.box, "\n      ")
        later = {id(b) for b in boxes[k + 1:]}
        kept = {key for key in texts.kept if key in {id(b) for b in boxes}}
        assert kept == {id(b) for b in boxes[:k + 1]} & later
    assert not any(id(b) in texts.kept for b in boxes)


def _ring3() -> ScenarioSpec:
    """``scenarios/hybrid_three.json``: its eight branches hold four distinct boxes."""
    return ScenarioSpec.from_json(boxswap.load_json(
        Path(__file__).resolve().parent.parent / "scenarios" / "hybrid_three.json"))


def _fresh(argv, **env) -> tuple:
    """Exit code, stdout bytes and stderr of ``python -m boxswap`` in a new process."""
    src = Path(boxswap.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-m", "boxswap", *argv], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=str(src), **env), check=False)
    return proc.returncode, proc.stdout, proc.stderr.decode()


def test_stdout_and_output_get_the_same_bytes_in_any_locale(tmp_path):
    spec = ScenarioSpec('ring "é√"', _ring3().boxes, _ring3().couplers, _ring3().wirings)
    doc = tmp_path / "ring.json"
    save_json(doc, spec.to_json())
    want = canonical_dumps(run_scenario(spec).to_json()).encode()
    out = tmp_path / "report.json"
    assert main(["run", str(doc), "--format", "json", "--output", str(out)]) == 0
    assert out.read_bytes() == want
    for locale in ("C.UTF-8", "C"):
        code, stdout, _ = _fresh(["run", str(doc), "--format", "json"], LC_ALL=locale,
                                 PYTHONIOENCODING="" if locale == "C.UTF-8" else "ascii")
        assert (code, stdout) == (0, want)


def test_a_show_output_that_cannot_be_written_is_an_input_error(tmp_path):
    box = tmp_path / "box.json"
    save_json(box, pr().to_json())
    code, stdout, err = _fresh(["show", str(box), "--format", "json", "--output", str(tmp_path)])
    assert (code, stdout) == (2, b"") and err.startswith(f"error: cannot write {tmp_path}: ")
    assert "Traceback" not in err and err.count("\n") == 1
